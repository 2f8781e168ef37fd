// Deterministic pseudo-random number generator (splitmix64 + xoshiro-style mixing).
//
// All randomized components (workload generator, property tests, replication simulator)
// take an explicit Rng so that every experiment in this repository is reproducible from a
// seed printed in its output.
#ifndef SRC_SUPPORT_RNG_H_
#define SRC_SUPPORT_RNG_H_

#include <cmath>
#include <cstdint>

#include "src/support/check.h"

namespace noctua {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed ? seed : 1) {}

  // splitmix64 step: high-quality 64-bit output, tiny state.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform integer in [0, bound). bound must be positive.
  uint64_t NextBelow(uint64_t bound) {
    NOCTUA_CHECK(bound > 0);
    // Rejection sampling to avoid modulo bias (matters for property tests).
    uint64_t threshold = -bound % bound;
    for (;;) {
      uint64_t r = Next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  int64_t NextInRange(int64_t lo, int64_t hi) {  // inclusive range [lo, hi]
    NOCTUA_CHECK(lo <= hi);
    return lo + static_cast<int64_t>(NextBelow(static_cast<uint64_t>(hi - lo) + 1));
  }

  double NextDouble() {  // uniform in [0, 1)
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  bool NextBool() { return (Next() & 1) != 0; }

  // Returns true with the given probability.
  bool Chance(double p) { return NextDouble() < p; }

  // Uniform real in [lo, hi).
  double NextUniform(double lo, double hi) {
    NOCTUA_CHECK(lo <= hi);
    return lo + (hi - lo) * NextDouble();
  }

  // Exponentially distributed real with the given mean (inverse-CDF sampling). Models
  // heavy-tailed latency spikes in the fault-injection layer. mean <= 0 yields 0.
  double NextExponential(double mean) {
    if (mean <= 0) {
      return 0;
    }
    // 1 - NextDouble() is in (0, 1], so the log argument never hits zero.
    return -mean * std::log(1.0 - NextDouble());
  }

 private:
  uint64_t state_;
};

}  // namespace noctua

#endif  // SRC_SUPPORT_RNG_H_
