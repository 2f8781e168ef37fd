// Monotonic stopwatch and deadline helpers, used for analysis/verification timing and for
// per-check solver timeouts (the paper uses a 2-second timeout per SMT check).
#ifndef SRC_SUPPORT_STOPWATCH_H_
#define SRC_SUPPORT_STOPWATCH_H_

#include <chrono>

namespace noctua {

// Measures elapsed wall time from construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// A point in time after which long-running work (e.g. the SMT search) must give up.
// A default-constructed Deadline never expires.
class Deadline {
 public:
  Deadline() : expires_(Clock::time_point::max()) {}

  static Deadline AfterSeconds(double seconds) {
    Deadline d;
    d.expires_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
    return d;
  }

  static Deadline Never() { return Deadline(); }

  bool Expired() const { return Clock::now() >= expires_; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point expires_;
};

}  // namespace noctua

#endif  // SRC_SUPPORT_STOPWATCH_H_
