// Monotonic stopwatch for analysis, verification and request timing. Timings are only
// reported: no solver budget reads the clock (see src/smt/budget.h).
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

}  // namespace noctua

#endif  // SRC_SUPPORT_STOPWATCH_H_
