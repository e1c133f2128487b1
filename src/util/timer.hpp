#pragma once
// Wall-clock timing for the complexity benches.

#include <chrono>

namespace acbm::util {

/// Monotonic stopwatch. Construction starts it; `seconds()` reads elapsed
/// time without stopping.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace acbm::util
