#pragma once

// Timing sources for kernel measurement.
//
// Apollo records one runtime per kernel invocation. On the paper's testbed
// that is a wall-clock measurement (via Caliper); this header holds that
// source. The default source for experiments in this reproduction is the
// calibrated machine model in `src/sim/` (see DESIGN.md, substitution 1):
// under TimingSource::Model, Runtime::end prices each launch with
// sim::MachineModel instead of reading a clock.

#include <chrono>

namespace apollo::perf {

/// Monotonic wall-clock stopwatch.
class Stopwatch {
public:
  void start() noexcept { begin_ = clock::now(); }

  /// Seconds elapsed since the last start().
  [[nodiscard]] double stop() const noexcept {
    const auto end = clock::now();
    return std::chrono::duration<double>(end - begin_).count();
  }

private:
  using clock = std::chrono::steady_clock;
  clock::time_point begin_{};
};

}  // namespace apollo::perf
