#pragma once

// Per-kernel workload-drift detection. The paper trains its models offline
// and freezes them; when the input distribution shifts, a frozen model stays
// pinned to a stale choice with nothing in the loop to notice. This detector
// closes that gap: each *predicted* launch is scored by its relative regret
// against the best variant its kernel's evidence table (EvidenceTable) knows
// for similar features, decayed runtimes that every executed variant feeds
// (the predicted choice plus the Explorer's occasional off-policy launches
// and the ground-truth probes). When the windowed mean regret crosses a
// threshold, the detector fires and the adaptation loop reacts (boost
// exploration, retrain, hot-swap).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace apollo::online {

struct DriftConfig {
  std::size_t window = 48;        ///< regret samples in the sliding window
  std::size_t min_samples = 12;   ///< windowed samples required before firing
  double regret_threshold = 0.25; ///< mean relative regret that fires
  std::size_t cooldown = 64;      ///< choice observations to ignore after a fire
};

/// Coarse "similar features" bucket for a launch: log2 of the iteration count
/// plus a capped segment count. Launches in one bucket are comparable enough
/// that their variant runtimes rank the same way.
[[nodiscard]] std::uint64_t feature_bucket(std::int64_t num_indices,
                                           std::size_t num_segments) noexcept;

class DriftDetector {
public:
  explicit DriftDetector(DriftConfig config = {});

  /// Record one predicted launch that ran `seconds`, where `best` is its
  /// bucket's best decayed runtime after the launch's own update: the
  /// launch contributes a regret sample of seconds / best - 1.
  void observe(double seconds, double best);

  /// True exactly once per firing (reading clears the flag, not the window).
  [[nodiscard]] bool consume_fire() noexcept;

  [[nodiscard]] double mean_regret() const noexcept;
  [[nodiscard]] std::size_t window_size() const noexcept { return regrets_.size(); }
  [[nodiscard]] std::uint64_t fires() const noexcept { return fires_; }

  /// Forget the regret window and re-arm (called after a model hot-swap so
  /// the new model starts from a clean slate). The kernel's evidence table
  /// is not the detector's: it keeps the baselines the next detection needs.
  void rearm() noexcept;

  const DriftConfig& config() const noexcept { return config_; }

private:
  DriftConfig config_;
  /// Fixed ring of the last `window` regret samples: no allocation on the
  /// per-launch path once the window has filled for the first time.
  std::vector<double> regrets_;
  std::size_t regret_next_ = 0;
  double regret_sum_ = 0.0;
  std::size_t cooldown_left_ = 0;
  bool fire_pending_ = false;
  std::uint64_t fires_ = 0;
};

}  // namespace apollo::online
