#include "online/drift_detector.hpp"

#include <algorithm>
#include <bit>

namespace apollo::online {

std::uint64_t feature_bucket(std::int64_t num_indices, std::size_t num_segments) noexcept {
  const auto magnitude =
      num_indices > 0 ? std::bit_width(static_cast<std::uint64_t>(num_indices)) : 0;
  return (static_cast<std::uint64_t>(magnitude) << 4) |
         std::min<std::uint64_t>(num_segments, 15);
}

DriftDetector::DriftDetector(DriftConfig config) : config_(config) {}

void DriftDetector::observe(double seconds, double best) {
  // With a single observed variant, best is the launch's own baseline: no
  // evidence of a better alternative, so regret is zero by construction.
  const double regret = best > 0.0 ? std::max(0.0, seconds / best - 1.0) : 0.0;
  if (config_.window == 0) return;
  if (regrets_.size() < config_.window) {
    regrets_.push_back(regret);
  } else {
    regret_sum_ -= regrets_[regret_next_];
    regrets_[regret_next_] = regret;
    regret_next_ = (regret_next_ + 1) % config_.window;
  }
  regret_sum_ += regret;

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    return;
  }
  if (regrets_.size() >= config_.min_samples && mean_regret() > config_.regret_threshold) {
    fire_pending_ = true;
    ++fires_;
    cooldown_left_ = config_.cooldown;
    regrets_.clear();  // keeps capacity: refilling the window stays alloc-free
    regret_next_ = 0;
    regret_sum_ = 0.0;
  }
}

bool DriftDetector::consume_fire() noexcept {
  const bool fired = fire_pending_;
  fire_pending_ = false;
  return fired;
}

double DriftDetector::mean_regret() const noexcept {
  return regrets_.empty() ? 0.0 : regret_sum_ / static_cast<double>(regrets_.size());
}

void DriftDetector::rearm() noexcept {
  regrets_.clear();
  regret_next_ = 0;
  regret_sum_ = 0.0;
  cooldown_left_ = 0;
  fire_pending_ = false;
}

}  // namespace apollo::online
