#include "core/kernel_context.hpp"

namespace apollo {

std::int64_t KernelContext::sum_stripes(
    std::atomic<std::int64_t> StatsStripe::*counter) const noexcept {
  std::int64_t total = 0;
  for (const StatsStripe& stripe : stripes_) {
    total += (stripe.*counter).load(std::memory_order_relaxed);
  }
  return total;
}

KernelStats KernelContext::stats_snapshot() const {
  KernelStats stats;
  for (const StatsStripe& stripe : stripes_) {
    stats.seconds += stripe.seconds.load(std::memory_order_relaxed);
    stats.invocations += stripe.invocations.load(std::memory_order_relaxed);
    stripe.launch_seconds.add_to(stats.launch_seconds);
  }
  return stats;
}

telemetry::Histogram KernelContext::decision_latency() const {
  telemetry::Histogram latency{telemetry::duration_bounds()};
  for (const StatsStripe& stripe : stripes_) stripe.decision_latency.add_to(latency);
  return latency;
}

void KernelContext::reset_stats() noexcept {
  for (StatsStripe& stripe : stripes_) {
    stripe.seconds.store(0.0, std::memory_order_relaxed);
    stripe.invocations.store(0, std::memory_order_relaxed);
    stripe.launch_seconds.reset();
    stripe.decision_latency.reset();
  }
}

void KernelContext::count_dispatch_locked(const online::Variant& executed) {
  for (auto& [variant, launches] : dispatches_) {
    if (variant.key() == executed.key()) {
      ++launches;
      return;
    }
  }
  dispatches_.emplace_back(executed, 1);
}

void KernelContext::reset() {
  reset_stats();
  const std::lock_guard<std::mutex> lock(online_shard_.mutex());
  dispatches_.clear();
  online_shard_.clear_evidence_locked();
  probe_rotor_.store(0, std::memory_order_relaxed);
  noise_draws_.store(0, std::memory_order_relaxed);
  for (auto& entry : cache_) {
    entry.version.store(0, std::memory_order_relaxed);
    entry.key.store(0, std::memory_order_relaxed);
    entry.packed.store(0, std::memory_order_relaxed);
  }
  for (StatsStripe& stripe : stripes_) {
    stripe.cache_hits.store(0, std::memory_order_relaxed);
    stripe.cache_misses.store(0, std::memory_order_relaxed);
  }
}

}  // namespace apollo
