#include "core/kernel_context.hpp"

#include <bit>

#include "online/explorer.hpp"
#include "raja/policy.hpp"
#include "telemetry/trace.hpp"

namespace apollo {

namespace detail {

namespace {

constexpr std::uint64_t kAllStripes = (std::uint64_t{1} << kStatsStripes) - 1;
static_assert(kStatsStripes < 64);

/// One bit per stripe held by a live thread.
std::atomic<std::uint64_t> g_claimed_stripes{0};
std::atomic<std::uint32_t> g_shared_stripe{0};

/// Hands the thread's stripe back when the thread exits.
struct StripeClaim {
  std::uint64_t bit = 0;
  ~StripeClaim() { g_claimed_stripes.fetch_and(~bit, std::memory_order_relaxed); }
};
thread_local StripeClaim t_claim;

}  // namespace

std::uint32_t claim_stats_stripe() noexcept {
  std::uint64_t claimed = g_claimed_stripes.load(std::memory_order_relaxed);
  std::uint32_t stripe = 0;
  for (;;) {
    const std::uint64_t free = ~claimed & kAllStripes;
    if (free == 0) {
      stripe = g_shared_stripe.fetch_add(1, std::memory_order_relaxed) % kStatsStripes;
      break;
    }
    stripe = static_cast<std::uint32_t>(std::countr_zero(free));
    const std::uint64_t bit = std::uint64_t{1} << stripe;
    if (g_claimed_stripes.compare_exchange_weak(claimed, claimed | bit,
                                                std::memory_order_relaxed)) {
      t_claim.bit = bit;
      break;
    }
  }
  t_stats_stripe = stripe;
  return stripe;
}

}  // namespace detail

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

KernelContext::TelemetryHandles& KernelContext::telemetry_locked() {
  if (telemetry_ready_) return telemetry_;
  // First launch of this kernel with telemetry on: resolve and cache every
  // handle the per-launch path needs, so later launches pay atomics only.
  auto& registry = telemetry::MetricsRegistry::instance();
  telemetry_.name = telemetry::Tracer::instance().intern(loop_id_);
  const std::string label = "kernel=\"" + loop_id_ + "\"";
  telemetry_.decision_seconds =
      &registry.histogram("apollo_decision_seconds",
                          "Model-evaluation latency, sampled on the introspection stride.",
                          telemetry::duration_bounds(), label);
  telemetry_.accuracy = &registry.gauge(
      "apollo_model_accuracy",
      "Share of scored tuned launches whose variant matched the best-known.", label);
  telemetry_.regret_seconds = &registry.gauge(
      "apollo_regret_seconds_total",
      "Cumulative seconds lost versus the best-known variant per kernel.", label);
  telemetry_ready_ = true;
  return telemetry_;
}

telemetry::Counter& KernelContext::variant_counter_locked(const ModelParams& params) {
  TelemetryHandles& entry = telemetry_locked();
  const std::uint64_t key = online::Variant{params.policy, params.chunk_size}.key();
  for (auto& [variant_key, counter] : entry.variants) {
    if (variant_key == key) return *counter;
  }
  std::string label = "kernel=\"" + loop_id_ + "\",variant=\"";
  label += raja::policy_name(params.policy);
  if (params.chunk_size > 0) label += "/c" + std::to_string(params.chunk_size);
  label += "\"";
  auto& counter = telemetry::MetricsRegistry::instance().counter(
      "apollo_dispatch_total", "Launches dispatched per kernel and executed variant.", label);
  entry.variants.emplace_back(key, &counter);
  return counter;
}

void KernelContext::reset() {
  reset_stats();
  const std::lock_guard<std::mutex> lock(online_shard_.mutex());
  telemetry_ready_ = false;
  telemetry_ = TelemetryHandles{};
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
