#pragma once

// Per-kernel runtime state. Every call site resolves its KernelContext once
// (cached on the KernelHandle as an atomic pointer), and from then on each
// launch touches only this shard:
//
//   - the stats shard (seconds / invocations / launch-runtime histogram /
//     decision-latency histogram / inline-cache hits and misses) is charged
//     with relaxed atomics into the launching thread's cache-line-aligned
//     stripe — the steady-state dispatch path takes no lock, looks up no
//     map, and threads launching the same kernel write different lines;
//   - the machine model's noise sample ids come from a per-kernel counter,
//     so a kernel's model-charged seconds do not depend on how threads
//     interleave;
//   - the probe rotor cycles ground-truth probes round-robin over the
//     non-executed variants of this kernel;
//   - the online shard (online::KernelShard) holds the kernel's one mutex,
//     its evidence table (decayed runtimes per feature bucket and variant),
//     its quality totals and its Mode::Adapt state; the same mutex guards
//     the telemetry handle cache below (interned trace name, per-variant
//     dispatch counters, decision-latency histogram, quality gauges). Two
//     threads launching *different* kernels never contend, and a launch
//     takes the mutex only with telemetry on or in Adapt mode.
//
// Contexts are created on first use and then live for the process lifetime
// (Runtime::reset() clears their state in place), so pointers cached on
// static KernelHandles never dangle.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/model_params.hpp"
#include "online/kernel_shard.hpp"
#include "telemetry/metrics.hpp"

namespace apollo {

/// Stripes per kernel of the per-launch counters: threads alive at the same
/// time hold distinct stripes up to this many, later ones share.
inline constexpr std::uint32_t kStatsStripes = 8;

namespace detail {
inline constexpr std::uint32_t kNoStatsStripe = ~std::uint32_t{0};
/// This thread's stripe, claimed on its first launch.
inline thread_local std::uint32_t t_stats_stripe = kNoStatsStripe;
/// Claim the lowest stripe no live thread holds (round-robin once all are
/// held), remember it in t_stats_stripe, and free it when the thread exits.
std::uint32_t claim_stats_stripe() noexcept;
}  // namespace detail

/// Value-semantic copy of one kernel's stats shard.
struct KernelStats {
  double seconds = 0.0;
  std::int64_t invocations = 0;
  /// Per-launch runtime distribution (always on; atomic bucket increments).
  telemetry::Histogram launch_seconds{telemetry::duration_bounds()};
};

class KernelContext {
public:
  explicit KernelContext(std::string loop_id)
      : loop_id_(std::move(loop_id)), kernel_seed_(std::hash<std::string>{}(loop_id_)) {}
  KernelContext(const KernelContext&) = delete;
  KernelContext& operator=(const KernelContext&) = delete;

  [[nodiscard]] const std::string& loop_id() const noexcept { return loop_id_; }
  /// Hash of the loop id: the machine model's kernel identity.
  [[nodiscard]] std::uint64_t kernel_seed() const noexcept { return kernel_seed_; }

  // --- stats shard (lock-free, striped by thread) ---------------------------
  void charge(double seconds) noexcept {
    StatsStripe& stripe = this_thread_stripe();
    stripe.seconds.fetch_add(seconds, std::memory_order_relaxed);
    stripe.invocations.fetch_add(1, std::memory_order_relaxed);
    stripe.launch_seconds.observe(seconds);
  }
  /// The getters below sum the stripes (relaxed loads).
  [[nodiscard]] std::int64_t invocations() const noexcept {
    return sum_stripes(&StatsStripe::invocations);
  }
  [[nodiscard]] KernelStats stats_snapshot() const;
  /// Zero seconds, invocations and both histograms in every stripe.
  void reset_stats() noexcept;

  /// Time one tuned decision took (Tune/Adapt; merged by Runtime::stats()).
  void observe_decision(double seconds) noexcept {
    this_thread_stripe().decision_latency.observe(seconds);
  }
  [[nodiscard]] telemetry::Histogram decision_latency() const;

  /// Id of this kernel's next machine-model measurement: its own counter,
  /// spread over the id space by the kernel seed (a splitmix64 stream), so
  /// the noise one kernel draws is independent of other kernels' launches.
  [[nodiscard]] std::uint64_t next_sample_id() noexcept {
    return kernel_seed_ +
           noise_draws_.fetch_add(1, std::memory_order_relaxed) * 0x9e3779b97f4a7c15ULL;
  }

  /// The kernel's lock, evidence table, quality totals and Mode::Adapt state.
  [[nodiscard]] online::KernelShard& online_shard() noexcept { return online_shard_; }

  // --- telemetry (online_shard().mutex()) -----------------------------------
  /// Cached metric handles: interned name, per-variant dispatch counters,
  /// decision-latency histogram, quality gauges. Registry lookups are paid
  /// once per kernel (and once per new variant), never per launch.
  struct TelemetryHandles {
    const char* name = nullptr;
    telemetry::Histogram* decision_seconds = nullptr;
    telemetry::Gauge* accuracy = nullptr;        ///< apollo_model_accuracy
    telemetry::Gauge* regret_seconds = nullptr;  ///< apollo_regret_seconds_total
    std::vector<std::pair<std::uint64_t, telemetry::Counter*>> variants;
  };

  /// Handle cache, resolved lazily on the first telemetry-on launch.
  /// Requires online_shard().mutex().
  [[nodiscard]] TelemetryHandles& telemetry_locked();
  /// The dispatch counter for this launch's executed variant. Requires
  /// online_shard().mutex().
  [[nodiscard]] telemetry::Counter& variant_counter_locked(const ModelParams& params);

  /// Probe rotor: the next slot in this kernel's round-robin over candidate
  /// probe variants. Lock-free.
  [[nodiscard]] std::uint64_t next_probe_slot() noexcept {
    return probe_rotor_.fetch_add(1, std::memory_order_relaxed);
  }

  // --- per-site inline cache (lock-free seqlock entries) --------------------
  // A small direct-mapped cache remembering recent tuned decisions at this
  // call site, keyed by a hash that folds in the launch's feature signature,
  // the published model epoch, and the blackboard generation — so a hot-swap
  // or an application attribute change invalidates it for free (the key
  // simply never matches again). Iteration-stable kernels thus pay one load
  // and one compare per launch instead of a model evaluation. The slots let
  // one call site's recent shapes live side by side: a kernel cycling a few
  // problem sizes, or one launch per material region. The slot comes from
  // the top bits of a multiplicative hash of the key, which every key bit
  // feeds: the key's low bits alone do not tell apart range launches whose
  // sizes differ only in higher bits (every size that is a multiple of 16
  // has the same low four).
  //
  // Each entry is a seqlock: `version` is even when stable; writers CAS it
  // even→odd, store key/packed, then publish even+2. Readers that observe an
  // odd or changed version treat the entry as a miss. Every field is an
  // atomic, and key/packed are stored with release and loaded with acquire:
  // a reader that loads either word from a writer also sees that writer's
  // odd version, or a later one, on its re-check, so a torn pair is never
  // returned as a hit. No fence is involved, so ThreadSanitizer checks this
  // ordering too; on x86-64 the release stores and acquire loads are plain
  // moves.

  static constexpr unsigned kInlineCacheBits = 4;
  static constexpr std::size_t kInlineCacheEntries = std::size_t{1} << kInlineCacheBits;

  /// Look up the cached decision for `key` (never 0). On a hit, `packed_out`
  /// receives the stored decision word. Counts the hit/miss either way.
  [[nodiscard]] bool inline_cache_lookup(std::uint64_t key, std::uint64_t& packed_out) noexcept {
    InlineCacheEntry& entry = cache_[inline_cache_slot(key)];
    const std::uint32_t v0 = entry.version.load(std::memory_order_acquire);
    if ((v0 & 1u) == 0u && entry.key.load(std::memory_order_acquire) == key) {
      const std::uint64_t packed = entry.packed.load(std::memory_order_acquire);
      if (entry.version.load(std::memory_order_relaxed) == v0) {
        packed_out = packed;
        this_thread_stripe().cache_hits.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
    this_thread_stripe().cache_misses.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Publish a decision for `key`. Lossy under contention by design: if
  /// another writer holds the entry, the store is skipped — the next launch
  /// re-evaluates, which is always correct.
  void inline_cache_store(std::uint64_t key, std::uint64_t packed) noexcept {
    InlineCacheEntry& entry = cache_[inline_cache_slot(key)];
    std::uint32_t v = entry.version.load(std::memory_order_relaxed);
    if ((v & 1u) != 0u) return;
    if (!entry.version.compare_exchange_strong(v, v + 1, std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      return;
    }
    entry.key.store(key, std::memory_order_release);
    entry.packed.store(packed, std::memory_order_release);
    entry.version.store(v + 2, std::memory_order_release);
  }

  /// Summed over the stripes; zeroed by reset(), not by reset_stats().
  [[nodiscard]] std::int64_t inline_cache_hits() const noexcept {
    return sum_stripes(&StatsStripe::cache_hits);
  }
  [[nodiscard]] std::int64_t inline_cache_misses() const noexcept {
    return sum_stripes(&StatsStripe::cache_misses);
  }

  /// Reset every counter in place (stats, rotor, noise ids), clear the
  /// evidence table and quality totals, and drop the telemetry handle cache
  /// so it re-resolves after a telemetry reconfigure. The context itself —
  /// and any pointer cached on a KernelHandle — stays valid.
  void reset();

private:
  /// One thread stripe of the per-launch counters, on its own cache lines.
  struct alignas(64) StatsStripe {
    std::atomic<double> seconds{0.0};
    std::atomic<std::int64_t> invocations{0};
    std::atomic<std::int64_t> cache_hits{0};
    std::atomic<std::int64_t> cache_misses{0};
    telemetry::DurationCounts launch_seconds;
    telemetry::DurationCounts decision_latency;
  };

  [[nodiscard]] StatsStripe& this_thread_stripe() noexcept {
    const std::uint32_t stripe = detail::t_stats_stripe;
    return stripes_[stripe != detail::kNoStatsStripe ? stripe : detail::claim_stats_stripe()];
  }
  [[nodiscard]] std::int64_t sum_stripes(
      std::atomic<std::int64_t> StatsStripe::*counter) const noexcept;

  [[nodiscard]] static std::size_t inline_cache_slot(std::uint64_t key) noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> (64 - kInlineCacheBits));
  }

  // Read on every launch, written only on inline-cache misses.
  const std::string loop_id_;
  const std::uint64_t kernel_seed_;
  struct InlineCacheEntry {
    std::atomic<std::uint32_t> version{0};  ///< seqlock; even = stable
    std::atomic<std::uint64_t> key{0};      ///< 0 = empty (keys are never 0)
    std::atomic<std::uint64_t> packed{0};
  };
  InlineCacheEntry cache_[kInlineCacheEntries];

  // Written by every launch of this kernel (model timing / Adapt mode), so
  // kept off the lines above.
  alignas(64) std::atomic<std::uint64_t> noise_draws_{0};
  alignas(64) online::KernelShard online_shard_{loop_id_, kernel_seed_};

  bool telemetry_ready_ = false;  ///< online_shard_.mutex()
  TelemetryHandles telemetry_;    ///< online_shard_.mutex()
  std::atomic<std::uint64_t> probe_rotor_{0};

  StatsStripe stripes_[kStatsStripes];
};

}  // namespace apollo
