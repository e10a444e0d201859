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
//     the telemetry-on launch counts per executed variant. Two threads
//     launching *different* kernels never contend, and a launch takes the
//     mutex only with telemetry on, or in Adapt mode once per batch of its
//     thread's lane of the shard.
//
// The metrics exposition reads these counts where they are kept
// (Runtime::render_metrics); the context holds no copy of its own.
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
#include "online/explorer.hpp"
#include "online/kernel_shard.hpp"
#include "parallel/thread_slot.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace apollo {

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
      : loop_id_(std::move(loop_id)),
        kernel_seed_(std::hash<std::string>{}(loop_id_)),
        trace_name_(telemetry::Tracer::instance().intern(loop_id_)) {}
  KernelContext(const KernelContext&) = delete;
  KernelContext& operator=(const KernelContext&) = delete;

  [[nodiscard]] const std::string& loop_id() const noexcept { return loop_id_; }
  /// Hash of the loop id: the machine model's kernel identity.
  [[nodiscard]] std::uint64_t kernel_seed() const noexcept { return kernel_seed_; }
  /// The loop id interned for trace events.
  [[nodiscard]] const char* trace_name() const noexcept { return trace_name_; }

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
  /// Count one telemetry-on launch under its executed variant.
  void count_dispatch_locked(const online::Variant& executed);
  /// Telemetry-on launches per executed variant since reset(), in
  /// first-seen order.
  [[nodiscard]] const std::vector<std::pair<online::Variant, std::uint64_t>>& dispatches_locked()
      const noexcept {
    return dispatches_;
  }

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

  /// Reset every counter in place (stats, rotor, noise ids, inline-cache
  /// hits and misses, dispatch counts) and clear the evidence table and
  /// quality totals. The context itself — and any pointer cached on a
  /// KernelHandle — stays valid.
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
    return stripes_[par::thread_slot()];
  }
  [[nodiscard]] std::int64_t sum_stripes(
      std::atomic<std::int64_t> StatsStripe::*counter) const noexcept;

  [[nodiscard]] static std::size_t inline_cache_slot(std::uint64_t key) noexcept {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> (64 - kInlineCacheBits));
  }

  // Read on every launch, written only on inline-cache misses.
  const std::string loop_id_;
  const std::uint64_t kernel_seed_;
  const char* const trace_name_;
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

  std::vector<std::pair<online::Variant, std::uint64_t>> dispatches_;  ///< online_shard_.mutex()
  std::atomic<std::uint64_t> probe_rotor_{0};

  /// One stripe per thread slot (par::thread_slot).
  StatsStripe stripes_[par::kThreadSlots];
};

}  // namespace apollo
