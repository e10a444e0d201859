#pragma once

// The Mode::Adapt control loop: buffer -> drift -> retrain -> hot-swap.
//
// The paper's conclusion anticipates "dynamically updating models based on
// the behavior of the application" for shifting inputs and larger parameter
// spaces; this subsystem closes that loop inside a running process. Per
// launch (all on the application thread, all cheap):
//
//   1. the Explorer occasionally substitutes a non-predicted variant so the
//      sample buffer keeps covering the label space (drift-aware: the rate
//      is boosted between a drift firing and the next hot-swap);
//   2. the executed variant's measured runtime feeds the kernel's evidence
//      table, and a predicted launch's regret against the table's best
//      feeds its DriftDetector, both when the launching thread's lane of
//      the kernel folds its batch (KernelShard); explored launches also
//      land in the SampleBuffer, plus every sample_stride-th predicted
//      launch of each kernel on each thread;
//   3. when drift fires (or a launch-count cadence elapses), the Retrainer
//      fits fresh models from the buffer on a background thread;
//   4. the result is published to the ModelRegistry; the Runtime notices the
//      new version at the next begin() and hot-swaps its compiled models.
//
// Exploration is cost-guarded: a candidate variant whose decayed runtime in
// this feature bucket is already known to be far worse than the best is
// vetoed, except for a periodic re-probe that notices when it becomes good
// again. This bounds the steady-state price of staying adaptive.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ml/decision_tree.hpp"
#include "online/drift_detector.hpp"
#include "online/explorer.hpp"
#include "online/kernel_shard.hpp"
#include "online/model_registry.hpp"
#include "online/retrainer.hpp"
#include "online/sample_buffer.hpp"

namespace apollo::online {

struct OnlineConfig {
  /// Record every Nth predicted launch of each kernel on each thread into
  /// the sample buffer (explored launches are always recorded). Keeps the
  /// adapt-mode forall hot path within a few percent of Tune mode.
  std::size_t sample_stride = 16;
  /// Buffer samples required before any retrain is attempted.
  std::size_t min_retrain_samples = 64;
  /// New samples to gather between a drift firing and the retrain it
  /// requests, so the buffer has re-covered the shifted region.
  std::size_t post_drift_samples = 48;
  /// Retrain every N launches regardless of drift (0 = drift-driven only).
  /// Launches reach the cadence count when their lane folds, so a cadence
  /// retrain may start up to 15 launches per kernel and thread late.
  std::uint64_t retrain_every = 0;
  /// Newest samples handed to each retrain (0 = whole buffer). Bounds the
  /// per-retrain training cost independently of buffer capacity.
  std::size_t retrain_window = 2048;
  /// Maximum fraction of wall time cadence-driven retraining may consume
  /// (0 = unthrottled). After a retrain that took T seconds, the next
  /// cadence retrain waits at least T/duty. Matters most on machines with
  /// few cores, where the background thread competes with the application.
  /// Drift-triggered retrains bypass the throttle — recovery latency wins.
  double max_retrain_duty = 0.05;
  /// Veto exploring a variant whose bucket baseline exceeds this multiple of
  /// the bucket's best (0 = no guard) ...
  double explore_cost_guard = 3.0;
  /// ... except every Nth exploration of a kernel, which ignores the guard
  /// (re-probe).
  std::uint64_t reprobe_stride = 8;
  /// Persist every published model generation here ("" = no persistence).
  std::string model_dir;
  ml::TreeParams tree_params;
  DriftConfig drift;
  ExplorerConfig explorer;
};

/// Threading contract: the per-launch methods (maybe_explore, observe,
/// observe_probe, maybe_retrain, on_models_swapped) may be called from any
/// number of application threads at once. Each kernel's state lives in its
/// KernelShard behind that kernel's own lock, and a launch reaches it
/// through its thread's lane of the kernel, which takes the kernel's lock
/// once per batch (the exploration draw counter is atomic, so a draw
/// without a candidate takes no lock). The tuner-wide retrain trigger is
/// atomic, and the retrain request path is try-locked, so a thread that
/// finds another one requesting skips instead of waiting. No per-launch
/// call takes a process-wide lock; a fold writes the cadence count, and a
/// drift fire the trigger. configure() and destruction must not run
/// concurrently with per-launch calls. The registry and sample buffer are
/// internally thread-safe (the background Retrainer reads them directly).
///
/// Lock order: the runtime's online mutex, then a lane, then the kernel's
/// mutex, then the list of attached shards (a leaf).
class OnlineTuner {
public:
  /// `buffer` is the runtime's live sample sink; not owned.
  explicit OnlineTuner(SampleBuffer* buffer, OnlineConfig config = {});

  /// Replace the configuration (waits for any in-flight retrain) and restart
  /// every kernel's adaptation state. When model_dir is set, the newest
  /// persisted generation is restored so a restarted process resumes from
  /// its last good models.
  void configure(OnlineConfig config);
  [[nodiscard]] const OnlineConfig& config() const noexcept { return config_; }

  [[nodiscard]] ModelRegistry& registry() noexcept { return registry_; }
  [[nodiscard]] Explorer& explorer() noexcept { return explorer_; }
  [[nodiscard]] Retrainer& retrainer() noexcept { return retrainer_; }

  /// Exploration decision for this launch of `shard`'s kernel (cost-guarded
  /// epsilon-greedy). The guard reads the kernel's evidence table: a
  /// candidate whose decayed runtime in this bucket exceeds
  /// explore_cost_guard x the bucket's best is vetoed, except for the
  /// periodic re-probe.
  [[nodiscard]] std::optional<Variant> maybe_explore(KernelShard& shard, std::uint64_t bucket);

  /// Stage one finished launch in the calling thread's lane of the kernel.
  /// The lane folds its batch into the kernel's evidence table, its drift
  /// detection and the retrain triggers when it fills; with `score`
  /// (telemetry on), a predicted launch is also scored into the kernel's
  /// quality totals. Returns true when the launch should be recorded into
  /// the sample buffer: always when explored, else every sample_stride-th
  /// predicted launch of this kernel on this thread.
  [[nodiscard]] bool observe(KernelShard& shard, std::uint64_t bucket, const Variant& executed,
                             double seconds, bool explored, bool score);

  /// Feed a ground-truth probe: `variant` was timed for this bucket but not
  /// executed for the application, so it refreshes the kernel's evidence
  /// (and counts as a probe) without counting as a launch or arming the
  /// retrain triggers.
  void observe_probe(KernelShard& shard, std::uint64_t bucket, const Variant& variant,
                     double seconds);

  /// Kick a background retrain when due (drift fired and enough fresh
  /// samples arrived, or the launch-count cadence elapsed). Never blocks.
  void maybe_retrain();

  /// The runtime noticed a new registry version and swapped its compiled
  /// models: fold the launches the old models decided into the old windows,
  /// then re-arm the detectors and end the boosted-exploration episode.
  void on_models_swapped();

  /// Fold every lane of every attached kernel. Readers of the state folds
  /// write (evidence, quality totals, detectors, counts) call this first.
  void fold_lanes();

  struct Status {
    std::uint64_t model_version = 0;
    std::uint64_t drift_fires = 0;
    std::uint64_t retrains_completed = 0;
    std::uint64_t retrains_failed = 0;
    /// Explorer candidates drawn, vetoed ones included.
    std::uint64_t explorations = 0;
    std::uint64_t exploration_vetoes = 0;
    std::uint64_t launches = 0;
    /// Loop id and drift fires of each kernel that fired since configure().
    std::vector<std::pair<std::string, std::uint64_t>> drift_fires_by_kernel;
    bool retrain_in_flight = false;
    bool exploring_boosted = false;
  };
  /// Folds every lane, then sums the per-kernel counts (takes each
  /// kernel's lock in turn).
  [[nodiscard]] Status status();

  /// Block until no retrain is in flight (tests, benchmarks, shutdown).
  void wait_retrain_idle() { retrainer_.wait_idle(); }

private:
  /// Bring `shard` up to this configuration when it is stale (takes its
  /// lock then).
  void attach(KernelShard& shard);
  /// Bring `shard` (whose lock the caller holds) up to this configuration,
  /// resetting and registering it on its first use since configure().
  void attach_locked(KernelShard& shard);
  /// Fold `lane`'s pending launches into `shard` (the caller holds the
  /// lane's lock; takes the kernel's), then act on any drift fire.
  void fold_locked(KernelShard& shard, KernelShard::Lane& lane);
  /// Fold every lane of one attached shard.
  void fold_shard_lanes(KernelShard& shard);
  /// Every shard attached under the current configuration.
  [[nodiscard]] std::vector<KernelShard*> attached_shards() const;

  OnlineConfig config_;
  SampleBuffer* buffer_;
  ModelRegistry registry_;
  Explorer explorer_;
  /// Tags the shards and lanes this configuration has reset (see
  /// KernelShard).
  std::uint64_t incarnation_ = 0;

  /// Leaf lock: never held while taking a shard lock.
  mutable std::mutex shards_mutex_;
  std::vector<KernelShard*> shards_;  ///< shards_mutex_

  // Retrain triggers, written by whichever application thread trips them.
  std::atomic<std::uint64_t> drift_fires_{0};
  std::atomic<bool> retrain_pending_{false};
  std::atomic<std::uint64_t> pushed_at_fire_{0};
  std::atomic<std::uint64_t> cadence_launches_{0};
  /// Try-locked by maybe_retrain: one thread issues a request at a time.
  std::mutex request_mutex_;
  std::chrono::steady_clock::time_point last_request_{};  ///< request_mutex_

  /// Declared last: destroying it joins any in-flight retrain while the
  /// registry above is still alive for the publish callback.
  Retrainer retrainer_;
};

}  // namespace apollo::online
