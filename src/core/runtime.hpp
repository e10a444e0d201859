#pragma once

// The Apollo runtime: the begin/end hooks around every RAJA loop (§III,
// Fig. 5). One of two components is active per run:
//
//   Recorder — executes the launch, measures it, and appends a training
//              sample (kernel + instruction + application features, the
//              parameter values used, and the runtime);
//   Tuner    — evaluates the loaded decision models on the launch's feature
//              vector and selects the execution policy / chunk size.
//
// Mode Off executes with the kernel's static default policy — the baseline
// configurations the paper compares against. The same executable runs in any
// mode (env var APOLLO_MODE or API), and models load from files at runtime,
// so retraining never requires recompilation.
//
// Mode Adapt (extension, see docs/online-tuning.md) is the Tuner plus the
// src/online adaptation loop: launches feed a bounded SampleBuffer, per-kernel
// drift detection triggers background retrains, and freshly trained models
// hot-swap in via the versioned ModelRegistry — the "dynamically updating
// models" direction from the paper's conclusion, closed inside one process.
//
// Layering (see docs/architecture.md): the Runtime is a facade. Per-kernel
// state — the stats shard, cached telemetry handles, the evidence table and
// quality totals, the probe rotor — lives in KernelContext (resolved once per call site, cached
// on the KernelHandle as an atomic pointer). Models live in an immutable
// ModelSnapshot published by atomic pointer swap. Application attributes the
// cost model needs (problem name, timestep) come from a thread-local view of
// the Blackboard, refreshed only when its generation changes. The
// steady-state dispatch path therefore takes no process-wide lock, writes no
// process-wide counter and looks up no map: concurrent application threads
// launching different kernels never serialize, and launches of the same
// kernel contend only on that kernel's atomics (plus its one mutex when
// telemetry is on or in Mode::Adapt).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/kernel.hpp"
#include "core/kernel_context.hpp"
#include "core/model_params.hpp"
#include "core/model_snapshot.hpp"
#include "core/tuner_model.hpp"
#include "online/online_tuner.hpp"
#include "online/sample_buffer.hpp"
#include "perf/record.hpp"
#include "perf/timer.hpp"
#include "raja/env_policy.hpp"
#include "raja/forall.hpp"
#include "raja/index_set.hpp"
#include "raja/policy_switcher.hpp"
#include "sim/machine.hpp"
#include "telemetry/telemetry.hpp"

namespace apollo {

class ClusterAccountant;

enum class Mode : std::uint8_t { Off, Record, Tune, Adapt };
enum class TimingSource : std::uint8_t { Model, Wallclock };

[[nodiscard]] const char* mode_name(Mode mode) noexcept;

/// How a recording run sets the tuned parameters.
struct TrainingConfig {
  /// When true (requires TimingSource::Model), one application execution
  /// records a sample for *every* parameter variant per launch — equivalent
  /// to the paper's one-run-per-value protocol on a deterministic app, at a
  /// fraction of the cost. When false, every launch runs `forced_policy` /
  /// `forced_chunk` and records exactly one sample (the paper's protocol).
  bool sweep_variants = true;
  raja::PolicyType forced_policy = raja::PolicyType::seq_segit_omp_parallel_for_exec;
  std::int64_t forced_chunk = 0;
  /// Chunk sizes recorded for the OpenMP variant (paper: 1..1024).
  std::vector<std::int64_t> chunk_values = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};
  /// OpenMP team sizes recorded at the default schedule (extension; empty =
  /// team-size sweep disabled).
  std::vector<unsigned> thread_values = {};
};

/// Aggregated run statistics, built on demand from the per-kernel shards
/// (stats() returns a consistent point-in-time copy, not a live reference).
struct RunStats {
  double total_seconds = 0.0;
  std::int64_t invocations = 0;
  /// Keyed by loop_id; heterogeneous comparator so lookups never copy keys.
  std::map<std::string, KernelStats, std::less<>> per_kernel;
  /// Time spent evaluating models per tuned launch (Tune/Adapt modes),
  /// merged from every kernel's shard. Histogram buckets replace the old
  /// mean-only view: stats_report prints p50/p95/p99 from here.
  telemetry::Histogram decision_latency{telemetry::duration_bounds()};
};

class Runtime {
public:
  /// Process-wide instance. Initial mode comes from APOLLO_MODE
  /// (off|record|tune) when set.
  static Runtime& instance();

  // --- configuration -------------------------------------------------------
  void set_mode(Mode mode) noexcept { mode_.store(mode, std::memory_order_relaxed); }
  [[nodiscard]] Mode mode() const noexcept { return mode_.load(std::memory_order_relaxed); }

  void set_timing_source(TimingSource source) noexcept { timing_ = source; }
  [[nodiscard]] TimingSource timing_source() const noexcept { return timing_; }

  void set_machine(sim::MachineModel machine) { machine_ = machine; }
  [[nodiscard]] const sim::MachineModel& machine() const noexcept { return machine_; }

  /// OpenMP team size assumed by the machine model (defaults to all cores).
  void set_threads(unsigned threads) noexcept { threads_ = threads; }
  [[nodiscard]] unsigned threads() const noexcept;

  void set_training_config(TrainingConfig config) { training_ = std::move(config); }
  [[nodiscard]] const TrainingConfig& training_config() const noexcept { return training_; }

  /// Override every kernel's static default policy (the paper's "OpenMP
  /// everywhere" baseline). nullopt restores per-kernel defaults.
  void set_default_policy_override(std::optional<raja::PolicyType> policy) noexcept {
    default_override_ = policy;
  }

  /// When false, apollo::forall executes every body sequentially while still
  /// *charging* the selected variant's modeled cost. Model-timed experiment
  /// harnesses use this so wall-clock does not depend on the host's thread
  /// count; it is invalid (and ignored) under wall-clock timing.
  void set_execute_selected(bool execute) noexcept { execute_selected_ = execute; }
  [[nodiscard]] bool execute_selected() const noexcept {
    return execute_selected_ || timing_ == TimingSource::Wallclock;
  }

  /// Per-site inline decision cache (default on; reset() turns it back on):
  /// tuned launches whose feature signature, model epoch, and blackboard
  /// generation all match the kernel's last decision reuse it — one load and
  /// one compare instead of a model evaluation. A hit returns exactly the
  /// parameters a fresh evaluation would; tests and benches switch the cache
  /// off to get that fresh evaluation as a reference.
  void set_inline_cache_enabled(bool enabled) noexcept {
    inline_cache_enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool inline_cache_enabled() const noexcept {
    return inline_cache_enabled_.load(std::memory_order_relaxed);
  }

  // --- models --------------------------------------------------------------
  // Each setter compiles the model and publishes a fresh immutable
  // ModelSnapshot by atomic swap; in-flight launches keep reading the
  // snapshot they started with. A model for another parameter, or one with a
  // label its parameter cannot name, throws std::invalid_argument and leaves
  // the published snapshot as it was.
  void set_policy_model(TunerModel model);
  void set_chunk_model(TunerModel model);
  void set_threads_model(TunerModel model);
  void clear_models() noexcept;
  [[nodiscard]] bool has_policy_model() const noexcept;
  [[nodiscard]] bool has_chunk_model() const noexcept;
  [[nodiscard]] bool has_threads_model() const noexcept;
  /// The deployed policy model. Valid until the caller's next launch or
  /// model mutation on this thread (the thread-cached snapshot keeps it
  /// alive). Throws when no policy model is loaded.
  [[nodiscard]] const TunerModel& policy_model() const;

  void load_policy_model_file(const std::string& path) { set_policy_model(TunerModel::load_file(path)); }
  void load_chunk_model_file(const std::string& path) { set_chunk_model(TunerModel::load_file(path)); }

  // --- per-kernel contexts --------------------------------------------------
  /// Resolve (and cache on the handle) the kernel's context. The first call
  /// per handle takes the context-map lock; every later call is one atomic
  /// load.
  [[nodiscard]] KernelContext& context_for(const KernelHandle& kernel) {
    if (KernelContext* context = kernel.cached_context()) return *context;
    KernelContext& context = context_for_id(kernel.loop_id());
    kernel.cache_context(&context);
    return context;
  }
  /// Resolve a context by loop id (creating it on first use). Contexts are
  /// never destroyed, so the returned reference stays valid for the process
  /// lifetime.
  [[nodiscard]] KernelContext& context_for_id(std::string_view loop_id);

  // --- results -------------------------------------------------------------
  /// Point-in-time aggregate of every kernel shard, decision latencies
  /// included. Safe to call while other threads launch (their charges land
  /// in the shards; this reads a relaxed snapshot).
  [[nodiscard]] RunStats stats() const;
  /// Zero every shard, decision-latency histograms included. Safe to call
  /// concurrently with launches (in-flight charges land in the zeroed
  /// counters, never in freed memory).
  void reset_stats() noexcept;

  /// Oldest-first copy of the buffered training samples. (The live buffer is
  /// bounded and shared with the background retrainer, so callers get a
  /// stable snapshot rather than a reference.)
  [[nodiscard]] std::vector<perf::SampleRecord> records() const { return records_.snapshot(); }
  [[nodiscard]] std::size_t record_count() const { return records_.size(); }
  void clear_records() { records_.clear(); }
  /// Bounded ring buffer backing records(); exposed for capacity control.
  [[nodiscard]] online::SampleBuffer& sample_buffer() noexcept { return records_; }
  /// Append all buffered records to `path` and clear the buffer.
  void flush_records(const std::string& path);

  // --- online adaptation (Mode::Adapt) --------------------------------------
  /// The adaptation loop (created on first use; shares the sample buffer).
  /// Creation is thread-safe, and the tuner's per-launch methods are safe
  /// from any number of threads (each kernel's state sits behind its own
  /// lock). configure_online() and reset() must not race with Adapt
  /// launches.
  [[nodiscard]] online::OnlineTuner& online();
  /// Replace the adaptation configuration (waits for in-flight retrains).
  void configure_online(online::OnlineConfig config);
  [[nodiscard]] bool has_online() const noexcept {
    return online_ptr_.load(std::memory_order_acquire) != nullptr;
  }

  // --- model quality (telemetry on, Tune/Adapt modes) -----------------------
  /// Per-kernel quality counters: online accuracy vs the best-known variant,
  /// cumulative regret seconds, probe counts, and predicted-vs-observed
  /// calibration. Sorted by kernel name; empty until a tuned launch ran with
  /// telemetry enabled.
  [[nodiscard]] std::vector<std::pair<std::string, online::KernelQuality>> quality_snapshot();
  /// Ground-truth probes launched (all kernels) and total regret charged.
  [[nodiscard]] std::uint64_t probe_count();
  [[nodiscard]] double regret_seconds_total();

  /// Mirror every kernel charge into a per-rank accountant (strong-scaling
  /// experiments). Pass nullptr to detach. Not owned.
  void set_cluster_accountant(ClusterAccountant* accountant) noexcept { accountant_ = accountant; }
  [[nodiscard]] ClusterAccountant* cluster_accountant() const noexcept { return accountant_; }

  /// Reset everything (mode, models, stats, records, counters). For tests.
  /// Kernel contexts are reset in place, never destroyed, so pointers cached
  /// on static KernelHandles stay valid across resets.
  void reset();

  // --- hooks (called by apollo::forall) -------------------------------------
  /// Decide execution parameters for this launch (and arm the stopwatch when
  /// measuring wall-clock).
  ModelParams begin(KernelContext& context, const KernelHandle& kernel,
                    const raja::IndexSet& iset);
  ModelParams begin(const KernelHandle& kernel, const raja::IndexSet& iset) {
    return begin(context_for(kernel), kernel, iset);
  }

  /// Account for a finished launch: charge stats and, in Record mode, emit
  /// training samples.
  void end(KernelContext& context, const KernelHandle& kernel, const raja::IndexSet& iset,
           const ModelParams& params);
  void end(const KernelHandle& kernel, const raja::IndexSet& iset, const ModelParams& params) {
    end(context_for(kernel), kernel, iset, params);
  }

  /// Account for a loop in a physics package that has NOT been ported to
  /// RAJA/Apollo (ARES only has one ported package): charges its modeled
  /// runtime to the stats (and cluster accountant) with no tuning decision
  /// and no training sample. No-op under wall-clock timing, where such work
  /// is already inside the measured interval. Callers on a steady path can
  /// resolve the context once via context_for_id and use the overload.
  void charge_external(const std::string& loop_id, const sim::CostQuery& query);
  void charge_external(KernelContext& context, const sim::CostQuery& query);

private:
  Runtime();
  ~Runtime();

  /// The thread's view of the current model snapshot (may be null). One
  /// relaxed epoch load per call in the steady state; the models mutex is
  /// taken only when a new snapshot was published since this thread's last
  /// look.
  [[nodiscard]] const std::shared_ptr<const ModelSnapshot>& current_models() const;
  /// Publish `next` as the current snapshot (bumps the epoch).
  void publish_models(std::shared_ptr<const ModelSnapshot> next);
  /// Build a new snapshot from the current one with one slot replaced.
  void replace_model(TunerModel model, TunedParameter parameter);

  /// Adapt hot-swap: one relaxed registry-version load per launch; on a new
  /// version, compile the registry snapshot and publish it (pointer store).
  /// Returns the snapshot this launch should decide with.
  const std::shared_ptr<const ModelSnapshot>& refresh_adapt_models();

  /// The online tuner, created on first use. Requires online_mutex_.
  [[nodiscard]] online::OnlineTuner& online_locked();

  /// Shared Tune/Adapt decision: consult the kernel's inline cache, evaluate
  /// whichever models `snapshot` holds on a miss, time the evaluation into
  /// the kernel's decision-latency histogram, and (telemetry on) arm the
  /// decide span + sampled introspection.
  void tuned_decision(KernelContext& context, const ModelSnapshot* snapshot, ModelParams& params,
                      const KernelHandle& kernel, const raja::IndexSet& iset, bool telem);
  void apply_models(const ModelSnapshot* snapshot, ModelParams& params,
                    const KernelHandle& kernel, const raja::IndexSet& iset);
  void maybe_capture_decision(const KernelContext& context, const ModelSnapshot& snapshot,
                              const ModelParams& params, const KernelHandle& kernel,
                              const raja::IndexSet& iset);

  /// The machine-model query pricing this launch under one variant.
  [[nodiscard]] sim::CostQuery make_query(const KernelContext& context, const KernelHandle& kernel,
                                          const raja::IndexSet& iset, raja::PolicyType policy,
                                          std::int64_t chunk, unsigned team = 0) const;
  /// Price `query` with noise drawn from the kernel's own sample-id stream.
  [[nodiscard]] double measure_seconds(KernelContext& context, const sim::CostQuery& query);
  void emit_record(const KernelHandle& kernel, const raja::IndexSet& iset,
                   raja::PolicyType policy, std::int64_t chunk, double seconds,
                   unsigned team = 0);

  /// Global strided probe budget: at most one true per `stride` calls across
  /// all kernels and threads, so the probe count stays within
  /// tuned launches / stride + 1 process-wide.
  [[nodiscard]] bool probe_due(std::size_t stride) noexcept {
    if (stride == 0) return false;
    return probe_tick_.fetch_add(1, std::memory_order_relaxed) % stride == 0;
  }

  // --- configuration (set before launching; not hot-path mutable) ----------
  std::atomic<Mode> mode_{Mode::Off};
  TimingSource timing_ = TimingSource::Model;
  sim::MachineModel machine_{};
  unsigned threads_ = 0;  // 0 = machine cores
  TrainingConfig training_{};
  std::optional<raja::PolicyType> default_override_;
  bool execute_selected_ = true;
  ClusterAccountant* accountant_ = nullptr;
  /// Atomic so tests may toggle it mid-run; the dispatch path reads it once
  /// per launch, relaxed.
  std::atomic<bool> inline_cache_enabled_{true};

  // --- model snapshot (RCU: epoch + mutex-guarded publish) ------------------
  mutable std::mutex models_mutex_;
  std::shared_ptr<const ModelSnapshot> models_;  ///< models_mutex_
  std::atomic<std::uint64_t> model_epoch_{1};
  /// Registry generation currently compiled (Adapt); reset by configure_online.
  std::atomic<std::uint64_t> adapt_version_{0};

  // --- per-kernel contexts --------------------------------------------------
  mutable std::mutex contexts_mutex_;
  /// Node-based and append-only: context addresses are stable for the
  /// process lifetime. Heterogeneous comparator: lookups by string_view.
  std::map<std::string, std::unique_ptr<KernelContext>, std::less<>> contexts_;

  online::SampleBuffer records_{online::kDefaultSampleCapacity};
  std::atomic<std::uint64_t> probe_tick_{0};

  // --- online adaptation ----------------------------------------------------
  /// Guards creation and teardown of the tuner. The dispatch path never
  /// takes it once the tuner exists.
  std::mutex online_mutex_;
  std::unique_ptr<online::OnlineTuner> online_;  ///< online_mutex_ (creation)
  std::atomic<online::OnlineTuner*> online_ptr_{nullptr};
};

namespace detail {

/// Execute one decided launch through the static-policy trampoline dispatch:
/// the run step of forall, between its begin and end hooks.
template <typename Body>
void execute_decided(Runtime& runtime, const ModelParams& params, const raja::IndexSet& iset,
                     Body& body) {
  if (runtime.execute_selected()) {
    raja::apollo::policySwitcher(params.policy, params.chunk_size, [&](auto exec) {
      if constexpr (std::is_same_v<decltype(exec), raja::omp_parallel_for_exec>) {
        exec.threads = params.threads;
      }
      raja::forall(exec, iset, body);
    });
  } else {
    raja::forall(raja::seq_exec{}, iset, body);
  }
}

}  // namespace detail

/// The application-facing execution method: decide, run, account. The
/// kernel's context is resolved once (atomic handle cache) and passed through
/// both hooks.
template <typename Body>
void forall(const KernelHandle& kernel, const raja::IndexSet& iset, Body&& body) {
  auto& runtime = Runtime::instance();
  KernelContext& context = runtime.context_for(kernel);
  const ModelParams params = runtime.begin(context, kernel, iset);
  detail::execute_decided(runtime, params, iset, body);
  runtime.end(context, kernel, iset, params);
}

/// Convenience overload for a contiguous [0, n) range.
template <typename Body>
void forall(const KernelHandle& kernel, raja::Index n, Body&& body) {
  forall(kernel, raja::IndexSet::range(0, n), std::forward<Body>(body));
}

}  // namespace apollo
