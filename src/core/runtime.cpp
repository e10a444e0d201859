#include "core/runtime.hpp"

#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/cluster_accountant.hpp"
#include "core/features.hpp"
#include "perf/blackboard.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/env.hpp"

namespace apollo {

namespace {

/// Telemetry state carried from begin() to end() on the launching thread.
/// A forall never nests, so one slot per thread suffices; the armed fields
/// are consumed (and cleared) by end().
struct PendingLaunch {
  std::uint64_t start_ns = 0;
  std::uint64_t decide_dur_ns = 0;
  /// ModelSnapshot::version of the snapshot this launch decided with: the
  /// generation its Decide span, decision record and probe record carry,
  /// whatever a concurrent hot-swap published before end().
  std::uint64_t generation = 0;
  /// The launch's decision record, filled by begin() when introspection
  /// (APOLLO_INTROSPECT_STRIDE) or the audit log (APOLLO_AUDIT_FILE) is due
  /// and completed by end().
  bool record_armed = false;
  telemetry::AuditRecord record;
};
thread_local PendingLaunch t_pending;

// Per-thread stride counter for decision introspection. Thread-local on
// purpose: a shared atomic would add cross-thread contention to every tuned
// launch, and per-thread phase drift does not bias a uniform stride sample.
thread_local std::uint64_t t_introspect_tick = 0;

/// This thread's view of the published model snapshot. The dispatch path
/// compares one relaxed epoch load against the cached epoch; the models
/// mutex is taken only in the launch after a publish — so the steady state
/// reads models with no lock and no shared-refcount traffic.
struct ThreadModelCache {
  std::uint64_t epoch = 0;
  std::shared_ptr<const ModelSnapshot> snapshot;
};
thread_local ThreadModelCache t_models;

/// Per-thread feature scratch for model evaluation (the tree reads a dense
/// double vector; reusing one allocation per thread keeps the decision path
/// allocation-free).
thread_local std::vector<double> t_features;

/// Per-thread wall-clock stopwatch for TimingSource::Wallclock (begin/end
/// always pair on the launching thread).
thread_local perf::Stopwatch t_stopwatch;

/// This thread's view of the Blackboard: the two attributes the cost model
/// reads (problem name, timestep) and the shared snapshot recorded samples
/// carry. Each part is refreshed only when the Blackboard generation moved
/// since this thread last looked, so the steady state takes no Blackboard
/// lock. A refresh loads the generation *before* reading the values, as
/// current_models() does: a write racing the refresh leaves values at least
/// as new as the recorded generation, and the next launch refreshes again
/// instead of keeping a stale view.
struct BlackboardView {
  std::uint64_t generation = ~std::uint64_t{0};
  std::uint64_t context_seed = 0;
  std::optional<double> epoch;
  std::uint64_t snapshot_generation = ~std::uint64_t{0};
  std::shared_ptr<const std::map<std::string, perf::Value>> snapshot;
};
thread_local BlackboardView t_board;

const BlackboardView& board_view() {
  const auto& board = perf::Blackboard::instance();
  const std::uint64_t generation = board.generation();
  if (t_board.generation != generation) {
    t_board.context_seed = 0;
    t_board.epoch.reset();
    if (const auto problem = board.get(features::kProblemName); problem && problem->is_string()) {
      t_board.context_seed = std::hash<std::string>{}(problem->as_string());
    }
    if (const auto step = board.get(features::kTimestep)) t_board.epoch = step->as_number();
    t_board.generation = generation;
  }
  return t_board;
}

std::shared_ptr<const std::map<std::string, perf::Value>> board_snapshot() {
  const auto& board = perf::Blackboard::instance();
  const std::uint64_t generation = board.generation();
  if (t_board.snapshot_generation != generation) {
    t_board.snapshot = board.snapshot_shared();
    t_board.snapshot_generation = generation;
  }
  return t_board.snapshot;
}

std::shared_ptr<const CompiledModel> compile_checked(TunerModel model, TunedParameter parameter,
                                                     const char* what) {
  if (model.parameter() != parameter) throw std::invalid_argument(what);
  return std::make_shared<const CompiledModel>(CompiledModel::compile(std::move(model)));
}

/// Finalizing mix for the inline-cache key (splitmix64): spreads the epoch
/// and generation bits so the entry index (low key bits) changes when either
/// does.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Fields a cached decision must carry to reproduce apply_models' output.
/// Packed into one 64-bit word: policy 8 | selection 16 | threads 12 |
/// chunk 28. pack returns false when a field exceeds its lane — that launch
/// simply is not cached.
bool pack_decision(const ModelParams& params, std::uint64_t& packed) noexcept {
  const auto policy = static_cast<std::uint64_t>(params.policy);
  const auto selection = static_cast<std::int64_t>(params.selection);
  const auto threads = static_cast<std::uint64_t>(params.threads);
  const auto chunk = params.chunk_size;
  if (selection < 0 || selection > 0xFFFF) return false;
  if (threads > 0xFFF) return false;
  if (chunk < 0 || chunk > 0xFFFFFFF) return false;
  packed = policy | (static_cast<std::uint64_t>(selection) << 8) | (threads << 24) |
           (static_cast<std::uint64_t>(chunk) << 36);
  return true;
}

void unpack_decision(std::uint64_t packed, ModelParams& params) noexcept {
  params.policy = static_cast<raja::PolicyType>(packed & 0xFF);
  params.selection = static_cast<int>((packed >> 8) & 0xFFFF);
  params.threads = static_cast<unsigned>((packed >> 24) & 0xFFF);
  params.chunk_size = static_cast<std::int64_t>((packed >> 36) & 0xFFFFFFF);
}

}  // namespace

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::Off: return "off";
    case Mode::Record: return "record";
    case Mode::Tune: return "tune";
    case Mode::Adapt: return "adapt";
  }
  return "?";
}

Runtime::Runtime() {
  telemetry::init_from_env();
  if (const char* env = std::getenv("APOLLO_MODE")) {
    const std::string value(env);
    if (value == "record") {
      mode_ = Mode::Record;
    } else if (value == "tune") {
      mode_ = Mode::Tune;
    } else if (value == "adapt") {
      mode_ = Mode::Adapt;
    }
  }
  const std::size_t capacity =
      telemetry::env_size("APOLLO_SAMPLE_CAPACITY", online::kDefaultSampleCapacity);
  if (capacity != online::kDefaultSampleCapacity) records_.set_capacity(capacity);
  // The paper's training protocol: re-run the same binary once per parameter
  // value, selected through the RAJA_POLICY / RAJA_CHUNK_SIZE environment
  // variables (SIII-A). An explicit policy disables sweep recording.
  if (const auto env_policy = raja::apollo::policy_from_env()) {
    training_.sweep_variants = false;
    training_.forced_policy = env_policy->policy;
    training_.forced_chunk = env_policy->chunk;
  }
}

Runtime::~Runtime() {
  // Joins any in-flight retrain while the sample buffer it reads is alive.
  const std::lock_guard<std::mutex> lock(online_mutex_);
  online_.reset();
}

Runtime& Runtime::instance() {
  static Runtime runtime;
  return runtime;
}

unsigned Runtime::threads() const noexcept {
  return threads_ > 0 ? threads_ : machine_.config().cores;
}

// --- model snapshot (RCU) ----------------------------------------------------

const std::shared_ptr<const ModelSnapshot>& Runtime::current_models() const {
  const std::uint64_t epoch = model_epoch_.load(std::memory_order_acquire);
  if (t_models.epoch != epoch) {
    const std::lock_guard<std::mutex> lock(models_mutex_);
    t_models.snapshot = models_;
    // Re-read under the lock: a publish between the load above and the lock
    // is folded into this refresh instead of triggering another one.
    t_models.epoch = model_epoch_.load(std::memory_order_relaxed);
  }
  return t_models.snapshot;
}

void Runtime::publish_models(std::shared_ptr<const ModelSnapshot> next) {
  const std::lock_guard<std::mutex> lock(models_mutex_);
  models_ = std::move(next);
  model_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::replace_model(TunerModel model, TunedParameter parameter) {
  const char* what = parameter == TunedParameter::Policy      ? "Runtime: not a policy model"
                     : parameter == TunedParameter::ChunkSize ? "Runtime: not a chunk-size model"
                                                              : "Runtime: not a team-size model";
  // Compile outside the lock; publication itself is a pointer swap.
  auto compiled = compile_checked(std::move(model), parameter, what);
  const std::lock_guard<std::mutex> lock(models_mutex_);
  auto next = models_ ? std::make_shared<ModelSnapshot>(*models_) : std::make_shared<ModelSnapshot>();
  switch (parameter) {
    case TunedParameter::Policy: next->policy = std::move(compiled); break;
    case TunedParameter::ChunkSize: next->chunk = std::move(compiled); break;
    case TunedParameter::Threads: next->threads = std::move(compiled); break;
  }
  models_ = std::move(next);
  model_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::set_policy_model(TunerModel model) {
  replace_model(std::move(model), TunedParameter::Policy);
}

void Runtime::set_chunk_model(TunerModel model) {
  replace_model(std::move(model), TunedParameter::ChunkSize);
}

void Runtime::set_threads_model(TunerModel model) {
  replace_model(std::move(model), TunedParameter::Threads);
}

void Runtime::clear_models() noexcept {
  publish_models(nullptr);
}

bool Runtime::has_policy_model() const noexcept {
  const auto& snapshot = current_models();
  return snapshot && snapshot->policy;
}

bool Runtime::has_chunk_model() const noexcept {
  const auto& snapshot = current_models();
  return snapshot && snapshot->chunk;
}

bool Runtime::has_threads_model() const noexcept {
  const auto& snapshot = current_models();
  return snapshot && snapshot->threads;
}

const TunerModel& Runtime::policy_model() const {
  const auto& snapshot = current_models();
  if (!snapshot || !snapshot->policy) throw std::logic_error("Runtime: no policy model loaded");
  return snapshot->policy->model();
}

// --- contexts ----------------------------------------------------------------

KernelContext& Runtime::context_for_id(std::string_view loop_id) {
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  auto it = contexts_.find(loop_id);
  if (it == contexts_.end()) {
    it = contexts_.emplace(std::string(loop_id),
                           std::make_unique<KernelContext>(std::string(loop_id)))
             .first;
  }
  return *it->second;
}

// --- records / online --------------------------------------------------------

void Runtime::flush_records(const std::string& path) {
  perf::append_records_file(path, records_.drain());
}

online::OnlineTuner& Runtime::online_locked() {
  if (!online_) {
    online_ = std::make_unique<online::OnlineTuner>(&records_);
    online_ptr_.store(online_.get(), std::memory_order_release);
  }
  return *online_;
}

online::OnlineTuner& Runtime::online() {
  if (online::OnlineTuner* tuner = online_ptr_.load(std::memory_order_acquire)) return *tuner;
  const std::lock_guard<std::mutex> lock(online_mutex_);
  return online_locked();
}

void Runtime::configure_online(online::OnlineConfig config) {
  {
    const std::lock_guard<std::mutex> lock(online_mutex_);
    online_locked().configure(std::move(config));
  }
  // Re-examine the registry (it may hold restored models).
  adapt_version_.store(0, std::memory_order_release);
}

void Runtime::reset() {
  {
    const std::lock_guard<std::mutex> lock(online_mutex_);
    online_ptr_.store(nullptr, std::memory_order_release);
    online_.reset();  // joins any in-flight retrain before state is torn down
  }
  adapt_version_.store(0, std::memory_order_relaxed);
  mode_.store(Mode::Off, std::memory_order_relaxed);
  timing_ = TimingSource::Model;
  machine_ = sim::MachineModel{};
  threads_ = 0;
  training_ = TrainingConfig{};
  default_override_.reset();
  execute_selected_ = true;
  accountant_ = nullptr;
  inline_cache_enabled_.store(true, std::memory_order_relaxed);
  clear_models();
  {
    // Reset in place: contexts (and the pointers KernelHandles cache) stay
    // valid; only their counters and handle caches are cleared.
    const std::lock_guard<std::mutex> lock(contexts_mutex_);
    for (auto& [loop_id, context] : contexts_) context->reset();
  }
  clear_records();
  probe_tick_.store(0, std::memory_order_relaxed);
  t_introspect_tick = 0;
  t_pending = PendingLaunch{};
  t_models = ThreadModelCache{};  // other threads refresh on their next launch
}

// --- aggregation -------------------------------------------------------------

RunStats Runtime::stats() const {
  RunStats stats;
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (const auto& [loop_id, context] : contexts_) {
    // Decisions count even for a kernel whose launches have not ended yet.
    stats.decision_latency.merge(context->decision_latency());
    KernelStats shard = context->stats_snapshot();
    // Contexts persist across reset_stats(); an idle shard is not a kernel
    // this run touched.
    if (shard.invocations == 0) continue;
    stats.total_seconds += shard.seconds;
    stats.invocations += shard.invocations;
    stats.per_kernel.emplace(loop_id, std::move(shard));
  }
  return stats;
}

void Runtime::reset_stats() noexcept {
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (auto& [loop_id, context] : contexts_) context->reset_stats();
}

std::vector<std::pair<std::string, online::KernelQuality>> Runtime::quality_snapshot() {
  std::vector<std::pair<std::string, online::KernelQuality>> result;
  const std::lock_guard<std::mutex> lock(contexts_mutex_);
  for (auto& [loop_id, context] : contexts_) {
    online::KernelShard& shard = context->online_shard();
    const std::lock_guard<std::mutex> shard_lock(shard.mutex());
    const online::KernelQuality& quality = shard.quality_locked();
    // Contexts persist across reset(); a kernel nothing scored is left out.
    if (quality.launches > 0 || quality.probes > 0 || quality.calibration_samples > 0) {
      result.emplace_back(loop_id, quality);
    }
  }
  return result;  // contexts_ is name-sorted, so the merged view is too
}

std::uint64_t Runtime::probe_count() {
  std::uint64_t total = 0;
  for (const auto& [loop_id, quality] : quality_snapshot()) total += quality.probes;
  return total;
}

double Runtime::regret_seconds_total() {
  double total = 0.0;
  for (const auto& [loop_id, quality] : quality_snapshot()) total += quality.regret_seconds;
  return total;
}

// --- cost queries ------------------------------------------------------------

sim::CostQuery Runtime::make_query(const KernelContext& context, const KernelHandle& kernel,
                                   const raja::IndexSet& iset, raja::PolicyType policy,
                                   std::int64_t chunk, unsigned team) const {
  sim::CostQuery query;
  query.num_indices = iset.getLength();
  query.num_segments = static_cast<std::int64_t>(iset.getNumSegments());
  query.mix = kernel.mix();
  query.bytes_per_iteration = kernel.bytes_per_iteration();
  query.policy = policy == raja::PolicyType::seq_segit_seq_exec ? sim::PolicyKind::Sequential
                                                                : sim::PolicyKind::OpenMP;
  query.threads = team > 0 ? team : threads();
  query.chunk = chunk;
  query.kernel_seed = context.kernel_seed();
  const BlackboardView& board = board_view();
  query.context_seed = board.context_seed;
  if (board.epoch) query.epoch = *board.epoch;
  return query;
}

double Runtime::measure_seconds(KernelContext& context, const sim::CostQuery& query) {
  return machine_.measured_seconds(query, context.next_sample_id());
}

// --- decisions ---------------------------------------------------------------

void Runtime::apply_models(const ModelSnapshot* snapshot, ModelParams& params,
                           const KernelHandle& kernel, const raja::IndexSet& iset) {
  if (snapshot == nullptr) return;
  // Labels were resolved to values when the snapshot was compiled.
  if (snapshot->policy) {
    const int label = snapshot->policy->predict(kernel, iset, t_features);
    params.selection = label;
    params.policy = static_cast<raja::PolicyType>(snapshot->policy->label_value(label));
  }
  if (snapshot->chunk && params.policy == raja::PolicyType::seq_segit_omp_parallel_for_exec) {
    const int label = snapshot->chunk->predict(kernel, iset, t_features);
    params.chunk_size = snapshot->chunk->label_value(label);
  }
  if (snapshot->threads && params.policy == raja::PolicyType::seq_segit_omp_parallel_for_exec) {
    const int label = snapshot->threads->predict(kernel, iset, t_features);
    params.threads = static_cast<unsigned>(snapshot->threads->label_value(label));
  }
}

void Runtime::tuned_decision(KernelContext& context, const ModelSnapshot* snapshot,
                             ModelParams& params, const KernelHandle& kernel,
                             const raja::IndexSet& iset, bool telem) {
  // With telemetry on, begin() just stamped the launch start; reuse it as
  // the decision start rather than paying a second clock read.
  const std::uint64_t decide_start = telem ? t_pending.start_ns : telemetry::now_ns();

  // Per-site inline cache: a decision is a pure function of the launch's
  // feature signature, the published snapshot (epoch), and the blackboard
  // state (generation), so a key over those three reuses the last decision
  // with one load and one compare. Hot-swaps and attribute writes invalidate
  // for free — they bump the epoch/generation, so the key simply changes.
  // Only policy-model decisions are cached: without one, params.policy stays
  // the caller's default, which the key does not cover.
  std::uint64_t key = 0;
  const bool cacheable = snapshot != nullptr && snapshot->policy &&
                         inline_cache_enabled_.load(std::memory_order_relaxed);
  if (cacheable) {
    key = iset.feature_signature() ^ mix64(t_models.epoch) ^
          mix64(perf::Blackboard::instance().generation() * 0x9e3779b97f4a7c15ULL + 1);
    if (key == 0) key = 1;
    std::uint64_t packed = 0;
    if (context.inline_cache_lookup(key, packed)) {
      unpack_decision(packed, params);
      const std::uint64_t decide_end = telemetry::now_ns();
      context.observe_decision(static_cast<double>(decide_end - decide_start) * 1e-9);
      if (telem) {
        t_pending.decide_dur_ns = decide_end - decide_start;
        t_pending.generation = snapshot->version;
        static telemetry::Counter& hits = telemetry::MetricsRegistry::instance().counter(
            "apollo_inline_cache_hits_total",
            "Tuned launches that reused the call site's cached decision.");
        hits.inc();
        maybe_capture_decision(context, *snapshot, params, kernel, iset);
      }
      return;
    }
  }

  apply_models(snapshot, params, kernel, iset);
  if (cacheable && !params.explored) {
    std::uint64_t packed = 0;
    if (pack_decision(params, packed)) context.inline_cache_store(key, packed);
  }
  const std::uint64_t decide_end = telemetry::now_ns();
  // Always on, atomic bucket increments in this thread's stripe of the
  // kernel's shard: feeds the p50/p95/p99 decision-latency report in
  // stats_report.
  context.observe_decision(static_cast<double>(decide_end - decide_start) * 1e-9);
  if (telem) {
    t_pending.decide_dur_ns = decide_end - decide_start;
    t_pending.generation = snapshot != nullptr ? snapshot->version : 0;
    if (cacheable) {
      static telemetry::Counter& misses = telemetry::MetricsRegistry::instance().counter(
          "apollo_inline_cache_misses_total",
          "Tuned launches that evaluated the model (no cached decision matched).");
      misses.inc();
    }
    if (snapshot != nullptr) maybe_capture_decision(context, *snapshot, params, kernel, iset);
  }
}

void Runtime::maybe_capture_decision(const KernelContext& context, const ModelSnapshot& snapshot,
                                     const ModelParams& params, const KernelHandle& kernel,
                                     const raja::IndexSet& iset) {
  const auto& cfg = telemetry::config();
  if (!snapshot.policy) return;
  const bool introspect_due =
      cfg.introspect_stride != 0 && t_introspect_tick++ % cfg.introspect_stride == 0;
  const bool audit_due = telemetry::AuditLog::instance().audit_enabled();
  if (!introspect_due && !audit_due) return;
  // Re-evaluate the policy model for this captured launch; t_features then
  // holds exactly the vector the tree saw. end() completes the record with
  // what the launch executed and measured.
  const TunerModel& policy = snapshot.policy->model();
  const int label = snapshot.policy->predict(kernel, iset, t_features);
  const auto& names = policy.tree().feature_names();
  telemetry::AuditRecord& record = t_pending.record;
  record = telemetry::AuditRecord{};
  record.kernel = kernel.loop_id();
  record.model_version = snapshot.version;
  record.label = policy.label_name(label);
  record.features.reserve(names.size());
  for (std::size_t f = 0; f < names.size(); ++f) {
    record.features.emplace_back(names[f], t_features[f]);
  }
  if (introspect_due) {
    record.sampled = true;
    policy.tree().predict_path(t_features.data(), record.tree_path);
    record.predicted_seconds = machine_.cost_seconds(
        make_query(context, kernel, iset, params.policy, params.chunk_size, params.threads));
  }
  t_pending.record_armed = true;
}

void Runtime::emit_record(const KernelHandle& kernel, const raja::IndexSet& iset,
                          raja::PolicyType policy, std::int64_t chunk, double seconds,
                          unsigned team) {
  // Capture, don't materialize: the full attribute-map record is built by
  // whoever consumes the sample (Retrainer background thread, records(),
  // flush). The launch thread pays scalar copies, the kernel's interned
  // signature pointer, and a copy of its thread's blackboard snapshot pointer.
  online::Sample sample;
  sample.kernel = kernel.signature();
  sample.index_type = iset.type();
  sample.num_indices = iset.getLength();
  sample.num_segments = static_cast<std::int64_t>(iset.getNumSegments());
  sample.stride = iset.stride();
  sample.app = board_snapshot();
  sample.policy = policy;
  sample.chunk = chunk;
  sample.threads = team;
  sample.seconds = seconds;
  records_.push(std::move(sample));
}

void Runtime::charge_external(const std::string& loop_id, const sim::CostQuery& query) {
  if (timing_ != TimingSource::Model) return;
  charge_external(context_for_id(loop_id), query);
}

void Runtime::charge_external(KernelContext& context, const sim::CostQuery& query) {
  if (timing_ != TimingSource::Model) return;
  const double seconds = measure_seconds(context, query);
  if (accountant_ != nullptr) accountant_->charge(seconds);
  context.charge(seconds);
}

const std::shared_ptr<const ModelSnapshot>& Runtime::refresh_adapt_models() {
  online::OnlineTuner& tuner = online();
  const std::uint64_t version = tuner.registry().version();  // single atomic load
  if (version == adapt_version_.load(std::memory_order_acquire)) return current_models();
  bool swapped = false;
  {
    const std::lock_guard<std::mutex> lock(models_mutex_);
    if (version != adapt_version_.load(std::memory_order_relaxed)) {
      if (const auto published = tuner.registry().current()) {
        // Slots the registry does not fill (the team-size model, or a
        // parameter not yet retrained) carry the previous compilation
        // forward (shared, immutable).
        auto next = models_ ? std::make_shared<ModelSnapshot>(*models_)
                            : std::make_shared<ModelSnapshot>();
        next->version = version;
        if (published->policy) {
          next->policy = compile_checked(*published->policy, TunedParameter::Policy,
                                         "Runtime: not a policy model");
        }
        if (published->chunk) {
          next->chunk = compile_checked(*published->chunk, TunedParameter::ChunkSize,
                                        "Runtime: not a chunk-size model");
        }
        models_ = std::move(next);
        model_epoch_.fetch_add(1, std::memory_order_release);
        swapped = true;
      }
      adapt_version_.store(version, std::memory_order_release);
    }
  }
  if (swapped) {
    // Outside models_mutex_ (lock order: never hold it across online calls).
    tuner.on_models_swapped();
    if (telemetry::enabled()) {
      auto& registry = telemetry::MetricsRegistry::instance();
      registry.counter("apollo_hot_swaps_total", "Model hot-swaps applied by the runtime.").inc();
      registry
          .gauge("apollo_model_generation",
                 "Registry model generation currently compiled into the runtime.")
          .set(static_cast<double>(version));
      telemetry::emit_instant(telemetry::EventKind::HotSwap, "hot_swap", version);
    }
  }
  return current_models();
}

// --- the begin/end hooks -----------------------------------------------------

ModelParams Runtime::begin(KernelContext& context, const KernelHandle& kernel,
                           const raja::IndexSet& iset) {
  const bool telem = telemetry::enabled();
  if (telem) {
    t_pending.start_ns = telemetry::now_ns();
    t_pending.decide_dur_ns = 0;
    t_pending.record_armed = false;
  }

  ModelParams params;
  params.policy = default_override_.value_or(kernel.default_policy());
  params.chunk_size = 0;

  switch (mode_.load(std::memory_order_relaxed)) {
    case Mode::Off:
      break;
    case Mode::Record:
      if (!training_.sweep_variants) {
        params.policy = training_.forced_policy;
        params.chunk_size = training_.forced_chunk;
      }
      break;
    case Mode::Tune:
      tuned_decision(context, current_models().get(), params, kernel, iset, telem);
      break;
    case Mode::Adapt: {
      tuned_decision(context, refresh_adapt_models().get(), params, kernel, iset, telem);
      const auto bucket = online::feature_bucket(iset.getLength(), iset.getNumSegments());
      // The draw and the cost guard touch only this kernel's online shard.
      const std::optional<online::Variant> explored =
          online().maybe_explore(context.online_shard(), bucket);
      if (explored) {
        params.policy = explored->policy;
        params.chunk_size = explored->chunk;
        params.threads = 0;
        params.explored = true;
        if (telem) {
          static telemetry::Counter& explores = telemetry::MetricsRegistry::instance().counter(
              "apollo_explore_total", "Launches where the explorer substituted a trial variant.");
          explores.inc();
          telemetry::emit_instant(telemetry::EventKind::Explore, "explore", explored->key());
        }
      }
      break;
    }
  }

  if (timing_ == TimingSource::Wallclock) t_stopwatch.start();
  return params;
}

void Runtime::end(KernelContext& context, const KernelHandle& kernel, const raja::IndexSet& iset,
                  const ModelParams& params) {
  double seconds = 0.0;
  if (timing_ == TimingSource::Wallclock) {
    seconds = t_stopwatch.stop();
  } else {
    seconds = measure_seconds(context, make_query(context, kernel, iset, params.policy,
                                                  params.chunk_size, params.threads));
  }

  const Mode mode = mode_.load(std::memory_order_relaxed);
  const bool telem = telemetry::enabled();
  const bool tuned = mode == Mode::Tune || mode == Mode::Adapt;
  // Introspection-sampled launch: its record carries the tree path and the
  // predicted cost.
  const bool sampled = telem && t_pending.record_armed && t_pending.record.sampled;
  if (accountant_ != nullptr) accountant_->charge(seconds);
  // The stats shard: two relaxed atomic adds plus atomic histogram buckets,
  // in this thread's stripe. The steady-state dispatch path ends here when
  // telemetry is off — no lock was taken anywhere between begin() and this
  // point.
  context.charge(seconds);

  online::KernelShard& shard = context.online_shard();
  const online::Variant executed{params.policy, params.chunk_size};
  const std::uint64_t bucket = (telem && tuned) || mode == Mode::Adapt
                                   ? online::feature_bucket(iset.getLength(), iset.getNumSegments())
                                   : 0;
  // Budgeted ground-truth probe (telemetry on): every probe_stride-th tuned
  // launch (process-wide tick, so the budget holds across kernels and
  // threads) also times one non-executed variant, rotating through this
  // kernel's candidates. Model timing only — a finished wall-clock launch
  // cannot be re-run untuned (there, the Adapt explorer supplies off-policy
  // ground truth). The probe is priced outside the kernel's lock and shared
  // with the sample buffer (retraining data), the kernel's evidence table
  // and the audit log.
  bool probe_armed = false;
  online::Variant probe_variant{};
  double probe_seconds = 0.0;
  if (telem && tuned && timing_ == TimingSource::Model &&
      probe_due(telemetry::config().probe_stride)) {
    const online::Variant candidates[] = {{raja::PolicyType::seq_segit_seq_exec, 0},
                                          {raja::PolicyType::seq_segit_omp_parallel_for_exec, 0}};
    for (int i = 0; i < 2 && !probe_armed; ++i) {
      const online::Variant candidate = candidates[context.next_probe_slot() % 2];
      if (candidate.key() != executed.key()) {
        probe_variant = candidate;
        probe_armed = true;
      }
    }
    if (probe_armed) {
      probe_seconds = measure_seconds(
          context, make_query(context, kernel, iset, probe_variant.policy, probe_variant.chunk));
      emit_record(kernel, iset, probe_variant.policy, probe_variant.chunk, probe_seconds);
    }
  }

  // The evidence table takes the probe first, then the launch's own runtime,
  // each exactly once. In Adapt mode the tuner applies both (one shard lock
  // each; it scores the launch's quality too when telemetry is on) and feeds
  // the launch's regret to the kernel's drift detector.
  bool adapt_record = false;
  if (mode == Mode::Adapt) {
    online::OnlineTuner& tuner = online();
    if (probe_armed) tuner.observe_probe(shard, bucket, probe_variant, probe_seconds);
    adapt_record = tuner.observe(shard, bucket, executed, seconds, params.explored, telem);
  }

  const char* trace_name = nullptr;
  if (telem) {
    // The kernel's one lock: concurrent launches of *different* kernels
    // never serialize here.
    const std::lock_guard<std::mutex> lock(shard.mutex());
    KernelContext::TelemetryHandles& entry = context.telemetry_locked();
    trace_name = entry.name;
    context.variant_counter_locked(params).inc();
    // The registry histogram rides the introspection stride: every launch
    // already feeds the always-on decision_latency_ histogram, so the
    // labeled series trades resolution for ~40ns off the hot path.
    if (sampled && t_pending.decide_dur_ns > 0) {
      entry.decision_seconds->observe(static_cast<double>(t_pending.decide_dur_ns) * 1e-9);
    }
    if (tuned) {
      // Quality accounting in Tune mode: the probe refreshes its variant's
      // baseline, then the launch refreshes its own and is scored against
      // the bucket's best (explored launches refresh evidence only).
      if (mode == Mode::Tune) {
        if (probe_armed) shard.probe_locked(bucket, probe_variant.key(), probe_seconds);
        shard.observe_locked(bucket, executed.key(), seconds, /*score=*/!params.explored);
      }
      online::KernelQuality& quality = shard.quality_locked();
      if (sampled) quality.calibrate(t_pending.record.predicted_seconds, seconds);
      // The exported gauges ride the introspection stride and the probes:
      // the live files refresh on a 500ms cadence, so per-launch gauge
      // stores would buy nothing but hot-path cost.
      if (sampled || probe_armed) {
        entry.accuracy->set(quality.accuracy());
        entry.regret_seconds->set(quality.regret_seconds);
      }
    }
  }
  if (telem && t_pending.start_ns != 0) {
    // Derive the span end rather than paying another clock read: the launch
    // span covers the model decision plus the measured (or model-charged)
    // execution seconds — exactly the time Apollo accounts to this launch.
    const std::uint64_t end_ns = t_pending.start_ns + t_pending.decide_dur_ns +
                                 static_cast<std::uint64_t>(seconds * 1e9);
    telemetry::emit_span(telemetry::EventKind::Launch, trace_name, t_pending.start_ns, end_ns,
                         executed.key(), params.explored ? 1 : 0);
    // Decide spans ride the introspection stride: every tuned launch feeds
    // the latency histograms, but only sampled launches pay a second event.
    if (sampled && t_pending.decide_dur_ns > 0) {
      telemetry::emit_span(telemetry::EventKind::Decide, trace_name, t_pending.start_ns,
                           t_pending.start_ns + t_pending.decide_dur_ns, t_pending.generation, 0);
    }
    t_pending.start_ns = 0;
  }

  if (telem && t_pending.record_armed) {
    // One record per captured launch: the audit log writes it, and a sampled
    // one also joins the in-memory tail the decisions file is written from.
    telemetry::AuditRecord& record = t_pending.record;
    record.ts_ns = telemetry::now_ns();
    record.bucket = bucket;
    record.policy = raja::policy_name(params.policy);
    record.chunk = params.chunk_size;
    record.explored = params.explored;
    record.seconds = seconds;
    telemetry::AuditLog::instance().append(record);
    t_pending.record_armed = false;
  }

  if (probe_armed) {
    static telemetry::Counter& probes = telemetry::MetricsRegistry::instance().counter(
        "apollo_probe_total", "Ground-truth probes launched (alternative-variant timings).");
    probes.inc();
    if (telemetry::AuditLog::instance().audit_enabled()) {
      telemetry::AuditRecord record;
      record.kind = telemetry::AuditRecord::Kind::Probe;
      record.ts_ns = telemetry::now_ns();
      record.kernel = kernel.loop_id();
      record.bucket = bucket;
      record.model_version = t_pending.generation;
      record.policy = raja::policy_name(probe_variant.policy);
      record.chunk = probe_variant.chunk;
      record.seconds = probe_seconds;
      telemetry::AuditLog::instance().append(record);
    }
  }

  if (mode == Mode::Adapt) {
    // Explored launches always land in the buffer (they carry the off-policy
    // labels retraining needs); predicted launches are strided per kernel to
    // keep the hot path cheap. The retrain triggers are atomics and the
    // retrain itself runs on the Retrainer's background thread.
    if (adapt_record) {
      emit_record(kernel, iset, params.policy, params.chunk_size, seconds, params.threads);
    }
    online().maybe_retrain();
    return;
  }

  if (mode != Mode::Record) return;

  if (!training_.sweep_variants) {
    emit_record(kernel, iset, params.policy, params.chunk_size, seconds);
    return;
  }

  // Sweep recording: price every parameter variant of this launch. Requires
  // the machine-model timing source (one real execution cannot yield
  // wall-clock times for variants that did not run).
  if (timing_ == TimingSource::Wallclock) {
    throw std::logic_error(
        "Runtime: sweep_variants recording requires TimingSource::Model; "
        "use forced-policy recording for wall-clock training runs");
  }
  const auto variant_seconds = [&](raja::PolicyType policy, std::int64_t chunk, unsigned team) {
    return measure_seconds(context, make_query(context, kernel, iset, policy, chunk, team));
  };
  const double seq_seconds = variant_seconds(raja::PolicyType::seq_segit_seq_exec, 0, 0);
  emit_record(kernel, iset, raja::PolicyType::seq_segit_seq_exec, 0, seq_seconds);
  const double omp_seconds =
      variant_seconds(raja::PolicyType::seq_segit_omp_parallel_for_exec, 0, 0);
  emit_record(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, 0, omp_seconds);
  for (std::int64_t chunk : training_.chunk_values) {
    const double chunk_seconds =
        variant_seconds(raja::PolicyType::seq_segit_omp_parallel_for_exec, chunk, 0);
    emit_record(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, chunk,
                chunk_seconds);
  }
  for (unsigned team : training_.thread_values) {
    const double team_seconds =
        variant_seconds(raja::PolicyType::seq_segit_omp_parallel_for_exec, 0, team);
    emit_record(kernel, iset, raja::PolicyType::seq_segit_omp_parallel_for_exec, 0, team_seconds,
                team);
  }
}

}  // namespace apollo
