#include "online/online_tuner.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace apollo::online {

namespace {

/// Incarnations are process-unique, so a shard last used by a destroyed
/// tuner never looks current to its successor.
std::uint64_t next_incarnation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Largest per-kernel batch of launches reported to the cadence count.
constexpr std::uint64_t kMaxCadenceBatch = 64;

std::uint64_t cadence_batch(std::uint64_t retrain_every) {
  return std::clamp<std::uint64_t>(retrain_every / 16, 1, kMaxCadenceBatch);
}

}  // namespace

OnlineTuner::OnlineTuner(SampleBuffer* buffer, OnlineConfig config)
    : config_(std::move(config)),
      buffer_(buffer),
      explorer_(config_.explorer),
      incarnation_(next_incarnation()),
      cadence_batch_(cadence_batch(config_.retrain_every)),
      retrainer_(config_.tree_params) {
  retrainer_.set_train_chunk(!config_.explorer.chunk_values.empty());
  retrainer_.set_publisher([this](Retrainer::Result result) {
    registry_.publish(std::move(result.policy), std::move(result.chunk));
  });
  if (!config_.model_dir.empty()) {
    registry_.set_persist_dir(config_.model_dir);
    registry_.load_latest();
  }
}

void OnlineTuner::configure(OnlineConfig config) {
  retrainer_.wait_idle();
  config_ = std::move(config);
  explorer_.reconfigure(config_.explorer);
  retrainer_.set_tree_params(config_.tree_params);
  retrainer_.set_train_chunk(!config_.explorer.chunk_values.empty());
  incarnation_ = next_incarnation();  // every shard resets on its next use
  cadence_batch_ = cadence_batch(config_.retrain_every);
  {
    const std::lock_guard<std::mutex> lock(shards_mutex_);
    shards_.clear();
  }
  retrain_pending_.store(false, std::memory_order_relaxed);
  cadence_launches_.store(0, std::memory_order_relaxed);
  if (!config_.model_dir.empty()) {
    registry_.set_persist_dir(config_.model_dir);
    if (registry_.version() == 0) registry_.load_latest();
  }
}

void OnlineTuner::attach_locked(KernelShard& shard) {
  if (shard.incarnation_.load(std::memory_order_relaxed) == incarnation_) return;
  shard.evidence_.clear();
  shard.detector_ = DriftDetector(config_.drift);
  shard.draws_.store(0, std::memory_order_relaxed);
  shard.record_tick_ = 0;
  shard.launches_ = 0;
  shard.explorations_ = 0;
  shard.vetoes_ = 0;
  shard.cadence_unflushed_ = 0;
  // Last: maybe_explore reads the tag without the lock.
  shard.incarnation_.store(incarnation_, std::memory_order_release);
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  shards_.push_back(&shard);
}

std::vector<KernelShard*> OnlineTuner::attached_shards() const {
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  return shards_;
}

std::optional<Variant> OnlineTuner::maybe_explore(KernelShard& shard, std::uint64_t bucket) {
  if (shard.incarnation_.load(std::memory_order_acquire) != incarnation_) {
    const std::lock_guard<std::mutex> lock(shard.mutex_);
    attach_locked(shard);
  }
  // Each launch claims the next draw index, so the kernel's n-th draw is
  // the same whichever thread takes it; only a candidate needs the lock.
  auto candidate =
      explorer_.draw(shard.stream_, shard.draws_.fetch_add(1, std::memory_order_relaxed));
  if (!candidate) return std::nullopt;
  const std::lock_guard<std::mutex> lock(shard.mutex_);
  const std::uint64_t n = ++shard.explorations_;
  if (config_.explore_cost_guard <= 0.0) return candidate;
  if (config_.reprobe_stride > 0 && n % config_.reprobe_stride == 0) {
    return candidate;  // periodic re-probe ignores the guard
  }
  const double known = shard.evidence_.baseline(bucket, candidate->key());
  const double best = shard.evidence_.best(bucket);
  if (known > 0.0 && best > 0.0 && known > config_.explore_cost_guard * best) {
    ++shard.vetoes_;
    return std::nullopt;
  }
  return candidate;
}

bool OnlineTuner::observe(KernelShard& shard, std::uint64_t bucket, const Variant& executed,
                          double seconds, bool explored, bool score) {
  bool record = false;
  bool fired = false;
  std::uint64_t cadence_flush = 0;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex_);
    attach_locked(shard);
    record = explored || config_.sample_stride <= 1 ||
             shard.record_tick_++ % config_.sample_stride == 0;
    const BestVariant best =
        shard.observe_locked(bucket, executed.key(), seconds, score && !explored);
    if (!explored) shard.detector_.observe(seconds, best.seconds);
    ++shard.launches_;
    if (config_.retrain_every > 0 && ++shard.cadence_unflushed_ >= cadence_batch_) {
      cadence_flush = std::exchange(shard.cadence_unflushed_, 0);
    }
    fired = shard.detector_.consume_fire();
  }
  if (cadence_flush > 0) cadence_launches_.fetch_add(cadence_flush, std::memory_order_relaxed);
  if (fired) {
    drift_fires_.fetch_add(1, std::memory_order_relaxed);
    pushed_at_fire_.store(buffer_->total_pushed(), std::memory_order_relaxed);
    retrain_pending_.store(true, std::memory_order_release);
    explorer_.set_boosted(true);
    if (telemetry::enabled()) {
      telemetry::emit_instant(telemetry::EventKind::DriftFire,
                              telemetry::Tracer::instance().intern(shard.loop_id()), bucket);
    }
  }
  return record;
}

void OnlineTuner::observe_probe(KernelShard& shard, std::uint64_t bucket, const Variant& variant,
                                double seconds) {
  const std::lock_guard<std::mutex> lock(shard.mutex_);
  attach_locked(shard);
  shard.probe_locked(bucket, variant.key(), seconds);
}

void OnlineTuner::maybe_retrain() {
  // Cheap checks first: this runs on every launch, so the common no-op path
  // reads two atomics and touches no lock.
  const auto cadence_due = [this] {
    return config_.retrain_every > 0 &&
           cadence_launches_.load(std::memory_order_relaxed) >= config_.retrain_every;
  };
  const auto drift_due = [this] {
    return retrain_pending_.load(std::memory_order_acquire) &&
           buffer_->total_pushed() - pushed_at_fire_.load(std::memory_order_relaxed) >=
               config_.post_drift_samples;
  };
  if (!drift_due() && !cadence_due()) return;
  if (retrainer_.busy()) return;
  // One requester at a time; the others go back to their launches. The
  // winner re-reads the triggers, which a request it raced with may have
  // cleared.
  const std::unique_lock<std::mutex> lock(request_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  const bool drift = drift_due();
  if (!drift && !cadence_due()) return;
  if (!drift && config_.max_retrain_duty > 0.0) {
    // Duty-cycle throttle: keep background training to a bounded share of
    // wall time so it cannot starve the application on small machines.
    const double last = retrainer_.last_duration_seconds();
    if (last > 0.0) {
      const auto since = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                       last_request_)
                             .count();
      if (since < last / config_.max_retrain_duty) return;
    }
  }
  if (buffer_->size() < config_.min_retrain_samples) return;
  // Clear the drift trigger before requesting: a fire that lands meanwhile
  // re-arms it instead of being overwritten.
  const bool was_pending = retrain_pending_.exchange(false, std::memory_order_acq_rel);
  if (retrainer_.request(buffer_->snapshot_shared(config_.retrain_window))) {
    cadence_launches_.store(0, std::memory_order_relaxed);
    last_request_ = std::chrono::steady_clock::now();
  } else if (was_pending) {
    retrain_pending_.store(true, std::memory_order_release);
  }
}

void OnlineTuner::on_models_swapped() {
  explorer_.set_boosted(false);
  for (KernelShard* shard : attached_shards()) {
    const std::lock_guard<std::mutex> lock(shard->mutex_);
    if (shard->incarnation_.load(std::memory_order_relaxed) == incarnation_) {
      shard->detector_.rearm();
    }
  }
}

OnlineTuner::Status OnlineTuner::status() const {
  Status s;
  s.model_version = registry_.version();
  s.drift_fires = drift_fires_.load(std::memory_order_relaxed);
  s.retrains_completed = retrainer_.completed();
  s.retrains_failed = retrainer_.failed();
  for (KernelShard* shard : attached_shards()) {
    const std::lock_guard<std::mutex> lock(shard->mutex_);
    if (shard->incarnation_.load(std::memory_order_relaxed) != incarnation_) continue;
    s.explorations += shard->explorations_;
    s.exploration_vetoes += shard->vetoes_;
    s.launches += shard->launches_;
    const std::uint64_t fires = shard->detector_.fires();
    if (fires > 0) s.drift_fires_by_kernel.emplace_back(shard->loop_id(), fires);
  }
  s.retrain_in_flight = retrainer_.busy();
  s.exploring_boosted = explorer_.boosted();
  return s;
}

}  // namespace apollo::online
