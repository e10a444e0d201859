#include "online/online_tuner.hpp"

#include <utility>

#include "parallel/thread_slot.hpp"
#include "telemetry/telemetry.hpp"

namespace apollo::online {

namespace {

/// Incarnations are process-unique, so a shard last used by a destroyed
/// tuner never looks current to its successor.
std::uint64_t next_incarnation() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

OnlineTuner::OnlineTuner(SampleBuffer* buffer, OnlineConfig config)
    : config_(std::move(config)),
      buffer_(buffer),
      explorer_(config_.explorer),
      incarnation_(next_incarnation()),
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
  incarnation_ = next_incarnation();  // every shard and lane resets on its next use
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

void OnlineTuner::attach(KernelShard& shard) {
  if (shard.incarnation_.load(std::memory_order_acquire) == incarnation_) return;
  const std::lock_guard<std::mutex> lock(shard.mutex_);
  attach_locked(shard);
}

void OnlineTuner::attach_locked(KernelShard& shard) {
  if (shard.incarnation_.load(std::memory_order_relaxed) == incarnation_) return;
  if (!shard.lanes_) shard.lanes_ = std::make_unique<KernelShard::Lane[]>(par::kThreadSlots);
  shard.evidence_.clear();
  shard.detector_ = DriftDetector(config_.drift);
  shard.draws_.store(0, std::memory_order_relaxed);
  shard.launches_ = 0;
  shard.explorations_ = 0;
  shard.vetoes_ = 0;
  // Last: launches read the tag, and then the lanes, without the lock.
  shard.incarnation_.store(incarnation_, std::memory_order_release);
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  shards_.push_back(&shard);
}

std::vector<KernelShard*> OnlineTuner::attached_shards() const {
  const std::lock_guard<std::mutex> lock(shards_mutex_);
  return shards_;
}

std::optional<Variant> OnlineTuner::maybe_explore(KernelShard& shard, std::uint64_t bucket) {
  attach(shard);
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
  attach(shard);
  KernelShard::Lane& lane = shard.lanes_[par::thread_slot()];
  const std::lock_guard<std::mutex> lock(lane.mutex);
  if (lane.incarnation != incarnation_) {
    lane.incarnation = incarnation_;
    lane.record_tick = 0;
    lane.pending = 0;
  }
  const bool record = explored || config_.sample_stride <= 1 ||
                      lane.record_tick++ % config_.sample_stride == 0;
  lane.launches[lane.pending++] = {bucket, executed.key(), seconds, explored, score};
  if (lane.pending == KernelShard::kLaneBatch) fold_locked(shard, lane);
  return record;
}

void OnlineTuner::fold_locked(KernelShard& shard, KernelShard::Lane& lane) {
  const std::uint32_t pending = std::exchange(lane.pending, 0);
  if (pending == 0 || lane.incarnation != incarnation_) return;
  std::uint64_t fire_buckets[KernelShard::kLaneBatch];
  std::uint32_t fires = 0;
  {
    // A current lane implies a current shard: both reset on a new
    // incarnation, and the shard first.
    const std::lock_guard<std::mutex> lock(shard.mutex_);
    for (std::uint32_t i = 0; i < pending; ++i) {
      const KernelShard::LaneLaunch& launch = lane.launches[i];
      const BestVariant best = shard.observe_locked(launch.bucket, launch.variant, launch.seconds,
                                                    launch.score && !launch.explored);
      if (!launch.explored) shard.detector_.observe(launch.seconds, best.seconds);
      if (shard.detector_.consume_fire()) fire_buckets[fires++] = launch.bucket;
    }
    shard.launches_ += pending;
  }
  if (config_.retrain_every > 0) cadence_launches_.fetch_add(pending, std::memory_order_relaxed);
  if (fires == 0) return;
  drift_fires_.fetch_add(fires, std::memory_order_relaxed);
  pushed_at_fire_.store(buffer_->total_pushed(), std::memory_order_relaxed);
  retrain_pending_.store(true, std::memory_order_release);
  explorer_.set_boosted(true);
  if (telemetry::enabled()) {
    const char* name = telemetry::Tracer::instance().intern(shard.loop_id());
    for (std::uint32_t i = 0; i < fires; ++i) {
      telemetry::emit_instant(telemetry::EventKind::DriftFire, name, fire_buckets[i]);
    }
  }
}

void OnlineTuner::fold_shard_lanes(KernelShard& shard) {
  for (std::uint32_t slot = 0; slot < par::kThreadSlots; ++slot) {
    KernelShard::Lane& lane = shard.lanes_[slot];
    const std::lock_guard<std::mutex> lock(lane.mutex);
    fold_locked(shard, lane);
  }
}

void OnlineTuner::fold_lanes() {
  for (KernelShard* shard : attached_shards()) fold_shard_lanes(*shard);
}

void OnlineTuner::observe_probe(KernelShard& shard, std::uint64_t bucket, const Variant& variant,
                                double seconds) {
  const std::lock_guard<std::mutex> lock(shard.mutex_);
  attach_locked(shard);
  shard.probe_locked(bucket, variant.key(), seconds);
}

void OnlineTuner::maybe_retrain() {
  // Cheap checks first: this runs on every launch, so the common no-op path
  // reads two atomics and touches no lock. Summing the buffer's lane
  // counters reads lines other threads write, so it waits until a drift
  // fire is pending and the retrainer is free.
  const auto cadence_due = [this] {
    return config_.retrain_every > 0 &&
           cadence_launches_.load(std::memory_order_relaxed) >= config_.retrain_every;
  };
  const auto drift_due = [this] {
    return retrain_pending_.load(std::memory_order_acquire) &&
           buffer_->total_pushed() - pushed_at_fire_.load(std::memory_order_relaxed) >=
               config_.post_drift_samples;
  };
  if (!retrain_pending_.load(std::memory_order_relaxed) && !cadence_due()) return;
  if (retrainer_.busy()) return;
  if (!drift_due() && !cadence_due()) return;
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
  // Launches still in the lanes were decided by the old models. Fold them
  // into the old windows first, or a stale launch would count against the
  // new models; a fire they cause ends with this episode.
  for (KernelShard* shard : attached_shards()) {
    fold_shard_lanes(*shard);
    const std::lock_guard<std::mutex> lock(shard->mutex_);
    if (shard->incarnation_.load(std::memory_order_relaxed) == incarnation_) {
      shard->detector_.rearm();
    }
  }
  explorer_.set_boosted(false);
}

OnlineTuner::Status OnlineTuner::status() {
  fold_lanes();
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
