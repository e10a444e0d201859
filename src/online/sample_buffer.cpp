#include "online/sample_buffer.hpp"

#include <algorithm>
#include <utility>

#include "core/features.hpp"
#include "telemetry/telemetry.hpp"

namespace apollo::online {

perf::SampleRecord Sample::materialize() const {
  perf::SampleRecord record = app ? *app : perf::SampleRecord{};
  features::fill_kernel_features(record, kernel->loop_id, kernel->func, kernel->mix, num_indices,
                                 num_segments, stride, raja::index_type_name(index_type));
  record[features::kParamPolicy] = raja::policy_name(policy);
  record[features::kParamChunk] = chunk;
  if (threads > 0) record[features::kParamThreads] = static_cast<std::int64_t>(threads);
  if (kernel->bytes_per_iteration > 0) {
    record[features::kMeasureBytesPerIter] = kernel->bytes_per_iteration;
  }
  record[features::kMeasureRuntime] = seconds;
  return record;
}

SampleBuffer::SampleBuffer(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  // Memory tracks the number of samples actually retained: the ring grows by
  // push_back until it reaches capacity, then wraps.
}

void SampleBuffer::push(Sample sample) {
  Lane& lane = lanes_[par::thread_slot()];
  const std::lock_guard<std::mutex> lock(lane.mutex);
  lane.samples[lane.staged++] = std::move(sample);
  lane.pushed.store(lane.pushed.load(std::memory_order_relaxed) + 1, std::memory_order_release);
  if (lane.staged == kLaneBatch) flush_locked(lane);
}

void SampleBuffer::flush_locked(Lane& lane) const {
  if (lane.staged == 0) return;
  // Released after the unlock: dropping an evicted sample's blackboard
  // snapshot may free it, and every lane's flush takes this lock.
  std::shared_ptr<const perf::SampleRecord> evicted[kLaneBatch];
  std::size_t occupancy = 0;
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < lane.staged; ++i) {
      Sample& sample = lane.samples[i];
      if (ring_.size() < capacity_) {
        ring_.push_back(std::move(sample));
      } else {
        Sample& slot = ring_[next_];
        evicted[i] = std::move(slot.app);
        slot = std::move(sample);
        ++dropped_;
        next_ = (next_ + 1) % capacity_;
      }
    }
    occupancy = ring_.size();
  }
  lane.staged = 0;
  if (telemetry::enabled()) {
    telemetry::emit_instant(telemetry::EventKind::SamplePush, "sample_push", occupancy);
  }
}

void SampleBuffer::flush_lanes() const {
  for (Lane& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane.mutex);
    flush_locked(lane);
  }
}

std::uint64_t SampleBuffer::total_pushed() const noexcept {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.pushed.load(std::memory_order_acquire);
  return total;
}

std::size_t SampleBuffer::size() const {
  flush_lanes();
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t SampleBuffer::dropped() const {
  flush_lanes();
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::vector<Sample> SampleBuffer::take_ordered_locked() {
  std::vector<Sample> out;
  out.reserve(ring_.size());
  // Oldest sample sits at next_ once the ring has wrapped, at 0 before.
  const std::size_t start = ring_.size() < capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(std::move(ring_[(start + i) % ring_.size()]));
  }
  ring_.clear();
  next_ = 0;
  return out;
}

std::vector<perf::SampleRecord> SampleBuffer::snapshot() const {
  std::vector<perf::SampleRecord> out;
  const auto shared = snapshot_shared();
  out.reserve(shared.size());
  for (const auto& sample : shared) out.push_back(sample.materialize());
  return out;
}

std::vector<Sample> SampleBuffer::snapshot_shared(std::size_t max_samples) const {
  flush_lanes();
  std::vector<Sample> out;
  std::lock_guard lock(mutex_);
  const std::size_t count =
      max_samples > 0 ? std::min(max_samples, ring_.size()) : ring_.size();
  out.reserve(count);
  const std::size_t start = ring_.size() < capacity_ ? 0 : next_;
  // Newest `count` samples, emitted oldest first.
  for (std::size_t i = ring_.size() - count; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::vector<perf::SampleRecord> SampleBuffer::drain() {
  flush_lanes();
  std::vector<Sample> taken;
  {
    std::lock_guard lock(mutex_);
    taken = take_ordered_locked();
  }
  std::vector<perf::SampleRecord> out;
  out.reserve(taken.size());
  for (const auto& sample : taken) out.push_back(sample.materialize());
  return out;
}

void SampleBuffer::clear() {
  for (Lane& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane.mutex);
    for (std::size_t i = 0; i < lane.staged; ++i) lane.samples[i] = Sample{};
    lane.staged = 0;
  }
  std::lock_guard lock(mutex_);
  ring_.clear();
  next_ = 0;
}

void SampleBuffer::set_capacity(std::size_t capacity) {
  flush_lanes();
  std::lock_guard lock(mutex_);
  std::vector<Sample> kept = take_ordered_locked();
  capacity_ = std::max<std::size_t>(capacity, 1);
  if (kept.size() > capacity_) {
    dropped_ += kept.size() - capacity_;
    kept.erase(kept.begin(), kept.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
  ring_ = std::move(kept);
}

}  // namespace apollo::online
