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
  // Released after the unlock: dropping the evicted sample's blackboard
  // snapshot may free it, and this is the one lock every Record launch and
  // every sampled Adapt launch takes.
  std::shared_ptr<const perf::SampleRecord> evicted;
  std::size_t occupancy = 0;
  {
    std::lock_guard lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(sample));
    } else {
      Sample& slot = ring_[next_];
      evicted = std::move(slot.app);
      slot = std::move(sample);
      ++dropped_;
      next_ = (next_ + 1) % capacity_;
    }
    occupancy = ring_.size();
    pushed_.fetch_add(1, std::memory_order_release);
  }
  if (telemetry::enabled()) {
    telemetry::emit_instant(telemetry::EventKind::SamplePush, "sample_push", occupancy);
  }
}

std::size_t SampleBuffer::size() const {
  std::lock_guard lock(mutex_);
  return ring_.size();
}

std::uint64_t SampleBuffer::dropped() const {
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
  std::lock_guard lock(mutex_);
  ring_.clear();
  next_ = 0;
}

void SampleBuffer::set_capacity(std::size_t capacity) {
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
