#pragma once

// Bounded, thread-safe ring of training samples — the live sample sink for
// every runtime mode. The paper's offline protocol could afford an unbounded
// record vector (the run ends, the file is flushed); a long-running adaptive
// process cannot, so the buffer holds the most recent `capacity` samples and
// overwrites the oldest.
//
// Samples are stored *unmaterialized* and by value: a 72-byte Sample of the
// launch's scalars, a pointer to the kernel's interned signature (loop id,
// func, mix), and a shared pointer to the blackboard snapshot. Building the
// full attribute-map SampleRecord (~40 string-keyed map inserts) costs
// microseconds and is deferred to whoever consumes the sample — the
// background Retrainer, a records-file flush, or a test — so the producing
// application thread pays one slot copy under the buffer lock, and no
// allocation once the ring is full.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "instr/signature.hpp"
#include "perf/record.hpp"
#include "raja/index_set.hpp"
#include "raja/policy.hpp"

namespace apollo::online {

/// Default capacity of the runtime's sample sink. Sized so that every bundled
/// recording experiment fits with an order of magnitude to spare; override
/// with Runtime::sample_buffer().set_capacity or APOLLO_SAMPLE_CAPACITY.
inline constexpr std::size_t kDefaultSampleCapacity = 1u << 18;

/// One recorded launch, unmaterialized: only what varies per launch, plus a
/// pointer to the kernel's constants (loop id, func, mix, bytes/iteration).
struct Sample {
  /// Interned kernel signature (instr::intern_signature); never freed, so a
  /// sample may outlive the KernelHandle that recorded it. Must be set.
  const instr::KernelSignature* kernel = nullptr;
  /// Blackboard snapshot at launch time (shared, immutable; may be null).
  std::shared_ptr<const perf::SampleRecord> app;
  std::int64_t num_indices = 0;
  std::int64_t num_segments = 0;
  std::int64_t stride = 1;
  std::int64_t chunk = 0;
  double seconds = 0.0;
  unsigned threads = 0;
  raja::PolicyType policy = raja::PolicyType::seq_segit_seq_exec;
  raja::IndexType index_type = raja::IndexType::range;

  /// Build the full attribute-map record (the expensive part; consumer-side).
  [[nodiscard]] perf::SampleRecord materialize() const;
};

class SampleBuffer {
public:
  explicit SampleBuffer(std::size_t capacity);

  /// Append one sample; overwrites the oldest when full.
  void push(Sample sample);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Samples ever pushed (monotonic; >= size()). Lock-free.
  [[nodiscard]] std::uint64_t total_pushed() const noexcept {
    return pushed_.load(std::memory_order_acquire);
  }
  /// Samples lost to overwrite (total_pushed - retained).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Materialized copy of the current contents, oldest first. The producer
  /// keeps running.
  [[nodiscard]] std::vector<perf::SampleRecord> snapshot() const;

  /// Copies of the newest `max_samples` samples (0 = all), oldest first.
  /// O(n) slot copies under the lock — the retrain-request hot path; records
  /// are materialized later on the background thread.
  [[nodiscard]] std::vector<Sample> snapshot_shared(std::size_t max_samples = 0) const;

  /// Materialize the contents (oldest first) and leave the buffer empty.
  /// One atomic take under the buffer lock: a producer pushing concurrently
  /// either lands before the drain (and is returned) or after it (and is
  /// retained for the next one), never dropped. Materialization runs after
  /// the lock is released.
  [[nodiscard]] std::vector<perf::SampleRecord> drain();

  void clear();

  /// Drop retained samples beyond the new capacity (keeps the newest).
  void set_capacity(std::size_t capacity);

private:
  /// Contents oldest-first, leaving the ring reset (lock held).
  [[nodiscard]] std::vector<Sample> take_ordered_locked();

  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<Sample> ring_;  ///< grows to capacity_, then wraps
  std::size_t next_ = 0;      ///< overwrite position once full
  std::atomic<std::uint64_t> pushed_{0};
};

}  // namespace apollo::online
