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
// background Retrainer, a records-file flush, or a test.
//
// A push stages its sample in the calling thread's lane (one per thread
// slot, par::thread_slot, each behind its own mutex), and a lane moves its
// samples into the ring under the buffer mutex kLaneBatch at a time, in
// push order. So the producing application thread pays one slot copy under
// a lock no other live thread takes (up to kThreadSlots threads), the
// buffer mutex once per batch, and no allocation once the ring is full.
// Every reader (size, dropped, the snapshots, drain, set_capacity) moves
// the staged samples into the ring first, so it sees every sample pushed
// before it was called, and each thread's samples in that thread's order.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "instr/signature.hpp"
#include "parallel/thread_slot.hpp"
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
  /// Samples a lane stages before moving them into the ring.
  static constexpr std::size_t kLaneBatch = 16;

  explicit SampleBuffer(std::size_t capacity);

  /// Append one sample (staged in the caller's lane); the ring overwrites
  /// its oldest sample when full.
  void push(Sample sample);

  [[nodiscard]] std::size_t capacity() const {
    std::lock_guard lock(mutex_);
    return capacity_;
  }
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] bool empty() const { return size() == 0; }
  /// Samples ever pushed (monotonic; >= size()), counted when push()
  /// accepts them. Lock-free: a sum of per-lane counters.
  [[nodiscard]] std::uint64_t total_pushed() const noexcept;
  /// Samples lost before any consumer saw them: overwritten by a push into
  /// a full ring, or evicted when set_capacity shrank it. Samples a drain()
  /// took or clear() discarded are not drops. Monotonic, like total_pushed.
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

  /// Discard the contents, staged samples included.
  void clear();

  /// Drop retained samples beyond the new capacity (keeps the newest).
  void set_capacity(std::size_t capacity);

private:
  /// One thread slot's staged samples, on its own cache lines.
  struct alignas(64) Lane {
    std::mutex mutex;
    /// Samples this lane accepted; written under `mutex`, summed lock-free.
    std::atomic<std::uint64_t> pushed{0};
    std::size_t staged = 0;       ///< mutex
    Sample samples[kLaneBatch];   ///< mutex
  };

  /// Move `lane`'s staged samples into the ring (the caller holds the
  /// lane's lock; takes mutex_).
  void flush_locked(Lane& lane) const;
  /// Move every lane's staged samples into the ring (readers call it first).
  void flush_lanes() const;
  /// Contents oldest-first, leaving the ring reset (lock held).
  [[nodiscard]] std::vector<Sample> take_ordered_locked();

  // A reader moves staged samples into the ring before it reads, which
  // leaves the buffer's contents as they were: hence the mutable ring.
  mutable std::mutex mutex_;
  std::size_t capacity_;               ///< mutex_
  mutable std::vector<Sample> ring_;   ///< mutex_; grows to capacity_, then wraps
  mutable std::size_t next_ = 0;       ///< mutex_; overwrite position once full
  mutable std::uint64_t dropped_ = 0;  ///< mutex_
  mutable Lane lanes_[par::kThreadSlots];
};

}  // namespace apollo::online
