#pragma once

// Low-overhead event tracing: fixed-size POD events written into per-thread
// lock-free SPSC rings, drained by a background collector (or at export), and
// serialized as Chrome trace-event JSON (load the file in chrome://tracing or
// https://ui.perfetto.dev). The producing side is the hot path — a push is an
// index check, a 48-byte struct store, and a release store, with no locks and
// no allocation once the thread's ring exists. When a ring fills faster than
// the collector drains it, events are dropped and counted exactly; drop
// totals are exported alongside the trace so a gap is never silent.
//
// Event names are borrowed `const char*`s: pass string literals or pointers
// interned via Tracer::intern (kernel ids are interned once per kernel by the
// runtime's telemetry cache, never per event).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace apollo::telemetry {

/// What an event describes. The exporter maps kinds to Chrome trace
/// categories and phase types (span vs instant).
enum class EventKind : std::uint8_t {
  Launch,      ///< span: one apollo::forall (begin..end); arg0 = variant key
  Decide,      ///< span: model evaluation inside begin(); arg0 = model version
  Phase,       ///< span: application phase / perf region
  Retrain,     ///< span: background retrain; arg0 = samples, arg1 = 1 on success
  SamplePush,  ///< instant: SampleBuffer push; arg0 = occupancy after push
  DriftFire,   ///< instant: a kernel's drift detector fired; arg0 = total fires
  HotSwap,     ///< instant: runtime swapped in registry models; arg0 = version
  Explore,     ///< instant: explorer substituted a variant; arg0 = variant key
};

[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// One trace event. POD on purpose: stores into the ring must be trivial.
struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< start time (ns since trace epoch)
  std::uint64_t dur_ns = 0;  ///< span duration; 0 for instants
  const char* name = nullptr;  ///< static or interned; never owned
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  EventKind kind = EventKind::Launch;
  std::uint32_t tid = 0;  ///< filled from the owning ring at drain time
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

/// Single-producer (owning thread) / single-consumer (collector) event ring.
class ThreadTraceBuffer {
public:
  ThreadTraceBuffer(std::size_t capacity_pow2, std::uint32_t tid);

  /// Producer only. Returns false (and counts a drop) when the ring is full.
  /// The consumer's position is cached producer-side and refreshed only when
  /// the ring looks full, so the common-case push never touches the cache
  /// line the collector writes.
  bool push(const TraceEvent& event) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ >= ring_.size()) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ >= ring_.size()) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    ring_[static_cast<std::size_t>(head) & mask_] = event;
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer only. Appends pending events (tid stamped) to `out`.
  std::size_t drain(std::vector<TraceEvent>& out);

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  [[nodiscard]] std::uint32_t tid() const noexcept { return tid_; }

private:
  std::vector<TraceEvent> ring_;
  std::size_t mask_;
  std::uint32_t tid_;
  std::uint64_t cached_tail_ = 0;  ///< producer-private view of tail_
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< next write slot
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< next read slot
  std::atomic<std::uint64_t> dropped_{0};
};

/// Process-wide tracer: owns the per-thread rings and the name intern table.
class Tracer {
public:
  static Tracer& instance();

  /// The calling thread's ring (registered on first use). The returned
  /// reference stays valid for the thread's lifetime across reset() epochs —
  /// after a reset the thread re-registers on its next local() call.
  ThreadTraceBuffer& local();

  /// Push one event on the calling thread's ring.
  void emit(const TraceEvent& event) { local().push(event); }

  /// Drain every registered ring into `out` (collector/export side; safe
  /// against concurrent producers, serialized against other drainers).
  std::size_t drain(std::vector<TraceEvent>& out);

  /// Total events dropped across all rings (including finished threads).
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t thread_count() const;

  /// Ring capacity for threads registered from now on (rounded up to a power
  /// of two; existing rings keep their size).
  void set_ring_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t ring_capacity() const;

  /// Copy `name` into stable storage and return its canonical pointer.
  /// Idempotent per distinct string; intended for one-time caching, not for
  /// the per-event path.
  const char* intern(std::string_view name);

  /// Drop all rings and start a new epoch (tests/benchmarks between runs).
  /// Threads still alive re-register lazily; events they push into their old
  /// ring before noticing the new epoch are discarded with it.
  void reset();

  /// Nanoseconds since the process-wide trace epoch (first call).
  static std::uint64_t now_ns() noexcept;

private:
  Tracer() = default;
  std::shared_ptr<ThreadTraceBuffer> register_thread();

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers_;
  std::vector<std::unique_ptr<std::string>> interned_;
  std::size_t ring_capacity_ = std::size_t{1} << 13;
  std::uint32_t next_tid_ = 1;
  std::uint64_t retired_dropped_ = 0;
  std::atomic<std::uint64_t> epoch_{0};
};

/// Serialize events as a Chrome trace-event JSON object. `metadata` rows are
/// emitted verbatim into the top-level "metadata" object (pre-escaped pairs).
void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& events,
                        const std::vector<std::pair<std::string, std::string>>& metadata = {});

}  // namespace apollo::telemetry
