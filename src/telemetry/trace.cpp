#include "telemetry/trace.hpp"

#include <chrono>
#include <cstdio>
#include <map>
#include <ostream>

#include "telemetry/audit.hpp"  // json_escape

namespace apollo::telemetry {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Thread-local handle: a shared_ptr keeps the ring alive even if the tracer
/// is reset while this thread is mid-push; the epoch detects staleness.
struct TlsRef {
  std::shared_ptr<ThreadTraceBuffer> buffer;
  std::uint64_t epoch = ~std::uint64_t{0};
};
thread_local TlsRef t_ref;

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::Launch: return "launch";
    case EventKind::Decide: return "decide";
    case EventKind::Phase: return "phase";
    case EventKind::Retrain: return "retrain";
    case EventKind::SamplePush: return "sample_push";
    case EventKind::DriftFire: return "drift_fire";
    case EventKind::HotSwap: return "hot_swap";
    case EventKind::Explore: return "explore";
  }
  return "?";
}

ThreadTraceBuffer::ThreadTraceBuffer(std::size_t capacity_pow2, std::uint32_t tid)
    : ring_(capacity_pow2), mask_(capacity_pow2 - 1), tid_(tid) {}

std::size_t ThreadTraceBuffer::drain(std::vector<TraceEvent>& out) {
  std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::size_t count = static_cast<std::size_t>(head - tail);
  out.reserve(out.size() + count);
  for (; tail != head; ++tail) {
    TraceEvent event = ring_[static_cast<std::size_t>(tail) & mask_];
    event.tid = tid_;
    out.push_back(event);
  }
  tail_.store(tail, std::memory_order_release);
  return count;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - epoch).count());
}

ThreadTraceBuffer& Tracer::local() {
  const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (t_ref.buffer == nullptr || t_ref.epoch != epoch) {
    t_ref.buffer = register_thread();
    t_ref.epoch = epoch;
  }
  return *t_ref.buffer;
}

std::shared_ptr<ThreadTraceBuffer> Tracer::register_thread() {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_shared<ThreadTraceBuffer>(ring_capacity_, next_tid_++);
  buffers_.push_back(buffer);
  return buffer;
}

std::size_t Tracer::drain(std::vector<TraceEvent>& out) {
  // Copy the ring list so producers registering concurrently never wait on a
  // long drain; each ring's SPSC protocol handles its producer.
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::size_t total = 0;
  for (const auto& buffer : buffers) total += buffer->drain(out);
  return total;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = retired_dropped_;
  for (const auto& buffer : buffers_) total += buffer->dropped();
  return total;
}

std::size_t Tracer::thread_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return buffers_.size();
}

void Tracer::set_ring_capacity(std::size_t capacity) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ring_capacity_ = round_up_pow2(capacity < 2 ? 2 : capacity);
}

std::size_t Tracer::ring_capacity() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_capacity_;
}

const char* Tracer::intern(std::string_view name) {
  static std::map<std::string, const char*, std::less<>> table;
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = table.find(name);
  if (it != table.end()) return it->second;
  interned_.push_back(std::make_unique<std::string>(name));
  const char* stable = interned_.back()->c_str();
  table.emplace(std::string(name), stable);
  return stable;
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  buffers_.clear();
  retired_dropped_ = 0;
  next_tid_ = 1;
  epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& events,
                        const std::vector<std::pair<std::string, std::string>>& metadata) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& event : events) {
    if (!first) out << ",";
    first = false;
    const bool span = event.dur_ns > 0 || event.kind == EventKind::Launch ||
                      event.kind == EventKind::Decide || event.kind == EventKind::Phase ||
                      event.kind == EventKind::Retrain;
    const char* name = event.name != nullptr ? event.name : event_kind_name(event.kind);
    out << "\n{\"name\":\"" << json_escape(name) << "\",\"cat\":\""
        << event_kind_name(event.kind) << "\",\"pid\":1,\"tid\":" << event.tid
        << ",\"ts\":" << static_cast<double>(event.ts_ns) / 1e3;
    if (span) {
      out << ",\"ph\":\"X\",\"dur\":" << static_cast<double>(event.dur_ns) / 1e3;
    } else {
      out << ",\"ph\":\"i\",\"s\":\"t\"";
    }
    out << ",\"args\":{\"arg0\":" << event.arg0 << ",\"arg1\":" << event.arg1 << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{";
  bool first_meta = true;
  for (const auto& [key, value] : metadata) {
    if (!first_meta) out << ",";
    first_meta = false;
    out << "\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  out << "}}\n";
}

}  // namespace apollo::telemetry
