#include "telemetry/telemetry.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "telemetry/audit.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/env.hpp"

namespace apollo::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}

void set_enabled(bool on) noexcept { detail::g_enabled.store(on, std::memory_order_relaxed); }

namespace {

/// Collector state: the drained-event store and the background thread that
/// keeps it (and the live export files) fresh.
struct Collector {
  std::mutex mutex;
  Config config;
  std::vector<TraceEvent> events;   ///< drained, bounded by collector_event_limit
  std::uint64_t overflow = 0;       ///< events discarded once the store was full
  std::thread thread;
  std::condition_variable cv;
  bool running = false;
  bool stop_requested = false;
  bool env_initialized = false;
  /// The metrics source, under its own lock: an export holds it while it
  /// renders, so rendering never blocks the collector's other state.
  std::mutex source_mutex;
  MetricsSource source;

  static Collector& instance() {
    static Collector collector;
    return collector;
  }
};

/// Drain rings into the store (caller holds no lock).
void collect_into_store() {
  Collector& c = Collector::instance();
  std::vector<TraceEvent> fresh;
  Tracer::instance().drain(fresh);
  const std::lock_guard<std::mutex> lock(c.mutex);
  const std::size_t limit = c.config.collector_event_limit;
  for (auto& event : fresh) {
    if (c.events.size() >= limit) {
      ++c.overflow;
    } else {
      c.events.push_back(event);
    }
  }
}

void write_live_files() {
  Collector& c = Collector::instance();
  std::string metrics_file;
  std::string decisions_file;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    metrics_file = c.config.metrics_file;
    decisions_file = c.config.decisions_file;
  }
  try {
    if (!metrics_file.empty() && metrics_file != "-") {
      write_file_atomically(metrics_file, metrics_snapshot().text());
    }
    if (!decisions_file.empty()) AuditLog::instance().write_tail(decisions_file);
  } catch (const std::exception&) {
    // Live refresh is best-effort; the shutdown export reports real errors.
  }
  AuditLog::instance().flush();
}

void collector_loop() {
  Collector& c = Collector::instance();
  auto last_flush = std::chrono::steady_clock::now();
  for (;;) {
    double flush_interval;
    {
      std::unique_lock<std::mutex> lock(c.mutex);
      flush_interval = c.config.flush_interval_seconds;
      // Drain rings well ahead of the flush cadence so producers rarely fill.
      c.cv.wait_for(lock, std::chrono::milliseconds(20),
                    [&] { return c.stop_requested; });
      if (c.stop_requested) return;
    }
    collect_into_store();
    const auto now = std::chrono::steady_clock::now();
    if (flush_interval > 0.0 &&
        std::chrono::duration<double>(now - last_flush).count() >= flush_interval) {
      write_live_files();
      last_flush = now;
    }
  }
}

std::vector<std::pair<std::string, std::string>> export_metadata() {
  const BuildInfo& info = apollo::build_info();
  Collector& c = Collector::instance();
  std::uint64_t overflow;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    overflow = c.overflow;
  }
  return {
      {"apollo_build", apollo::build_info_string()},
      {"git_sha", info.git_sha},
      {"compiler", info.compiler},
      {"build_type", info.build_type},
      {"ring_dropped_events", std::to_string(Tracer::instance().dropped())},
      {"collector_overflow_events", std::to_string(overflow)},
  };
}

}  // namespace

void configure(Config config) {
  Collector& c = Collector::instance();
  Tracer::instance().set_ring_capacity(config.ring_capacity);
  AuditConfig audit;
  audit.base_path = config.audit_file;
  audit.segment_bytes = config.audit_segment_bytes;
  audit.max_segments = config.audit_segments;
  AuditLog::instance().configure(std::move(audit));
  const std::lock_guard<std::mutex> lock(c.mutex);
  c.config = std::move(config);
}

const Config& config() {
  // Callers treat the returned reference as read-mostly; fields are plain
  // values updated only by configure()/init_from_env().
  return Collector::instance().config;
}

bool init_from_env() {
  Collector& c = Collector::instance();
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    if (c.env_initialized) return false;
    c.env_initialized = true;
  }
  const char* env = std::getenv("APOLLO_TELEMETRY");
  const bool on = env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  if (!on) return false;

  Config cfg;
  cfg.trace_file = env_string("APOLLO_TRACE_FILE", cfg.trace_file);
  cfg.metrics_file = env_string("APOLLO_METRICS_FILE", cfg.metrics_file);
  cfg.decisions_file = env_string("APOLLO_DECISIONS_FILE", cfg.decisions_file);
  cfg.flush_interval_seconds =
      env_double("APOLLO_TELEMETRY_FLUSH_MS", cfg.flush_interval_seconds * 1e3, 0.0) / 1e3;
  cfg.introspect_stride = env_size("APOLLO_INTROSPECT_STRIDE", cfg.introspect_stride, 0);
  cfg.probe_stride = env_size("APOLLO_PROBE_STRIDE", cfg.probe_stride, 0);
  cfg.audit_file = env_string("APOLLO_AUDIT_FILE", cfg.audit_file);
  cfg.audit_segment_bytes =
      env_size("APOLLO_AUDIT_SEGMENT_BYTES", cfg.audit_segment_bytes, 1);
  cfg.audit_segments = env_size("APOLLO_AUDIT_SEGMENTS", cfg.audit_segments, 1);
  configure(std::move(cfg));
  set_enabled(true);
  start_collector();
  std::atexit([] { shutdown(); });
  return true;
}

void set_metrics_source(MetricsSource source) {
  Collector& c = Collector::instance();
  const std::lock_guard<std::mutex> lock(c.source_mutex);
  c.source = std::move(source);
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot out;
  const BuildInfo& info = apollo::build_info();
  out.add_gauge("apollo_build_info", "Build provenance; value is always 1.",
                label_pair("version", info.version) + "," + label_pair("git_sha", info.git_sha) +
                    "," + label_pair("compiler", info.compiler) + "," +
                    label_pair("build_type", info.build_type),
                1.0);
  Collector& c = Collector::instance();
  const std::lock_guard<std::mutex> lock(c.source_mutex);
  if (c.source) c.source(out);
  return out;
}

void start_collector() {
  Collector& c = Collector::instance();
  const std::lock_guard<std::mutex> lock(c.mutex);
  if (c.running) return;
  c.stop_requested = false;
  c.thread = std::thread(collector_loop);
  c.running = true;
}

void stop_collector() {
  Collector& c = Collector::instance();
  std::thread joinable;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    if (!c.running) return;
    c.stop_requested = true;
    c.cv.notify_all();
    joinable = std::move(c.thread);
    c.running = false;
  }
  joinable.join();
  collect_now();
}

void collect_now() { collect_into_store(); }

std::size_t collected_events() {
  Collector& c = Collector::instance();
  const std::lock_guard<std::mutex> lock(c.mutex);
  return c.events.size();
}

void export_all() {
  collect_into_store();
  Collector& c = Collector::instance();
  std::string trace_file;
  std::string metrics_file;
  std::string decisions_file;
  std::vector<TraceEvent> events;
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    trace_file = c.config.trace_file;
    metrics_file = c.config.metrics_file;
    decisions_file = c.config.decisions_file;
    events = c.events;
  }
  if (!trace_file.empty()) {
    std::ofstream out(trace_file);
    if (out) write_chrome_trace(out, events, export_metadata());
  }
  if (metrics_file.empty() || metrics_file == "-") {
    metrics_snapshot().write(std::cout);
  } else {
    try {
      write_file_atomically(metrics_file, metrics_snapshot().text());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "apollo telemetry: %s\n", error.what());
    }
  }
  if (!decisions_file.empty()) {
    try {
      AuditLog::instance().write_tail(decisions_file);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "apollo telemetry: %s\n", error.what());
    }
  }
}

void shutdown() {
  static std::atomic<bool> done{false};
  if (done.exchange(true)) return;
  stop_collector();
  if (enabled()) export_all();
  AuditLog::instance().close();
}

void reset_for_testing() {
  stop_collector();
  Collector& c = Collector::instance();
  {
    const std::lock_guard<std::mutex> lock(c.mutex);
    c.events.clear();
    c.overflow = 0;
  }
  Tracer::instance().reset();
  AuditLog::instance().reset_for_testing();
}

}  // namespace apollo::telemetry
