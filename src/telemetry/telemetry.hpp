#pragma once

// Telemetry facade: the one switch every instrumentation site checks, the
// configuration (from the environment or code), the background collector
// that drains trace rings and refreshes live export files, and the exporters.
// The metrics exposition is a view: each export asks the metrics source (the
// Runtime) to render every apollo_* series from the counter its layer keeps,
// so no launch writes a metric of its own.
//
// Cost contract (see bench/micro_telemetry_overhead):
//   - switch off: each site pays one relaxed atomic load + branch;
//   - switch on:  a site pays an SPSC ring push (~tens of ns) and/or a few
//     relaxed atomic increments; nothing on the hot path takes a
//     process-wide lock or allocates after a kernel's first launch.
//
// Environment (read once by init_from_env(), called from Runtime startup and
// tool mains):
//   APOLLO_TELEMETRY=1            enable tracing + metrics + introspection
//   APOLLO_TRACE_FILE=path        chrome://tracing JSON (default apollo_trace.json)
//   APOLLO_METRICS_FILE=path      Prometheus text ("-" or unset = stdout at exit;
//                                 a path is also refreshed live for apollo_top)
//   APOLLO_DECISIONS_FILE=path    the audit log's sampled tail: the last 8
//                                 introspected decisions per kernel as audit
//                                 lines (default apollo_decisions.jsonl,
//                                 refreshed live)
//   APOLLO_TELEMETRY_FLUSH_MS=n   live refresh cadence (default 500, 0 = off)
//   APOLLO_INTROSPECT_STRIDE=n    sample every nth tuned launch into the tail
//                                 with its tree path and predicted cost
//                                 (default 64, 0 = off)
//   APOLLO_PROBE_STRIDE=n         ground-truth probe every nth tuned launch
//                                 (default 64, 0 = off; model-timing runs only)
//   APOLLO_AUDIT_FILE=path        decision audit log base path (unset = off);
//                                 rotating segments <path>.000001.jsonl, ...
//   APOLLO_AUDIT_SEGMENT_BYTES=n  audit segment rotation size (default 4 MiB)
//   APOLLO_AUDIT_SEGMENTS=n       audit segments kept on disk (default 8)

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace apollo::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// The master switch. Exactly one relaxed load + branch when off.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

struct Config {
  std::string trace_file = "apollo_trace.json";  ///< "" disables trace export
  std::string metrics_file;      ///< "" or "-" = stdout at shutdown; path = file (live)
  std::string decisions_file = "apollo_decisions.jsonl";  ///< "" disables
  double flush_interval_seconds = 0.5;  ///< live metrics/decisions refresh (0 = off)
  std::size_t introspect_stride = 64;   ///< sample 1/n tuned launches (0 = off)
  std::size_t probe_stride = 64;        ///< ground-truth probe 1/n tuned launches (0 = off)
  std::string audit_file;               ///< audit log base path ("" disables)
  std::size_t audit_segment_bytes = 4u << 20;  ///< audit segment rotation size
  std::size_t audit_segments = 8;       ///< audit segments kept on disk
  std::size_t ring_capacity = std::size_t{1} << 13;  ///< per-thread trace ring
  std::size_t collector_event_limit = std::size_t{1} << 19;  ///< retained trace events
};

/// Replace the configuration (applies the ring capacity and the audit log
/// immediately). Does not flip the enabled switch or start the collector.
void configure(Config config);
[[nodiscard]] const Config& config();

/// Read APOLLO_TELEMETRY and friends; when enabled, flips the switch, starts
/// the collector, and registers an atexit exporter. Idempotent: returns true
/// only from the call that enabled telemetry from the environment.
bool init_from_env();

/// Renders the apollo_* series into an export from the objects that own the
/// numbers. Called on whichever thread exports (the collector on its flush
/// cadence, export_all), concurrently with launches.
using MetricsSource = std::function<void(MetricsSnapshot& out)>;
/// Install the source (nullptr removes it). Waits for an export that is
/// rendering from the previous one, so its owner may then be destroyed.
void set_metrics_source(MetricsSource source);
/// The exposition now: apollo_build_info plus the source's series.
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Start/stop the background collector thread (started automatically by
/// init_from_env when the env switch is set; benchmarks and tests drive it
/// explicitly). Safe to call repeatedly.
void start_collector();
void stop_collector();

/// Drain the tracer into the collector's event store (what the collector
/// thread does on its cadence; callable inline when no collector runs).
void collect_now();

/// Events retained so far (drained from rings; capped by
/// collector_event_limit — overflow is counted, not silently truncated).
[[nodiscard]] std::size_t collected_events();

/// Drain and write every configured export now: trace JSON, metrics text,
/// the decisions file. Called by shutdown(); usable mid-run.
void export_all();

/// Stop the collector and export. Idempotent; registered via atexit when the
/// env switch enabled telemetry, and called by ~Runtime before the runtime
/// the export reads tears down.
void shutdown();

/// Forget collected events and reset the audit log and its tail (tests,
/// benchmarks); the tracer starts a new epoch. Metrics are not touched: the
/// series their owners keep restart with Runtime::reset().
void reset_for_testing();

/// Convenience emitters (no-ops unless telemetry is enabled at call time —
/// callers on hot paths should check enabled() once themselves).
[[nodiscard]] inline std::uint64_t now_ns() noexcept { return Tracer::now_ns(); }

inline void emit_span(EventKind kind, const char* name, std::uint64_t start_ns,
                      std::uint64_t end_ns, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
  TraceEvent event;
  event.ts_ns = start_ns;
  event.dur_ns = end_ns > start_ns ? end_ns - start_ns : 1;
  event.name = name;
  event.arg0 = arg0;
  event.arg1 = arg1;
  event.kind = kind;
  Tracer::instance().emit(event);
}

inline void emit_instant(EventKind kind, const char* name, std::uint64_t arg0 = 0,
                         std::uint64_t arg1 = 0) {
  TraceEvent event;
  event.ts_ns = Tracer::now_ns();
  event.name = name;
  event.arg0 = arg0;
  event.arg1 = arg1;
  event.kind = kind;
  Tracer::instance().emit(event);
}

/// RAII span: checks the switch once at construction; emits on destruction.
class ScopedSpan {
public:
  explicit ScopedSpan(EventKind kind, const char* name, std::uint64_t arg0 = 0) noexcept {
    if (enabled()) {
      start_ns_ = Tracer::now_ns();
      name_ = name;
      kind_ = kind;
      arg0_ = arg0;
    }
  }
  ~ScopedSpan() {
    if (name_ != nullptr) emit_span(kind_, name_, start_ns_, Tracer::now_ns(), arg0_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg0_ = 0;
  EventKind kind_ = EventKind::Phase;
};

}  // namespace apollo::telemetry
