#pragma once

// Hardware performance-counter profiling with per-kernel×variant attribution.
//
// The telemetry stack observes wall time; this layer observes *why* a variant
// wins. A CounterProvider opens a window around a launch and yields scaled
// event deltas — instructions, cycles, cache misses, branch misses, stalled
// cycles. Two providers:
//
//   PerfEventProvider — grouped perf_event_open(2) counters on the launching
//     thread (pid=0, cpu=-1, user space only). The group is read twice per
//     window (delta read, counters never reset) with
//     PERF_FORMAT_TOTAL_TIME_ENABLED/RUNNING, and deltas are scaled by
//     enabled/running to correct for PMU multiplexing. Events that fail to
//     open are dropped from the valid mask rather than failing the group.
//
//   SoftwareProvider — deterministic fallback for containers where
//     perf_event_paranoid blocks the PMU. Thread CPU time
//     (clock_gettime(CLOCK_THREAD_CPUTIME_ID), getrusage(RUSAGE_THREAD) when
//     unavailable) drives synthetic counters at fixed ratios — cycles =
//     cpu-ns (nominal 1 GHz), instructions = cycles (IPC exactly 1), cache
//     misses = cycles/1024, branch misses = cycles/4096, stalled = cycles/8 —
//     so every test asserts the same numbers on every machine.
//
// Cost contract (bench/micro_hwprof_overhead): off (APOLLO_HW_STRIDE=0, the
// default) is one relaxed atomic load + branch per launch; on at the default
// stride (64) stays within 5% of the telemetry-on baseline. Windows ride a
// process-wide stride rotor (the QualityAccountant probe pattern), aggregate
// under one mutex per window (not per launch) into apollo_hw_* series in the
// MetricsRegistry, and annotate audit-log decisions.
//
// Environment (read by init_from_env, via the hardened telemetry/env parsers):
//   APOLLO_HW_STRIDE=n     profile every nth launch (0 = off, default;
//                          64 recommended when enabling)
//   APOLLO_HW_EVENTS=list  comma list of instructions,cycles,cache-misses,
//                          branch-misses,stalled-cycles (default: all)
//   APOLLO_HW_PROVIDER=p   auto | perf | software (default auto: perf when
//                          the PMU is usable, software otherwise)

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/audit.hpp"

namespace apollo::telemetry::hwprof {

// --- events ------------------------------------------------------------------

enum class Event : std::uint8_t {
  Instructions = 0,
  Cycles,
  CacheMisses,
  BranchMisses,
  StalledCycles,
};
inline constexpr std::size_t kEventCount = 5;
inline constexpr std::uint32_t kAllEventsMask = (1u << kEventCount) - 1;
inline constexpr std::size_t kDefaultOnStride = 64;

/// Canonical spelling used by APOLLO_HW_EVENTS and reports.
[[nodiscard]] const char* event_name(Event event) noexcept;
[[nodiscard]] std::optional<Event> event_from_name(std::string_view name) noexcept;

/// One closed window: scaled counter deltas for the events the provider
/// could actually deliver (valid_mask bit per Event).
struct HwSample {
  std::array<std::uint64_t, kEventCount> counts{};
  std::uint32_t valid_mask = 0;
  double scale = 1.0;  ///< multiplexing correction already applied to counts

  [[nodiscard]] bool has(Event event) const noexcept {
    return (valid_mask >> static_cast<unsigned>(event)) & 1u;
  }
  [[nodiscard]] std::uint64_t count(Event event) const noexcept {
    return counts[static_cast<std::size_t>(event)];
  }
};

// --- providers ---------------------------------------------------------------

/// A per-thread counter source. begin_window/end_window pair on the owning
/// thread; a provider instance is never shared across threads.
class CounterProvider {
public:
  virtual ~CounterProvider() = default;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Events this provider actually delivers (subset of the requested mask).
  [[nodiscard]] virtual std::uint32_t valid_mask() const noexcept = 0;
  virtual bool begin_window() = 0;
  virtual bool end_window(HwSample& sample) = 0;
};

enum class ProviderKind : std::uint8_t { Auto, Perf, Software };
[[nodiscard]] const char* provider_kind_name(ProviderKind kind) noexcept;

/// One cached probe: can this process open a perf hardware counter on the
/// calling thread? False when perf_event_paranoid (or a missing PMU) says no.
[[nodiscard]] bool perf_events_available();

/// Construct a provider of the given kind for the current thread (Auto
/// resolves through perf_events_available). Exposed for tests and benches;
/// the runtime path uses the thread-cached instance internally.
[[nodiscard]] std::unique_ptr<CounterProvider> make_provider(ProviderKind kind,
                                                             std::uint32_t event_mask);

// --- configuration -----------------------------------------------------------

struct HwConfig {
  std::size_t stride = 0;  ///< profile every nth launch (0 = off)
  std::uint32_t event_mask = kAllEventsMask;
  ProviderKind provider = ProviderKind::Auto;

  /// APOLLO_HW_{STRIDE,EVENTS,PROVIDER} through the hardened env parsers:
  /// garbage values warn on stderr and keep the documented default.
  [[nodiscard]] static HwConfig from_env();
};

/// Parse an APOLLO_HW_EVENTS comma list into a mask. Any unknown token warns
/// and yields the fallback mask (warn-and-default, like telemetry/env).
[[nodiscard]] std::uint32_t parse_event_mask(const std::string& text, std::uint32_t fallback);
/// Parse an APOLLO_HW_PROVIDER value ("auto"/"perf"/"software"); unknown
/// values warn and yield the fallback.
[[nodiscard]] ProviderKind parse_provider(const std::string& text, ProviderKind fallback);

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// The hot-path switch: exactly one relaxed load + branch when off.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Apply a configuration. stride > 0 flips the switch on, publishes the
/// provider-info gauge, and invalidates per-thread provider caches; stride 0
/// switches off.
void configure(const HwConfig& config);
[[nodiscard]] HwConfig config();

/// Read APOLLO_HW_* once and configure (called from telemetry::init_from_env;
/// idempotent).
void init_from_env();

/// Switch off, forget aggregation sums and the env-read latch, and invalidate
/// per-thread providers (tests/benches).
void reset_for_testing();

// --- the runtime hooks -------------------------------------------------------

/// Stride rotor over a process-wide relaxed tick: true on every stride-th
/// call (same budget pattern as the quality probes). Call only when enabled().
[[nodiscard]] bool window_due();

/// Open/close a window on the calling thread's cached provider. begin_window
/// returns false (and arms nothing) when no provider can be built.
bool begin_window();
bool end_window(HwSample& sample);

/// Fold one closed window into the per-kernel×variant aggregate and its
/// apollo_hw_* series (one mutex acquisition; called on the stride only).
void record_window(const std::string& kernel, const std::string& variant,
                   const HwSample& sample, std::uint64_t elements);

/// The provider name the current configuration resolves to ("perf",
/// "software", or "off").
[[nodiscard]] std::string active_provider_name();

// --- offline report (tools/apollo_prof, apollo_replay, tests) ----------------

/// One kernel×variant aggregate reconstructed from apollo_hw_* series.
struct ProfileRow {
  std::string kernel;
  std::string variant;
  std::uint64_t windows = 0;
  std::uint64_t elements = 0;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t branch_misses = 0;
  std::uint64_t stalled_cycles = 0;

  [[nodiscard]] double ipc() const noexcept;
  [[nodiscard]] double cache_miss_rate() const noexcept;   ///< misses / instruction
  [[nodiscard]] double branch_miss_rate() const noexcept;  ///< misses / instruction
  [[nodiscard]] double stall_fraction() const noexcept;    ///< stalled / cycles
  [[nodiscard]] double cycles_per_element() const noexcept;
};

/// Mean counter signature over a set of audited launches.
struct HwSignature {
  std::uint64_t launches = 0;
  double mean_ipc = 0.0;
  double mean_cache_miss_rate = 0.0;
  double mean_branch_miss_rate = 0.0;
  double mean_stall_fraction = 0.0;
};

/// Counter signatures of well-predicted vs mispredicted audited decisions.
/// Ground truth is the audit evidence itself: per (kernel, bucket), the
/// variant with the lowest mean measured seconds across all records; a
/// decision is mispredicted when it executed any other variant.
struct HwCorrelation {
  std::uint64_t audited = 0;  ///< decisions carrying an hw annotation
  HwSignature predicted;
  HwSignature mispredicted;
};
[[nodiscard]] HwCorrelation correlate_hw(const std::vector<AuditRecord>& records);

struct ProfileReport {
  std::string provider;            ///< from apollo_hw_provider_info ("" = unknown)
  std::vector<ProfileRow> rows;    ///< sorted by cycles, heaviest first
  bool has_audit = false;
  HwCorrelation correlation;
};

/// Build the report from a Prometheus text exposition (apollo_hw_* series)
/// plus optional parsed audit records.
[[nodiscard]] ProfileReport build_report(const std::string& metrics_text,
                                         const std::vector<AuditRecord>& audit_records);
/// Render at most `top` rows as an aligned text table / as JSON.
[[nodiscard]] std::string render_report_text(const ProfileReport& report, std::size_t top);
[[nodiscard]] std::string render_report_json(const ProfileReport& report, std::size_t top);

}  // namespace apollo::telemetry::hwprof
