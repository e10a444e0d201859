#include "telemetry/hwprof.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <sstream>
#include <tuple>

#include "telemetry/env.hpp"
#include "telemetry/metrics.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace apollo::telemetry::hwprof {

namespace detail {
std::atomic<bool> g_enabled{false};
}

// --- events ------------------------------------------------------------------

namespace {

constexpr const char* kEventNames[kEventCount] = {
    "instructions", "cycles", "cache-misses", "branch-misses", "stalled-cycles",
};

}  // namespace

const char* event_name(Event event) noexcept {
  return kEventNames[static_cast<std::size_t>(event)];
}

std::optional<Event> event_from_name(std::string_view name) noexcept {
  for (std::size_t e = 0; e < kEventCount; ++e) {
    if (name == kEventNames[e]) return static_cast<Event>(e);
  }
  return std::nullopt;
}

const char* provider_kind_name(ProviderKind kind) noexcept {
  switch (kind) {
    case ProviderKind::Auto: return "auto";
    case ProviderKind::Perf: return "perf";
    case ProviderKind::Software: return "software";
  }
  return "?";
}

// --- SoftwareProvider --------------------------------------------------------

namespace {

/// Thread CPU time in nanoseconds; the deterministic timebase behind the
/// synthetic counters. getrusage(RUSAGE_THREAD) is the fallback ingredient
/// where the POSIX thread clock is unavailable.
std::uint64_t thread_cpu_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
#if defined(__linux__)
  rusage usage{};
  if (getrusage(RUSAGE_THREAD, &usage) == 0) {
    const auto to_ns = [](const timeval& tv) {
      return static_cast<std::uint64_t>(tv.tv_sec) * 1000000000ull +
             static_cast<std::uint64_t>(tv.tv_usec) * 1000ull;
    };
    return to_ns(usage.ru_utime) + to_ns(usage.ru_stime);
  }
#endif
  return 0;
}

/// Deterministic fallback: synthetic counters at fixed ratios of thread CPU
/// time, so assertions hold bit-exactly on every machine (see hwprof.hpp).
class SoftwareProvider final : public CounterProvider {
public:
  explicit SoftwareProvider(std::uint32_t event_mask) : mask_(event_mask & kAllEventsMask) {}

  [[nodiscard]] const char* name() const noexcept override { return "software"; }
  [[nodiscard]] std::uint32_t valid_mask() const noexcept override { return mask_; }

  bool begin_window() override {
    begin_ns_ = thread_cpu_ns();
    return true;
  }

  bool end_window(HwSample& sample) override {
    // A window shorter than the clock granularity still counts as one unit
    // of work — zero cycles would poison every derived ratio.
    const std::uint64_t delta = std::max<std::uint64_t>(thread_cpu_ns() - begin_ns_, 1);
    sample = HwSample{};
    sample.valid_mask = mask_;
    sample.scale = 1.0;
    sample.counts[static_cast<std::size_t>(Event::Cycles)] = delta;
    sample.counts[static_cast<std::size_t>(Event::Instructions)] = delta;
    sample.counts[static_cast<std::size_t>(Event::CacheMisses)] = delta / 1024;
    sample.counts[static_cast<std::size_t>(Event::BranchMisses)] = delta / 4096;
    sample.counts[static_cast<std::size_t>(Event::StalledCycles)] = delta / 8;
    for (std::size_t e = 0; e < kEventCount; ++e) {
      if (((mask_ >> e) & 1u) == 0) sample.counts[e] = 0;
    }
    return true;
  }

private:
  std::uint32_t mask_ = 0;
  std::uint64_t begin_ns_ = 0;
};

// --- PerfEventProvider -------------------------------------------------------

#if defined(__linux__)

constexpr std::uint64_t kPerfConfigs[kEventCount] = {
    PERF_COUNT_HW_INSTRUCTIONS,     PERF_COUNT_HW_CPU_CYCLES,
    PERF_COUNT_HW_CACHE_MISSES,     PERF_COUNT_HW_BRANCH_MISSES,
    PERF_COUNT_HW_STALLED_CYCLES_FRONTEND,
};

int perf_event_open(perf_event_attr* attr, int group_fd) {
  return static_cast<int>(::syscall(SYS_perf_event_open, attr, /*pid=*/0, /*cpu=*/-1, group_fd,
                                    static_cast<unsigned long>(PERF_FLAG_FD_CLOEXEC)));
}

/// Grouped per-thread user-space counters, delta-read (never reset) with the
/// enabled/running multiplexing correction.
class PerfEventProvider final : public CounterProvider {
public:
  explicit PerfEventProvider(std::uint32_t event_mask) {
    fds_.fill(-1);
    slot_.fill(-1);
    int next_slot = 0;
    for (std::size_t e = 0; e < kEventCount; ++e) {
      if (((event_mask >> e) & 1u) == 0) continue;
      perf_event_attr attr{};
      attr.size = sizeof(attr);
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = kPerfConfigs[e];
      attr.disabled = 0;
      attr.inherit = 0;
      attr.exclude_kernel = 1;
      attr.exclude_hv = 1;
      attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                         PERF_FORMAT_TOTAL_TIME_RUNNING;
      const int fd = perf_event_open(&attr, group_fd_);
      // A PMU without this event (or a cgroup quota) drops the event, not
      // the provider; the valid mask tells consumers what they got.
      if (fd < 0) continue;
      if (group_fd_ < 0) group_fd_ = fd;
      fds_[e] = fd;
      slot_[e] = next_slot++;
      mask_ |= 1u << e;
    }
  }

  ~PerfEventProvider() override {
    for (std::size_t e = 0; e < kEventCount; ++e) {
      if (fds_[e] >= 0 && fds_[e] != group_fd_) ::close(fds_[e]);
    }
    if (group_fd_ >= 0) ::close(group_fd_);
  }

  [[nodiscard]] const char* name() const noexcept override { return "perf"; }
  [[nodiscard]] std::uint32_t valid_mask() const noexcept override { return mask_; }
  [[nodiscard]] bool usable() const noexcept { return group_fd_ >= 0 && mask_ != 0; }

  bool begin_window() override { return read_group(begin_); }

  bool end_window(HwSample& sample) override {
    ReadBuf end{};
    if (!read_group(end)) return false;
    sample = HwSample{};
    sample.valid_mask = mask_;
    // Multiplexing correction: counts scale by the fraction of the window
    // the group was actually on the PMU.
    const std::uint64_t enabled = end.time_enabled - begin_.time_enabled;
    const std::uint64_t running = end.time_running - begin_.time_running;
    sample.scale = running > 0 ? static_cast<double>(enabled) / static_cast<double>(running) : 1.0;
    for (std::size_t e = 0; e < kEventCount; ++e) {
      if (slot_[e] < 0) continue;
      const std::uint64_t delta =
          end.values[slot_[e]] - begin_.values[slot_[e]];
      sample.counts[e] = static_cast<std::uint64_t>(static_cast<double>(delta) * sample.scale);
    }
    return true;
  }

private:
  struct ReadBuf {
    std::uint64_t nr = 0;
    std::uint64_t time_enabled = 0;
    std::uint64_t time_running = 0;
    std::uint64_t values[kEventCount] = {};
  };

  bool read_group(ReadBuf& buf) {
    if (group_fd_ < 0) return false;
    const ssize_t got = ::read(group_fd_, &buf, sizeof(buf));
    return got >= static_cast<ssize_t>(3 * sizeof(std::uint64_t)) && buf.nr >= 1;
  }

  int group_fd_ = -1;
  std::array<int, kEventCount> fds_{};
  std::array<int, kEventCount> slot_{};
  std::uint32_t mask_ = 0;
  ReadBuf begin_{};
};

#endif  // __linux__

}  // namespace

bool perf_events_available() {
#if defined(__linux__)
  static const bool available = [] {
    PerfEventProvider probe(1u << static_cast<unsigned>(Event::Instructions));
    if (!probe.usable()) return false;
    HwSample sample;
    return probe.begin_window() && probe.end_window(sample);
  }();
  return available;
#else
  return false;
#endif
}

std::unique_ptr<CounterProvider> make_provider(ProviderKind kind, std::uint32_t event_mask) {
  ProviderKind resolved = kind;
  if (resolved == ProviderKind::Auto) {
    resolved = perf_events_available() ? ProviderKind::Perf : ProviderKind::Software;
  }
#if defined(__linux__)
  if (resolved == ProviderKind::Perf) {
    auto provider = std::make_unique<PerfEventProvider>(event_mask);
    if (provider->usable()) return provider;
    std::fprintf(stderr,
                 "apollo hwprof: perf counters unavailable "
                 "(perf_event_paranoid?); falling back to the software provider\n");
  }
#else
  if (resolved == ProviderKind::Perf) {
    std::fprintf(stderr,
                 "apollo hwprof: perf counters are Linux-only; "
                 "falling back to the software provider\n");
  }
#endif
  return std::make_unique<SoftwareProvider>(event_mask);
}

// --- configuration -----------------------------------------------------------

namespace {

struct HwState {
  std::mutex mutex;
  HwConfig config;
  bool env_initialized = false;
  std::atomic<std::uint64_t> tick{0};
  /// Bumped by configure/reset so per-thread providers rebuild lazily.
  std::atomic<std::uint64_t> epoch{1};

  static HwState& instance() {
    static HwState state;
    return state;
  }
};

struct ThreadProvider {
  std::uint64_t epoch = 0;
  std::unique_ptr<CounterProvider> provider;
};
thread_local ThreadProvider t_provider;

CounterProvider* thread_provider() {
  HwState& state = HwState::instance();
  const std::uint64_t epoch = state.epoch.load(std::memory_order_acquire);
  if (t_provider.epoch != epoch) {
    HwConfig cfg;
    {
      const std::lock_guard<std::mutex> lock(state.mutex);
      cfg = state.config;
    }
    t_provider.provider =
        cfg.stride > 0 ? make_provider(cfg.provider, cfg.event_mask) : nullptr;
    t_provider.epoch = epoch;
  }
  return t_provider.provider.get();
}

}  // namespace

std::uint32_t parse_event_mask(const std::string& text, std::uint32_t fallback) {
  if (text.empty()) return fallback;
  std::uint32_t mask = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    std::string token = text.substr(start, comma - start);
    const auto first = token.find_first_not_of(" \t");
    const auto last = token.find_last_not_of(" \t");
    token = first == std::string::npos ? std::string() : token.substr(first, last - first + 1);
    if (!token.empty()) {
      const auto event = event_from_name(token);
      if (!event) {
        std::fprintf(stderr,
                     "apollo: ignoring APOLLO_HW_EVENTS=\"%s\" (unknown event \"%s\"); "
                     "using the default\n",
                     text.c_str(), token.c_str());
        return fallback;
      }
      mask |= 1u << static_cast<unsigned>(*event);
    }
    if (comma == text.size()) break;
    start = comma + 1;
  }
  if (mask == 0) {
    std::fprintf(stderr, "apollo: ignoring APOLLO_HW_EVENTS=\"%s\" (no events); using the default\n",
                 text.c_str());
    return fallback;
  }
  return mask;
}

ProviderKind parse_provider(const std::string& text, ProviderKind fallback) {
  if (text.empty()) return fallback;
  if (text == "auto") return ProviderKind::Auto;
  if (text == "perf") return ProviderKind::Perf;
  if (text == "software") return ProviderKind::Software;
  std::fprintf(stderr,
               "apollo: ignoring APOLLO_HW_PROVIDER=\"%s\" (expected auto, perf, or software); "
               "using the default\n",
               text.c_str());
  return fallback;
}

HwConfig HwConfig::from_env() {
  HwConfig cfg;
  cfg.stride = env_size("APOLLO_HW_STRIDE", cfg.stride, 0);
  cfg.event_mask = parse_event_mask(env_string("APOLLO_HW_EVENTS"), cfg.event_mask);
  cfg.provider = parse_provider(env_string("APOLLO_HW_PROVIDER"), cfg.provider);
  return cfg;
}

std::string active_provider_name() {
  HwState& state = HwState::instance();
  HwConfig cfg;
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    cfg = state.config;
  }
  if (cfg.stride == 0) return "off";
  ProviderKind resolved = cfg.provider;
  if (resolved == ProviderKind::Auto) {
    resolved = perf_events_available() ? ProviderKind::Perf : ProviderKind::Software;
  }
  if (resolved == ProviderKind::Perf && !perf_events_available()) {
    resolved = ProviderKind::Software;  // forced perf degrades at window time
  }
  return provider_kind_name(resolved);
}

void configure(const HwConfig& config) {
  HwState& state = HwState::instance();
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.config = config;
  }
  state.epoch.fetch_add(1, std::memory_order_release);
  detail::g_enabled.store(config.stride > 0, std::memory_order_relaxed);
  if (config.stride > 0) {
    std::string labels = "provider=\"";
    labels += active_provider_name();
    labels += "\"";
    MetricsRegistry::instance()
        .gauge("apollo_hw_provider_info",
               "Active hardware-counter provider; value is always 1.", labels)
        .set(1.0);
  }
}

HwConfig config() {
  HwState& state = HwState::instance();
  const std::lock_guard<std::mutex> lock(state.mutex);
  return state.config;
}

void init_from_env() {
  HwState& state = HwState::instance();
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    if (state.env_initialized) return;
    state.env_initialized = true;
  }
  const HwConfig cfg = HwConfig::from_env();
  if (cfg.stride > 0) configure(cfg);
}

bool window_due() {
  HwState& state = HwState::instance();
  std::size_t stride;
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    stride = state.config.stride;
  }
  if (stride == 0) return false;
  return state.tick.fetch_add(1, std::memory_order_relaxed) % stride == 0;
}

bool begin_window() {
  CounterProvider* provider = thread_provider();
  return provider != nullptr && provider->begin_window();
}

bool end_window(HwSample& sample) {
  CounterProvider* provider = thread_provider();
  return provider != nullptr && provider->end_window(sample);
}

// --- aggregation -------------------------------------------------------------

namespace {

constexpr const char* kCounterNames[kEventCount] = {
    "apollo_hw_instructions_total", "apollo_hw_cycles_total",
    "apollo_hw_cache_misses_total", "apollo_hw_branch_misses_total",
    "apollo_hw_stalled_cycles_total",
};
constexpr const char* kCounterHelp[kEventCount] = {
    "Instructions retired inside profiled launch windows.",
    "CPU cycles spent inside profiled launch windows.",
    "Last-level cache misses inside profiled launch windows.",
    "Branch mispredictions inside profiled launch windows.",
    "Frontend-stalled cycles inside profiled launch windows.",
};

struct Aggregate {
  Counter* windows = nullptr;
  Counter* elements = nullptr;
  std::array<Counter*, kEventCount> totals{};
  Gauge* ipc = nullptr;
  Gauge* cache_miss_rate = nullptr;
  Gauge* branch_miss_rate = nullptr;
  Gauge* stall_fraction = nullptr;
  Gauge* cycles_per_element = nullptr;
  std::array<double, kEventCount> sums{};
  double element_sum = 0.0;
};

struct Aggregator {
  std::mutex mutex;
  std::map<std::pair<std::string, std::string>, Aggregate> entries;

  static Aggregator& instance() {
    static Aggregator aggregator;
    return aggregator;
  }
};

Aggregate& aggregate_locked(const std::string& kernel, const std::string& variant) {
  Aggregator& agg = Aggregator::instance();
  auto it = agg.entries.find({kernel, variant});
  if (it != agg.entries.end()) return it->second;

  std::string labels = "kernel=\"" + kernel + "\",variant=\"" + variant + "\"";
  MetricsRegistry& registry = MetricsRegistry::instance();
  Aggregate entry;
  entry.windows = &registry.counter("apollo_hw_windows_total",
                                    "Profiled launch windows per kernel and variant.", labels);
  entry.elements = &registry.counter("apollo_hw_elements_total",
                                     "Loop elements covered by profiled windows.", labels);
  for (std::size_t e = 0; e < kEventCount; ++e) {
    entry.totals[e] = &registry.counter(kCounterNames[e], kCounterHelp[e], labels);
  }
  entry.ipc = &registry.gauge("apollo_hw_ipc", "Instructions per cycle over profiled windows.",
                              labels);
  entry.cache_miss_rate = &registry.gauge(
      "apollo_hw_cache_miss_rate", "Cache misses per instruction over profiled windows.", labels);
  entry.branch_miss_rate = &registry.gauge(
      "apollo_hw_branch_miss_rate", "Branch misses per instruction over profiled windows.",
      labels);
  entry.stall_fraction = &registry.gauge(
      "apollo_hw_stall_fraction", "Fraction of profiled cycles stalled in the frontend.", labels);
  entry.cycles_per_element = &registry.gauge(
      "apollo_hw_cycles_per_element", "Profiled cycles per loop element.", labels);
  return agg.entries.emplace(std::make_pair(kernel, variant), std::move(entry)).first->second;
}

}  // namespace

void record_window(const std::string& kernel, const std::string& variant, const HwSample& sample,
                   std::uint64_t elements) {
  Aggregator& agg = Aggregator::instance();
  const std::lock_guard<std::mutex> lock(agg.mutex);
  Aggregate& entry = aggregate_locked(kernel, variant);
  entry.windows->inc();
  entry.elements->inc(elements);
  entry.element_sum += static_cast<double>(elements);
  for (std::size_t e = 0; e < kEventCount; ++e) {
    if (((sample.valid_mask >> e) & 1u) == 0) continue;
    entry.totals[e]->inc(sample.counts[e]);
    entry.sums[e] += static_cast<double>(sample.counts[e]);
  }
  const double instructions = entry.sums[static_cast<std::size_t>(Event::Instructions)];
  const double cycles = entry.sums[static_cast<std::size_t>(Event::Cycles)];
  if (cycles > 0.0) {
    entry.ipc->set(instructions / cycles);
    entry.stall_fraction->set(entry.sums[static_cast<std::size_t>(Event::StalledCycles)] / cycles);
  }
  if (instructions > 0.0) {
    entry.cache_miss_rate->set(entry.sums[static_cast<std::size_t>(Event::CacheMisses)] /
                               instructions);
    entry.branch_miss_rate->set(entry.sums[static_cast<std::size_t>(Event::BranchMisses)] /
                                instructions);
  }
  if (entry.element_sum > 0.0) entry.cycles_per_element->set(cycles / entry.element_sum);
}

void reset_for_testing() {
  detail::g_enabled.store(false, std::memory_order_relaxed);
  HwState& state = HwState::instance();
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.config = HwConfig{};
    state.env_initialized = false;
  }
  state.tick.store(0, std::memory_order_relaxed);
  state.epoch.fetch_add(1, std::memory_order_release);
  Aggregator& agg = Aggregator::instance();
  const std::lock_guard<std::mutex> lock(agg.mutex);
  agg.entries.clear();  // metric handles stay registered; registry.zero() clears values
}

// --- offline report ----------------------------------------------------------

namespace {

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Minimal Prometheus text parser: `name{k="v",...} value`. Returns false on
/// comments and malformed lines.
struct PromSample {
  std::string name;
  std::string kernel;
  std::string variant;
  std::string provider;
  double value = 0.0;
};

bool parse_prom_line(const std::string& line, PromSample& out) {
  if (line.empty() || line[0] == '#') return false;
  const std::size_t brace = line.find('{');
  const std::size_t space = line.rfind(' ');
  if (space == std::string::npos || space == 0) return false;
  out = PromSample{};
  char* end = nullptr;
  out.value = std::strtod(line.c_str() + space + 1, &end);
  if (end == line.c_str() + space + 1) return false;
  if (brace == std::string::npos || brace > space) {
    out.name = line.substr(0, space);
    return !out.name.empty();
  }
  out.name = line.substr(0, brace);
  const std::size_t close = line.rfind('}', space);
  if (close == std::string::npos || close < brace) return false;
  std::size_t pos = brace + 1;
  while (pos < close) {
    const std::size_t eq = line.find('=', pos);
    if (eq == std::string::npos || eq > close) break;
    const std::string key = line.substr(pos, eq - pos);
    if (eq + 1 >= close || line[eq + 1] != '"') break;
    std::string value;
    std::size_t p = eq + 2;
    while (p < close && line[p] != '"') {
      if (line[p] == '\\' && p + 1 < close) ++p;
      value += line[p++];
    }
    if (key == "kernel") {
      out.kernel = value;
    } else if (key == "variant") {
      out.variant = value;
    } else if (key == "provider") {
      out.provider = value;
    }
    pos = p + 1;
    if (pos < close && line[pos] == ',') ++pos;
  }
  return true;
}

void accumulate_signature(HwSignature& signature, double ipc, double cache_rate,
                          double branch_rate, double stall) {
  // Running means, updated per launch.
  const double n = static_cast<double>(++signature.launches);
  signature.mean_ipc += (ipc - signature.mean_ipc) / n;
  signature.mean_cache_miss_rate += (cache_rate - signature.mean_cache_miss_rate) / n;
  signature.mean_branch_miss_rate += (branch_rate - signature.mean_branch_miss_rate) / n;
  signature.mean_stall_fraction += (stall - signature.mean_stall_fraction) / n;
}

void append_signature_json(std::ostringstream& out, const char* key,
                           const HwSignature& signature) {
  out << "\"" << key << "\":{\"launches\":" << signature.launches << ",\"mean_ipc\":"
      << signature.mean_ipc << ",\"mean_cache_miss_rate\":" << signature.mean_cache_miss_rate
      << ",\"mean_branch_miss_rate\":" << signature.mean_branch_miss_rate
      << ",\"mean_stall_fraction\":" << signature.mean_stall_fraction << "}";
}

}  // namespace

double ProfileRow::ipc() const noexcept {
  return ratio(static_cast<double>(instructions), static_cast<double>(cycles));
}
double ProfileRow::cache_miss_rate() const noexcept {
  return ratio(static_cast<double>(cache_misses), static_cast<double>(instructions));
}
double ProfileRow::branch_miss_rate() const noexcept {
  return ratio(static_cast<double>(branch_misses), static_cast<double>(instructions));
}
double ProfileRow::stall_fraction() const noexcept {
  return ratio(static_cast<double>(stalled_cycles), static_cast<double>(cycles));
}
double ProfileRow::cycles_per_element() const noexcept {
  return ratio(static_cast<double>(cycles), static_cast<double>(elements));
}

HwCorrelation correlate_hw(const std::vector<AuditRecord>& records) {
  HwCorrelation correlation;
  // Ground truth from the log itself: mean measured seconds per
  // (kernel, bucket, variant) over every record, probes included.
  struct VariantEvidence {
    double total = 0.0;
    std::uint64_t n = 0;
  };
  std::map<std::tuple<std::string, std::uint64_t, std::string>, VariantEvidence> evidence;
  const auto variant_of = [](const AuditRecord& record) {
    std::string variant = record.policy;
    if (record.chunk > 0) variant += "/c" + std::to_string(record.chunk);
    return variant;
  };
  for (const auto& record : records) {
    VariantEvidence& slot = evidence[{record.kernel, record.bucket, variant_of(record)}];
    slot.total += record.seconds;
    ++slot.n;
  }
  std::map<std::pair<std::string, std::uint64_t>, std::pair<std::string, double>> best;
  for (const auto& [key, slot] : evidence) {
    const auto& [kernel, bucket, variant] = key;
    const double mean = slot.total / static_cast<double>(slot.n);
    auto it = best.find({kernel, bucket});
    if (it == best.end() || mean < it->second.second) {
      best[{kernel, bucket}] = {variant, mean};
    }
  }
  for (const auto& record : records) {
    if (record.kind != AuditRecord::Kind::Decision || !record.has_hw) continue;
    ++correlation.audited;
    const double instructions = static_cast<double>(record.hw_instructions);
    const double cycles = static_cast<double>(record.hw_cycles);
    const auto it = best.find({record.kernel, record.bucket});
    const bool mispredicted = it != best.end() && it->second.first != variant_of(record);
    accumulate_signature(mispredicted ? correlation.mispredicted : correlation.predicted,
                         ratio(instructions, cycles),
                         ratio(static_cast<double>(record.hw_cache_misses), instructions),
                         ratio(static_cast<double>(record.hw_branch_misses), instructions),
                         ratio(static_cast<double>(record.hw_stalled_cycles), cycles));
  }
  return correlation;
}

ProfileReport build_report(const std::string& metrics_text,
                           const std::vector<AuditRecord>& audit_records) {
  ProfileReport report;
  std::map<std::pair<std::string, std::string>, ProfileRow> rows;
  std::istringstream in(metrics_text);
  std::string line;
  PromSample sample;
  while (std::getline(in, line)) {
    if (!parse_prom_line(line, sample)) continue;
    if (sample.name == "apollo_hw_provider_info") {
      report.provider = sample.provider;
      continue;
    }
    if (sample.name.rfind("apollo_hw_", 0) != 0 || sample.kernel.empty()) continue;
    ProfileRow& row = rows[{sample.kernel, sample.variant}];
    row.kernel = sample.kernel;
    row.variant = sample.variant;
    const auto count = static_cast<std::uint64_t>(sample.value);
    if (sample.name == "apollo_hw_windows_total") {
      row.windows = count;
    } else if (sample.name == "apollo_hw_elements_total") {
      row.elements = count;
    } else if (sample.name == "apollo_hw_instructions_total") {
      row.instructions = count;
    } else if (sample.name == "apollo_hw_cycles_total") {
      row.cycles = count;
    } else if (sample.name == "apollo_hw_cache_misses_total") {
      row.cache_misses = count;
    } else if (sample.name == "apollo_hw_branch_misses_total") {
      row.branch_misses = count;
    } else if (sample.name == "apollo_hw_stalled_cycles_total") {
      row.stalled_cycles = count;
    }
  }
  report.rows.reserve(rows.size());
  for (auto& [key, row] : rows) {
    if (row.windows == 0) continue;  // derived-only remnants carry no weight
    report.rows.push_back(std::move(row));
  }
  std::sort(report.rows.begin(), report.rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              if (a.cycles != b.cycles) return a.cycles > b.cycles;
              return std::tie(a.kernel, a.variant) < std::tie(b.kernel, b.variant);
            });
  if (!audit_records.empty()) {
    report.has_audit = true;
    report.correlation = correlate_hw(audit_records);
  }
  return report;
}

std::string render_report_text(const ProfileReport& report, std::size_t top) {
  std::ostringstream out;
  out << "apollo_prof: per-kernel/per-variant hardware profile";
  if (!report.provider.empty()) out << " (provider: " << report.provider << ")";
  out << "\n\n";
  if (report.rows.empty()) {
    out << "  no apollo_hw_* series found — was APOLLO_HW_STRIDE set?\n";
  } else {
    char line[256];
    std::snprintf(line, sizeof line, "  %-28s %-14s %8s %12s %7s %9s %9s %8s %9s\n", "kernel",
                  "variant", "windows", "cycles", "ipc", "cmiss/ki", "bmiss/ki", "stall%",
                  "cyc/elem");
    out << line;
    const std::size_t limit = top == 0 ? report.rows.size() : std::min(top, report.rows.size());
    for (std::size_t i = 0; i < limit; ++i) {
      const ProfileRow& row = report.rows[i];
      std::snprintf(line, sizeof line,
                    "  %-28s %-14s %8" PRIu64 " %12" PRIu64 " %7.2f %9.3f %9.3f %7.1f%% %9.1f\n",
                    row.kernel.c_str(), row.variant.c_str(), row.windows, row.cycles, row.ipc(),
                    row.cache_miss_rate() * 1e3, row.branch_miss_rate() * 1e3,
                    row.stall_fraction() * 100.0, row.cycles_per_element());
      out << line;
    }
    if (limit < report.rows.size()) {
      out << "  ... " << (report.rows.size() - limit) << " more (--top 0 for all)\n";
    }
  }
  if (report.has_audit) {
    const HwCorrelation& c = report.correlation;
    out << "\n  audit correlation (" << c.audited << " annotated decisions)\n";
    char line[192];
    std::snprintf(line, sizeof line, "  %-14s %9s %7s %9s %9s %8s\n", "decisions", "launches",
                  "ipc", "cmiss/ki", "bmiss/ki", "stall%");
    out << line;
    const auto render = [&](const char* label, const HwSignature& s) {
      std::snprintf(line, sizeof line, "  %-14s %9" PRIu64 " %7.2f %9.3f %9.3f %7.1f%%\n", label,
                    s.launches, s.mean_ipc, s.mean_cache_miss_rate * 1e3,
                    s.mean_branch_miss_rate * 1e3, s.mean_stall_fraction * 100.0);
      out << line;
    };
    render("predicted", c.predicted);
    render("mispredicted", c.mispredicted);
  }
  return out.str();
}

std::string render_report_json(const ProfileReport& report, std::size_t top) {
  std::ostringstream out;
  out << "{\"provider\":\"" << json_escape(report.provider) << "\",\"rows\":[";
  const std::size_t limit = top == 0 ? report.rows.size() : std::min(top, report.rows.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const ProfileRow& row = report.rows[i];
    if (i > 0) out << ",";
    out << "{\"kernel\":\"" << json_escape(row.kernel) << "\",\"variant\":\""
        << json_escape(row.variant) << "\",\"windows\":" << row.windows
        << ",\"elements\":" << row.elements << ",\"instructions\":" << row.instructions
        << ",\"cycles\":" << row.cycles << ",\"cache_misses\":" << row.cache_misses
        << ",\"branch_misses\":" << row.branch_misses
        << ",\"stalled_cycles\":" << row.stalled_cycles << ",\"ipc\":" << row.ipc()
        << ",\"cache_miss_rate\":" << row.cache_miss_rate()
        << ",\"branch_miss_rate\":" << row.branch_miss_rate()
        << ",\"stall_fraction\":" << row.stall_fraction()
        << ",\"cycles_per_element\":" << row.cycles_per_element() << "}";
  }
  out << "]";
  if (report.has_audit) {
    out << ",\"audit\":{\"annotated_decisions\":" << report.correlation.audited << ",";
    append_signature_json(out, "predicted", report.correlation.predicted);
    out << ",";
    append_signature_json(out, "mispredicted", report.correlation.mispredicted);
    out << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace apollo::telemetry::hwprof
