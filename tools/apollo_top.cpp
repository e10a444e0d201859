// apollo-top: live per-kernel status for a telemetry-enabled Apollo run.
//
// Tails the Prometheus metrics file and the decisions file that a run
// exports when APOLLO_TELEMETRY=1 and APOLLO_METRICS_FILE points at a path
// (both files are refreshed atomically on the flush cadence, so this tool
// never sees a torn file). The decisions file is the audit log's sampled
// tail, in the audit line format. Prints one row per kernel: launch count,
// dominant variant and its share, decision-latency percentiles, and the most
// recent sampled decision's label and predicted-vs-observed runtime.
//
// Usage:
//   apollo_top [--metrics FILE] [--decisions FILE] [--interval SEC] [--once]
//
// Defaults match the runtime's defaults: apollo_metrics.prom and
// apollo_decisions.jsonl in the current directory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perf/quantile.hpp"
#include "telemetry/audit.hpp"  // decision records; read_complete_lines
#include "telemetry/build_info.hpp"

namespace {

struct LabelSet {
  std::map<std::string, std::string> labels;
};

struct MetricSample {
  std::string name;
  LabelSet labels;
  double value = 0.0;
};

/// Parse one `name{k="v",...} value` exposition line (labels optional).
std::optional<MetricSample> parse_line(const std::string& line) {
  if (line.empty() || line[0] == '#') return std::nullopt;
  MetricSample sample;
  std::size_t pos = line.find_first_of("{ ");
  if (pos == std::string::npos) return std::nullopt;
  sample.name = line.substr(0, pos);
  if (line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      const std::size_t eq = line.find('=', pos);
      if (eq == std::string::npos || line[eq + 1] != '"') return std::nullopt;
      const std::string key = line.substr(pos, eq - pos);
      std::string value;
      std::size_t v = eq + 2;
      while (v < line.size() && line[v] != '"') {
        if (line[v] == '\\' && v + 1 < line.size()) ++v;
        value += line[v++];
      }
      sample.labels.labels.emplace(key, std::move(value));
      pos = v + 1;
      if (pos < line.size() && line[pos] == ',') ++pos;
    }
    if (pos >= line.size()) return std::nullopt;
    ++pos;  // '}'
  }
  while (pos < line.size() && line[pos] == ' ') ++pos;
  sample.value = std::atof(line.c_str() + pos);
  return sample;
}

struct KernelRow {
  double launches = 0.0;
  std::map<std::string, double> variants;          ///< variant -> dispatch count
  std::vector<std::pair<double, double>> buckets;  ///< (le, cumulative) for decision latency
  double decision_count = 0.0;
  double drift_fires = 0.0;
  // Model quality (present once a tuned launch was scored).
  double accuracy = -1.0;  ///< -1 = no quality data exported yet
  double regret_seconds = 0.0;
  // Most recent sampled decision (from the JSONL).
  std::string predicted;
  double predicted_seconds = 0.0;
  double observed_seconds = 0.0;
};

struct Snapshot {
  std::map<std::string, KernelRow> kernels;
  double model_generation = 0.0;
  double hot_swaps = 0.0;
  double explores = 0.0;
  double probes = 0.0;
  double samples_pushed = 0.0;
  double samples_dropped = 0.0;
  double buffer_occupancy = 0.0;
  // Decision-path counters (apollo_inline_cache_*).
  double inline_hits = 0.0;
  double inline_misses = 0.0;
  // Fork-join executor counters (apollo_pool_*).
  double pool_launches = 0.0;
  double pool_inline = 0.0;
  double pool_wakeups = 0.0;
  double pool_spin = 0.0;
  double pool_park = 0.0;
  std::string build;
};

// Quantiles from cumulative `le` buckets come from the shared helper
// (perf/quantile.hpp), interpolated like the exporter's Histogram.
using apollo::perf::bucket_quantile;

bool load_metrics(const std::string& path, Snapshot& snap) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    const auto sample = parse_line(line);
    if (!sample) continue;
    const auto label = [&](const char* key) -> std::string {
      auto it = sample->labels.labels.find(key);
      return it != sample->labels.labels.end() ? it->second : std::string();
    };
    if (sample->name == "apollo_dispatch_total") {
      // Total launches per kernel are the sum of per-variant dispatch counts;
      // the runtime does not keep a separate launches counter on the hot path.
      KernelRow& row = snap.kernels[label("kernel")];
      row.variants[label("variant")] = sample->value;
      row.launches = 0.0;
      for (const auto& [variant, count] : row.variants) {
        (void)variant;
        row.launches += count;
      }
    } else if (sample->name == "apollo_decision_seconds_bucket") {
      const std::string le = label("le");
      if (le != "+Inf") {
        snap.kernels[label("kernel")].buckets.emplace_back(std::atof(le.c_str()), sample->value);
      }
    } else if (sample->name == "apollo_decision_seconds_count") {
      snap.kernels[label("kernel")].decision_count = sample->value;
    } else if (sample->name == "apollo_drift_fires_total") {
      snap.kernels[label("kernel")].drift_fires = sample->value;
    } else if (sample->name == "apollo_model_accuracy") {
      snap.kernels[label("kernel")].accuracy = sample->value;
    } else if (sample->name == "apollo_regret_seconds_total") {
      snap.kernels[label("kernel")].regret_seconds = sample->value;
    } else if (sample->name == "apollo_probe_total") {
      snap.probes = sample->value;
    } else if (sample->name == "apollo_model_generation") {
      snap.model_generation = sample->value;
    } else if (sample->name == "apollo_hot_swaps_total") {
      snap.hot_swaps = sample->value;
    } else if (sample->name == "apollo_explore_total") {
      snap.explores = sample->value;
    } else if (sample->name == "apollo_samples_pushed_total") {
      snap.samples_pushed = sample->value;
    } else if (sample->name == "apollo_samples_dropped_total") {
      snap.samples_dropped = sample->value;
    } else if (sample->name == "apollo_sample_buffer_occupancy") {
      snap.buffer_occupancy = sample->value;
    } else if (sample->name == "apollo_inline_cache_hits_total") {
      snap.inline_hits = sample->value;
    } else if (sample->name == "apollo_inline_cache_misses_total") {
      snap.inline_misses = sample->value;
    } else if (sample->name == "apollo_pool_launches_total") {
      snap.pool_launches = sample->value;
    } else if (sample->name == "apollo_pool_inline_total") {
      snap.pool_inline = sample->value;
    } else if (sample->name == "apollo_pool_wakeups_total") {
      snap.pool_wakeups = sample->value;
    } else if (sample->name == "apollo_pool_spin_completions_total") {
      snap.pool_spin = sample->value;
    } else if (sample->name == "apollo_pool_park_completions_total") {
      snap.pool_park = sample->value;
    } else if (sample->name == "apollo_build_info") {
      auto it = sample->labels.labels.find("version");
      auto sha = sample->labels.labels.find("git_sha");
      if (it != sample->labels.labels.end()) snap.build = it->second;
      if (sha != sample->labels.labels.end()) snap.build += " (git " + sha->second + ")";
    }
  }
  // The exporter emits cumulative buckets in ascending-le order already, but
  // sort defensively: the table must not depend on file ordering.
  for (auto& [kernel, row] : snap.kernels) {
    (void)kernel;
    std::sort(row.buckets.begin(), row.buckets.end());
  }
  return true;
}

void load_decisions(const std::string& path, Snapshot& snap) {
  // read_complete_lines drops a final unterminated line, so tailing a file a
  // writer is appending to mid-flush never misparses the torn record.
  const auto lines = apollo::telemetry::read_complete_lines(path);
  if (!lines) return;
  // Lines are grouped per kernel, oldest first: the last line seen per
  // kernel is its freshest sampled decision.
  for (const std::string& line : *lines) {
    const auto record = apollo::telemetry::parse_audit_line(line);
    if (!record || !record->sampled) continue;
    KernelRow& row = snap.kernels[record->kernel];
    row.predicted = record->label;
    row.predicted_seconds = record->predicted_seconds;
    row.observed_seconds = record->seconds;
  }
}

void print_snapshot(const Snapshot& snap) {
  std::printf("apollo_top — %s\n", snap.build.empty() ? apollo::build_info_string().c_str()
                                                      : snap.build.c_str());
  std::printf("model gen %.0f | hot swaps %.0f | explores %.0f | samples %.0f pushed / %.0f "
              "dropped / %.0f buffered\n",
              snap.model_generation, snap.hot_swaps, snap.explores, snap.samples_pushed,
              snap.samples_dropped, snap.buffer_occupancy);
  // Decision-path pane: how tuned launches were resolved — served from the
  // per-site inline cache, or by evaluating the model on a miss.
  if (snap.inline_hits > 0.0 || snap.inline_misses > 0.0) {
    const double lookups = snap.inline_hits + snap.inline_misses;
    std::printf("dispatch: inline cache %.0f hits / %.0f misses (%.1f%% hit)\n",
                snap.inline_hits, snap.inline_misses, snap.inline_hits / lookups * 100.0);
  }
  // Fork-join executor pane: how regions launched and how their waits ended.
  if (snap.pool_launches > 0.0 || snap.pool_inline > 0.0) {
    const double waits = snap.pool_spin + snap.pool_park;
    const double spin_pct = waits > 0.0 ? snap.pool_spin / waits * 100.0 : 0.0;
    std::printf("pool: %.0f fork-join / %.0f inline | wakeups %.0f | waits %.1f%% spin, "
                "%.1f%% park\n",
                snap.pool_launches, snap.pool_inline, snap.pool_wakeups, spin_pct,
                waits > 0.0 ? 100.0 - spin_pct : 0.0);
  }
  std::printf("\n");
  std::printf("%-24s %10s %14s %6s %9s %9s %8s %9s\n", "kernel", "launches", "top-variant",
              "share", "p50-dec", "p95-dec", "pred", "pred/obs");
  for (const auto& [kernel, row] : snap.kernels) {
    std::string top_variant = "-";
    double top_count = 0.0;
    double total = 0.0;
    for (const auto& [variant, count] : row.variants) {
      total += count;
      if (count > top_count) {
        top_count = count;
        top_variant = variant;
      }
    }
    const double share = total > 0.0 ? top_count / total * 100.0 : 0.0;
    const double p50 = bucket_quantile(row.buckets, row.decision_count, 0.50);
    const double p95 = bucket_quantile(row.buckets, row.decision_count, 0.95);
    const double ratio =
        row.observed_seconds > 0.0 ? row.predicted_seconds / row.observed_seconds : 0.0;
    std::printf("%-24s %10.0f %14s %5.1f%% %7.1fus %7.1fus %8s %9.2f\n", kernel.c_str(),
                row.launches, top_variant.c_str(), share, p50 * 1e6, p95 * 1e6,
                row.predicted.empty() ? "-" : row.predicted.c_str(), ratio);
    if (row.drift_fires > 0.0) {
      std::printf("%-24s   drift fires: %.0f\n", "", row.drift_fires);
    }
  }

  // Model-quality pane: only once a tuned launch was scored (the gauges
  // exist only with APOLLO_TELEMETRY=1 in Tune/Adapt mode).
  bool any_quality = false;
  double launches_total = 0.0;
  for (const auto& [kernel, row] : snap.kernels) {
    (void)kernel;
    launches_total += row.launches;
    if (row.accuracy >= 0.0) any_quality = true;
  }
  if (any_quality || snap.probes > 0.0) {
    std::printf("\nmodel quality — probes %.0f / %.0f dispatches\n", snap.probes, launches_total);
    std::printf("%-24s %9s %12s\n", "kernel", "accuracy", "regret");
    for (const auto& [kernel, row] : snap.kernels) {
      if (row.accuracy < 0.0) continue;
      std::printf("%-24s %8.1f%% %10.3fms\n", kernel.c_str(), row.accuracy * 100.0,
                  row.regret_seconds * 1e3);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_path = "apollo_metrics.prom";
  std::string decisions_path = "apollo_decisions.jsonl";
  double interval = 2.0;
  bool once = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--version") {
      std::printf("%s\n", apollo::build_info_string().c_str());
      return 0;
    } else if (arg == "--metrics") {
      if (const char* v = next()) metrics_path = v;
    } else if (arg == "--decisions") {
      if (const char* v = next()) decisions_path = v;
    } else if (arg == "--interval") {
      if (const char* v = next()) interval = std::atof(v);
    } else if (arg == "--once") {
      once = true;
    } else {
      std::fprintf(stderr,
                   "usage: apollo_top [--metrics FILE] [--decisions FILE] [--interval SEC] "
                   "[--once] [--version]\n");
      return 2;
    }
  }

  for (;;) {
    Snapshot snap;
    if (!load_metrics(metrics_path, snap)) {
      std::fprintf(stderr,
                   "apollo_top: cannot read %s (is the run exporting with APOLLO_TELEMETRY=1 "
                   "and APOLLO_METRICS_FILE set?)\n",
                   metrics_path.c_str());
      if (once) return 1;
    } else {
      load_decisions(decisions_path, snap);
      if (!once) std::printf("\033[2J\033[H");  // clear screen between refreshes
      print_snapshot(snap);
    }
    if (once) return 0;
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::duration<double>(std::max(0.1, interval)));
  }
}
