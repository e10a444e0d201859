// apollo-top: live per-kernel status for a telemetry-enabled Apollo run.
//
// Tails the Prometheus metrics file and the decisions file that a run
// exports when APOLLO_TELEMETRY=1 and APOLLO_METRICS_FILE points at a path
// (both files are refreshed atomically on the flush cadence, so this tool
// never sees a torn file). The decisions file is the audit log's sampled
// tail, in the audit line format. Prints one row per kernel: launch count,
// dominant variant and its share, decision-latency percentiles, and the most
// recent sampled decision's label and predicted-vs-observed runtime. A
// damaged metrics line is skipped and counted on stderr, never misread.
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
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "perf/quantile.hpp"
#include "telemetry/audit.hpp"  // decision records; read_complete_lines
#include "telemetry/build_info.hpp"
#include "telemetry/metrics.hpp"  // parse_sample_line

namespace {

struct KernelRow {
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
  std::map<std::string, double, std::less<>> scalars;  ///< unlabeled series by name
  std::string build;

  /// An unlabeled series' value (0 when the file has none).
  [[nodiscard]] double scalar(std::string_view name) const {
    const auto it = scalars.find(name);
    return it != scalars.end() ? it->second : 0.0;
  }
};

// Quantiles from cumulative `le` buckets come from the shared helper
// (perf/quantile.hpp), interpolated like the exporter's Histogram.
using apollo::perf::bucket_quantile;

bool load_metrics(const std::string& path, Snapshot& snap) {
  std::ifstream in(path);
  if (!in) return false;
  std::size_t damaged = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto sample = apollo::telemetry::parse_sample_line(line);
    if (!sample) {
      ++damaged;
      continue;
    }
    const auto label = [&](const char* key) { return std::string(sample->label(key)); };
    if (sample->name == "apollo_dispatch_total") {
      snap.kernels[label("kernel")].variants[label("variant")] = sample->value;
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
    } else if (sample->name == "apollo_build_info") {
      snap.build = label("version");
      const std::string sha = label("git_sha");
      if (!sha.empty()) snap.build += " (git " + sha + ")";
    } else if (sample->labels.empty()) {
      snap.scalars[sample->name] = sample->value;
    }
  }
  if (damaged > 0) {
    std::fprintf(stderr, "apollo_top: skipped %zu damaged line%s in %s\n", damaged,
                 damaged == 1 ? "" : "s", path.c_str());
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
              snap.scalar("apollo_model_generation"), snap.scalar("apollo_hot_swaps_total"),
              snap.scalar("apollo_explore_total"), snap.scalar("apollo_samples_pushed_total"),
              snap.scalar("apollo_samples_dropped_total"),
              snap.scalar("apollo_sample_buffer_occupancy"));
  // Decision-path pane: how tuned launches were resolved — served from the
  // per-site inline cache, or by evaluating the model on a miss.
  const double hits = snap.scalar("apollo_inline_cache_hits_total");
  const double misses = snap.scalar("apollo_inline_cache_misses_total");
  if (hits > 0.0 || misses > 0.0) {
    std::printf("dispatch: inline cache %.0f hits / %.0f misses (%.1f%% hit)\n", hits, misses,
                hits / (hits + misses) * 100.0);
  }
  // Fork-join executor pane: how regions launched and how their waits ended.
  const double pool_launches = snap.scalar("apollo_pool_launches_total");
  const double pool_inline = snap.scalar("apollo_pool_inline_total");
  if (pool_launches > 0.0 || pool_inline > 0.0) {
    const double spin = snap.scalar("apollo_pool_spin_completions_total");
    const double waits = spin + snap.scalar("apollo_pool_park_completions_total");
    const double spin_pct = waits > 0.0 ? spin / waits * 100.0 : 0.0;
    std::printf("pool: %.0f fork-join / %.0f inline | wakeups %.0f | waits %.1f%% spin, "
                "%.1f%% park\n",
                pool_launches, pool_inline, snap.scalar("apollo_pool_wakeups_total"), spin_pct,
                waits > 0.0 ? 100.0 - spin_pct : 0.0);
  }
  std::printf("\n");
  std::printf("%-24s %10s %14s %6s %9s %9s %8s %9s\n", "kernel", "launches", "top-variant",
              "share", "p50-dec", "p95-dec", "pred", "pred/obs");
  // Launches per kernel are the sum of its per-variant dispatch counts.
  double launches_total = 0.0;
  bool any_quality = false;
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
    launches_total += total;
    if (row.accuracy >= 0.0) any_quality = true;
    const double share = total > 0.0 ? top_count / total * 100.0 : 0.0;
    const double p50 = bucket_quantile(row.buckets, row.decision_count, 0.50);
    const double p95 = bucket_quantile(row.buckets, row.decision_count, 0.95);
    const double ratio =
        row.observed_seconds > 0.0 ? row.predicted_seconds / row.observed_seconds : 0.0;
    std::printf("%-24s %10.0f %14s %5.1f%% %7.1fus %7.1fus %8s %9.2f\n", kernel.c_str(),
                total, top_variant.c_str(), share, p50 * 1e6, p95 * 1e6,
                row.predicted.empty() ? "-" : row.predicted.c_str(), ratio);
    if (row.drift_fires > 0.0) {
      std::printf("%-24s   drift fires: %.0f\n", "", row.drift_fires);
    }
  }

  // Model-quality pane: only once a tuned launch was scored (the gauges
  // exist only with APOLLO_TELEMETRY=1 in Tune/Adapt mode).
  const double probes = snap.scalar("apollo_probe_total");
  if (any_quality || probes > 0.0) {
    std::printf("\nmodel quality — probes %.0f / %.0f dispatches\n", probes, launches_total);
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
