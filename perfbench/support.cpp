#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "perf/quantile.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return apollo::perf::percentile(values, q);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Trained train_policy(const std::vector<apollo::perf::SampleRecord>& records) {
  Trained trained;
  trained.records = records.size();
  const double start = now_seconds();
  trained.model = apollo::Trainer::train(records, apollo::TunedParameter::Policy);
  trained.train_s = now_seconds() - start;
  return trained;
}

void run_setup(Outcome& out, const std::function<Trained()>& setup) {
  std::vector<double> seconds;
  Trained trained;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double start = now_seconds();
    trained = setup();
    seconds.push_back(now_seconds() - start);
  }
  out.set("setup_s", median(seconds), "s");
  out.provenance.emplace_back("model_hash", model_hash(trained.model));
  out.set("ml.train_s", trained.train_s, "s");
  out.set("ml.train_records", static_cast<double>(trained.records), "count");
  out.set("ml.tree_depth", static_cast<double>(trained.model.tree().depth()), "count");
  out.set("ml.tree_nodes", static_cast<double>(trained.model.tree().node_count()), "count");
}

apollo::par::PoolStats pool_since(const apollo::par::PoolStats& since) {
  const apollo::par::PoolStats now = apollo::par::ThreadPool::stats();
  return {now.launches - since.launches, now.inline_runs - since.inline_runs,
          now.wakeups - since.wakeups, now.spin_completions - since.spin_completions,
          now.park_completions - since.park_completions};
}

void report_shared_layers(const LayerCounts& counts, Outcome& out) {
  auto& rt = apollo::Runtime::instance();
  const apollo::RunStats stats = rt.stats();
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  for (const auto& [loop_id, shard] : stats.per_kernel) {
    const apollo::KernelContext& context = rt.context_for_id(loop_id);
    hits += context.inline_cache_hits();
    misses += context.inline_cache_misses();
  }
  const double lookups = static_cast<double>(hits + misses);
  const double hit_ratio = lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  const double launches = static_cast<double>(std::max<std::int64_t>(1, counts.launches));
  const double pool_share = static_cast<double>(counts.pool.launches) / launches;
  const double writes_per_step = static_cast<double>(counts.blackboard_writes) / counts.steps;
  const double completions =
      static_cast<double>(counts.pool.spin_completions + counts.pool.park_completions);

  out.set("parallel.pool_launch_share", pool_share, "ratio");
  out.set("parallel.pool_launches", static_cast<double>(counts.pool.launches), "count");
  out.set("parallel.wakeups", static_cast<double>(counts.pool.wakeups), "count");
  out.set("parallel.park_share",
          completions > 0 ? static_cast<double>(counts.pool.park_completions) / completions : 0.0,
          "ratio");
  out.set("core.decide_ns_p50", stats.decision_latency.quantile(0.50) * 1e9, "ns");
  out.set("core.decide_ns_p99", stats.decision_latency.quantile(0.99) * 1e9, "ns");
  out.set("core.decisions", static_cast<double>(stats.decision_latency.count()), "count");
  out.set("core.inline_cache_hit_ratio", hit_ratio, "ratio");
  out.set("core.inline_cache_hits", static_cast<double>(hits), "count");
  out.set("core.inline_cache_misses", static_cast<double>(misses), "count");
  out.set("core.launches", static_cast<double>(counts.launches), "count");
  out.set("perf.blackboard_writes_per_step", writes_per_step, "1/step");
  out.set("apps.steps", counts.steps, "count");
  out.set("apps.launches_per_step", launches / counts.steps, "1/step");

  out.shape = {
      {"launches_per_step", launches / counts.steps},
      {"pool_launch_share", pool_share},
      {"inline_cache_hit_share", hit_ratio},
      {"blackboard_writes_per_step", writes_per_step},
  };
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string model_hash(const apollo::TunerModel& model) {
  std::ostringstream text;
  model.save(text);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text.str()) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

namespace {
void empty_block(const void*, std::int64_t, std::int64_t) {}
}  // namespace

double forkjoin_us_p50(int reps) {
  auto& pool = apollo::par::ThreadPool::global();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t start = now_ns();
    pool.parallel_for_blocks(0, 1000, 0, &empty_block, nullptr);
    samples.push_back(static_cast<double>(now_ns() - start) * 1e-3);
  }
  return median(std::move(samples));
}

}  // namespace perfbench
