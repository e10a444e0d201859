// apollo-adapt: demonstrate Mode::Adapt end to end on the simulated machine.
//
// Trains a policy model on a small-iteration workload, then shifts the
// workload to large iteration counts mid-run. A frozen Mode::Tune pass stays
// pinned to the now-wrong policy; the Mode::Adapt pass detects the drift,
// retrains in the background from its sample buffer, hot-swaps the new model,
// and converges back to near-oracle cost. With --model-dir the published
// generations are persisted (v000001.policy.model, ...) so a restarted
// process resumes from the adapted model instead of the stale one.
//
// Usage:
//   apollo_adapt [--pre N] [--post N] [--epsilon X] [--model-dir DIR]
//                [--save-offline FILE]
//
// --save-offline persists the offline-trained generation-0 policy model, so
// a later apollo_replay has a second candidate to compare against the
// adapted generations in --model-dir.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/stats_report.hpp"
#include "core/trainer.hpp"
#include "telemetry/build_info.hpp"

using namespace apollo;

namespace {

const KernelHandle& demo_kernel() {
  static const KernelHandle k{"adapt:demo", "DemoKernel",
                              instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24};
  return k;
}

std::int64_t size_at(std::size_t launch, std::size_t pre) {
  static const std::int64_t small[] = {2000, 4000, 8000};
  static const std::int64_t large[] = {150000, 250000};
  return launch < pre ? small[launch % 3] : large[launch % 2];
}

double oracle_cost(std::int64_t size) {
  const auto& rt = Runtime::instance();
  sim::CostQuery query;
  query.num_indices = size;
  query.num_segments = 1;
  query.mix = demo_kernel().mix();
  query.bytes_per_iteration = demo_kernel().bytes_per_iteration();
  query.threads = rt.machine().config().cores;
  query.kernel_seed = std::hash<std::string>{}(demo_kernel().loop_id());
  query.policy = sim::PolicyKind::Sequential;
  const double seq = rt.machine().cost_seconds(query);
  query.policy = sim::PolicyKind::OpenMP;
  return std::min(seq, rt.machine().cost_seconds(query));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", build_info_string().c_str());
    return 0;
  }
  std::size_t pre = 150;
  std::size_t post = 450;
  double epsilon = 0.05;
  std::string model_dir;
  std::string save_offline;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--pre") { if (const char* v = next()) pre = static_cast<std::size_t>(std::atoll(v)); }
    else if (arg == "--post") { if (const char* v = next()) post = static_cast<std::size_t>(std::atoll(v)); }
    else if (arg == "--epsilon") { if (const char* v = next()) epsilon = std::atof(v); }
    else if (arg == "--model-dir") { if (const char* v = next()) model_dir = v; }
    else if (arg == "--save-offline") { if (const char* v = next()) save_offline = v; }
    else {
      std::fprintf(stderr,
                   "usage: apollo_adapt [--pre N] [--post N] [--epsilon X] [--model-dir DIR] "
                   "[--save-offline FILE]\n");
      return 2;
    }
  }

  try {
    auto& rt = Runtime::instance();

    // Offline phase: record the small-size regime and train the initial model.
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(Mode::Record);
    TrainingConfig training;
    training.chunk_values.clear();
    rt.set_training_config(training);
    for (std::int64_t size : {1000, 2000, 4000, 8000, 12000}) {
      for (int step = 0; step < 8; ++step) {
        apollo::forall(demo_kernel(), raja::IndexSet::range(0, size), [](raja::Index) {});
      }
    }
    const TunerModel offline_model = Trainer::train(rt.records(), TunedParameter::Policy);
    std::printf("offline model trained on %zu samples (small sizes -> policy %s)\n\n",
                rt.records().size(), "seq");
    if (!save_offline.empty()) {
      offline_model.save_file(save_offline);
      std::printf("offline model saved to %s\n\n", save_offline.c_str());
    }

    // Online phase: same model, workload shifts after `pre` launches.
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(Mode::Adapt);
    online::OnlineConfig config;
    config.sample_stride = 4;
    config.min_retrain_samples = 32;
    config.post_drift_samples = 16;
    config.drift.window = 32;
    config.drift.min_samples = 8;
    config.drift.cooldown = 48;
    config.explorer.epsilon = epsilon;
    config.explorer.boosted_epsilon = std::max(epsilon, 0.40);
    config.model_dir = model_dir;
    rt.configure_online(config);
    rt.set_policy_model(offline_model);

    double shifted_cost = 0.0;
    double shifted_oracle = 0.0;
    std::uint64_t last_version = 0;
    std::uint64_t last_fires = 0;
    for (std::size_t launch = 0; launch < pre + post; ++launch) {
      const std::int64_t size = size_at(launch, pre);
      const double before = rt.stats().total_seconds;
      if (launch == pre) std::printf("launch %6zu: workload shift (sizes now >= 150k)\n", launch);
      apollo::forall(demo_kernel(), raja::IndexSet::range(0, size), [](raja::Index) {});
      if (launch >= pre) {
        shifted_cost += rt.stats().total_seconds - before;
        shifted_oracle += oracle_cost(size);
      }
      const auto status = rt.online().status();
      if (status.drift_fires > last_fires) {
        std::printf("launch %6zu: drift fired (mean regret over window crossed threshold)\n",
                    launch);
        last_fires = status.drift_fires;
      }
      if (status.retrain_in_flight) rt.online().wait_retrain_idle();
      if (rt.online().status().model_version > last_version) {
        last_version = rt.online().status().model_version;
        std::printf("launch %6zu: retrained model v%llu hot-swapped in\n", launch,
                    static_cast<unsigned long long>(last_version));
      }
    }

    const auto status = rt.online().status();
    std::printf("\nafter shift: adapt %.3f ms vs oracle %.3f ms (%.2fx)\n", shifted_cost * 1e3,
                shifted_oracle * 1e3, shifted_cost / shifted_oracle);
    std::printf("events: drift fires=%llu retrains=%llu explorations=%llu vetoed=%llu\n",
                static_cast<unsigned long long>(status.drift_fires),
                static_cast<unsigned long long>(status.retrains_completed),
                static_cast<unsigned long long>(status.explorations),
                static_cast<unsigned long long>(status.exploration_vetoes));
    if (!model_dir.empty()) {
      std::printf("published generations persisted to %s (LATEST -> v%06llu)\n",
                  model_dir.c_str(), static_cast<unsigned long long>(status.model_version));
    }
    const std::string quality = format_quality(rt.quality_snapshot());
    if (!quality.empty()) std::printf("\n%s", quality.c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "apollo_adapt: %s\n", error.what());
    return 1;
  }
  return 0;
}
