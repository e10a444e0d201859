// Concurrent-dispatch stress tests, written to run under ThreadSanitizer:
// 8 application threads launch 4 kernels through apollo::forall in every
// runtime mode. The accounting contract is exact — per-kernel invocation
// counts, model-charged seconds and the aggregate totals must equal what the
// launches issued imply, no matter how the threads interleave — and the
// control-plane operations (reset_stats, stats, hot-swap, retrain) must be
// safe to run concurrently with dispatch.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "core/features.hpp"
#include "core/runtime.hpp"
#include "core/tuner_model.hpp"
#include "ml/decision_tree.hpp"
#include "core/trainer.hpp"
#include "online/retrainer.hpp"
#include "perf/blackboard.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/telemetry.hpp"

using namespace apollo;

namespace {

constexpr int kThreads = 8;
constexpr int kKernels = 4;
constexpr std::int64_t kLaunchesPerThread = 200;  // per kernel
constexpr std::int64_t kPerKernel = kThreads * kLaunchesPerThread;
constexpr std::int64_t kTotal = kPerKernel * kKernels;

const KernelHandle& kernel_at(int k) {
  static const KernelHandle kernels[kKernels] = {
      {"stress:k0", "Stress0", instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24},
      {"stress:k1", "Stress1", instr::MixBuilder{}.fp(4).load(1).store(1).build(), 16},
      {"stress:k2", "Stress2", instr::MixBuilder{}.fp(1).load(3).store(2).build(), 40,
       raja::PolicyType::seq_segit_seq_exec},
      {"stress:k3", "Stress3", instr::MixBuilder{}.fp(8).div(1).load(2).store(1).build(), 24},
  };
  return kernels[k];
}

/// `threads` threads, each launching every kernel `launches_per_thread` times.
void run_stress(int threads = kThreads, std::int64_t launches_per_thread = kLaunchesPerThread) {
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([launches_per_thread] {
      const raja::IndexSet iset = raja::IndexSet::range(0, 512);
      for (std::int64_t i = 0; i < launches_per_thread; ++i) {
        for (int k = 0; k < kKernels; ++k) {
          forall(kernel_at(k), iset, [](raja::Index) {});
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
}

void expect_exact_counts(const RunStats& stats) {
  EXPECT_EQ(stats.invocations, kTotal);
  EXPECT_GT(stats.total_seconds, 0.0);
  double per_kernel_seconds = 0.0;
  for (int k = 0; k < kKernels; ++k) {
    const auto it = stats.per_kernel.find(kernel_at(k).loop_id());
    ASSERT_NE(it, stats.per_kernel.end()) << kernel_at(k).loop_id();
    EXPECT_EQ(it->second.invocations, kPerKernel);
    EXPECT_EQ(it->second.launch_seconds.count(), static_cast<std::uint64_t>(kPerKernel));
    per_kernel_seconds += it->second.seconds;
  }
  EXPECT_DOUBLE_EQ(stats.total_seconds, per_kernel_seconds);
}

/// Every tuned launch probes its call site's inline cache exactly once, and
/// the per-thread stripes count each probe as a hit or a miss.
void expect_exact_cache_probes() {
  for (int k = 0; k < kKernels; ++k) {
    const KernelContext& context = Runtime::instance().context_for(kernel_at(k));
    EXPECT_EQ(context.inline_cache_hits() + context.inline_cache_misses(), kPerKernel)
        << kernel_at(k).loop_id();
  }
}

/// A tiny policy model trained from a sweep recording of the stress kernels.
const TunerModel& stress_model() {
  static const TunerModel model = [] {
    auto& rt = Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(Mode::Record);
    TrainingConfig training;
    training.chunk_values.clear();
    rt.set_training_config(training);
    const raja::IndexSet iset = raja::IndexSet::range(0, 512);
    for (int step = 0; step < 8; ++step) {
      for (int k = 0; k < kKernels; ++k) {
        forall(kernel_at(k), iset, [](raja::Index) {});
      }
    }
    auto trained = Trainer::train(rt.records(), TunedParameter::Policy);
    rt.reset();
    return trained;
  }();
  return model;
}

/// A single-leaf policy model that always answers `label`.
TunerModel leaf_model(const char* label) {
  std::stringstream io;
  io << "apollo-tree 1\nfeatures 1 num_indices\nlabels 1 " << label
     << "\nnodes 1\n-1 0 -1 -1 0 1 0\n";
  return TunerModel(TunedParameter::Policy, ml::DecisionTree::load(io), {});
}

class ConcurrentDispatchTest : public ::testing::Test {
protected:
  void SetUp() override {
    Runtime::instance().reset();
    perf::Blackboard::instance().clear();
  }
  void TearDown() override {
    apollo::telemetry::set_enabled(false);
    Runtime::instance().reset();
    perf::Blackboard::instance().clear();
  }
};

}  // namespace

TEST_F(ConcurrentDispatchTest, OffModeCountsAreExact) {
  run_stress();
  expect_exact_counts(Runtime::instance().stats());
}

TEST_F(ConcurrentDispatchTest, ChargedSecondsDoNotDependOnInterleaving) {
  // Model timing draws each launch's noise from its kernel's own sample-id
  // stream, so a kernel's charged seconds are the same sum of the same draws
  // whether its launches come from one thread or race across eight.
  auto& rt = Runtime::instance();
  run_stress();
  const RunStats concurrent = rt.stats();
  rt.reset();
  run_stress(1, kThreads * kLaunchesPerThread);
  const RunStats sequential = rt.stats();
  expect_exact_counts(concurrent);
  expect_exact_counts(sequential);
  for (int k = 0; k < kKernels; ++k) {
    const std::string& loop_id = kernel_at(k).loop_id();
    const double expected = sequential.per_kernel.at(loop_id).seconds;
    EXPECT_NEAR(concurrent.per_kernel.at(loop_id).seconds, expected, 1e-12 * expected) << loop_id;
  }
}

TEST_F(ConcurrentDispatchTest, RecordModeCountsAndSamplesAreExact) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  // Forced-policy recording: exactly one sample per launch.
  TrainingConfig training;
  training.sweep_variants = false;
  rt.set_training_config(training);
  rt.sample_buffer().set_capacity(static_cast<std::size_t>(kTotal));
  run_stress();
  expect_exact_counts(rt.stats());
  EXPECT_EQ(rt.record_count(), static_cast<std::size_t>(kTotal));
}

TEST_F(ConcurrentDispatchTest, TuneModeCountsAreExactAndDecisionsLockFree) {
  const auto& model = stress_model();
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(model);
  run_stress();
  const RunStats stats = rt.stats();
  expect_exact_counts(stats);
  // Every tuned launch observes the always-on decision-latency histogram
  // exactly once.
  EXPECT_EQ(stats.decision_latency.count(), static_cast<std::uint64_t>(kTotal));
  expect_exact_cache_probes();
}

TEST_F(ConcurrentDispatchTest, TuneModeModelSwapRacesWithDispatch) {
  // Republishing the same model concurrently with tuned dispatch exercises
  // the snapshot epoch path: every launch must see either the old or the new
  // snapshot, never a torn one.
  const auto& model = stress_model();
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(model);
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_acquire)) {
      rt.set_policy_model(model);
      std::this_thread::yield();
    }
  });
  run_stress();
  stop.store(true, std::memory_order_release);
  swapper.join();
  expect_exact_counts(rt.stats());
}

TEST_F(ConcurrentDispatchTest, AdaptModeCountsAreExactAcrossHotSwaps) {
  const auto& model = stress_model();
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Adapt);
  rt.sample_buffer().set_capacity(8192);
  online::OnlineConfig config;
  config.retrain_every = 256;  // force retrains (and hot-swaps) mid-stress
  config.min_retrain_samples = 32;
  rt.configure_online(config);
  rt.set_policy_model(model);
  run_stress();
  rt.online().wait_retrain_idle();
  expect_exact_counts(rt.stats());
  expect_exact_cache_probes();
  // The tuner saw every launch exactly once (each kernel's launch count is
  // kept under that kernel's shard lock).
  EXPECT_EQ(rt.online().status().launches, static_cast<std::uint64_t>(kTotal));
}

TEST_F(ConcurrentDispatchTest, AdaptModeLaunchAndExplorationCountsStayExact) {
  // The tuner's bookkeeping lives in per-kernel shards; with retrains forced
  // throughout the run, the summed counts must still equal what the threads
  // issued. Each kernel's exploration draws are a pure function of its own
  // draw index, so with one exploration rate (boosted or not) the number of
  // candidates drawn is known exactly in advance.
  const auto& model = stress_model();
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Adapt);
  rt.sample_buffer().set_capacity(8192);
  online::OnlineConfig config;
  config.retrain_every = 128;
  config.min_retrain_samples = 32;
  config.max_retrain_duty = 0.0;  // no throttle: retrain as often as the cadence allows
  config.explorer.epsilon = 0.2;
  config.explorer.boosted_epsilon = 0.2;
  rt.configure_online(config);
  rt.set_policy_model(model);
  run_stress();
  rt.online().wait_retrain_idle();

  const online::Explorer explorer(config.explorer);
  std::uint64_t expected_explorations = 0;
  for (int k = 0; k < kKernels; ++k) {
    const std::uint64_t stream = std::hash<std::string>{}(kernel_at(k).loop_id());
    for (std::int64_t n = 0; n < kPerKernel; ++n) {
      if (explorer.draw(stream, static_cast<std::uint64_t>(n))) ++expected_explorations;
    }
  }
  const auto status = rt.online().status();
  expect_exact_counts(rt.stats());
  expect_exact_cache_probes();
  EXPECT_EQ(status.launches, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(status.explorations, expected_explorations);
  EXPECT_LE(status.exploration_vetoes, status.explorations);
  EXPECT_GE(status.retrains_completed, 1u);
  EXPECT_EQ(status.retrains_failed, 0u) << rt.online().retrainer().last_error();
}

TEST_F(ConcurrentDispatchTest, ResetStatsRacesWithDispatch) {
  // reset_stats()/stats() used to touch the aggregate without the lock the
  // charge path held; now both walk the per-kernel shards. The test pins the
  // contract: concurrent resets never corrupt or crash, and a final quiesced
  // reset leaves exactly zero.
  auto& rt = Runtime::instance();
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      rt.reset_stats();
      const RunStats stats = rt.stats();
      EXPECT_GE(stats.invocations, 0);
      EXPECT_LE(stats.invocations, kTotal);
      std::this_thread::yield();
    }
  });
  run_stress();
  stop.store(true, std::memory_order_release);
  resetter.join();
  rt.reset_stats();
  EXPECT_EQ(rt.stats().invocations, 0);
  forall(kernel_at(0), 64, [](raja::Index) {});
  EXPECT_EQ(rt.stats().per_kernel.at("stress:k0").invocations, 1);
}

TEST_F(ConcurrentDispatchTest, QuiescedResetStatsZeroesEveryStripe) {
  // Eight threads fill several stripes of every kernel's launch and decision
  // histograms. The getters sum the stripes' unsigned counts, so a zero sum
  // after a quiesced reset means every stripe was zeroed.
  const auto& model = stress_model();
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(model);
  run_stress();
  rt.reset_stats();
  const auto expect_empty = [](const telemetry::Histogram& histogram, const std::string& what) {
    EXPECT_EQ(histogram.count(), 0u) << what;
    EXPECT_EQ(histogram.sum(), 0.0) << what;
    for (std::size_t b = 0; b <= histogram.bounds().size(); ++b) {
      EXPECT_EQ(histogram.bucket(b), 0u) << what << " bucket " << b;
    }
  };
  for (int k = 0; k < kKernels; ++k) {
    const KernelContext& context = rt.context_for(kernel_at(k));
    const KernelStats stats = context.stats_snapshot();
    EXPECT_EQ(stats.invocations, 0);
    EXPECT_EQ(stats.seconds, 0.0);
    expect_empty(stats.launch_seconds, kernel_at(k).loop_id() + " launch");
    expect_empty(context.decision_latency(), kernel_at(k).loop_id() + " decision");
  }
  EXPECT_EQ(rt.stats().decision_latency.count(), 0u);
}

TEST_F(ConcurrentDispatchTest, TelemetryOnTunedDispatchStaysExact) {
  const auto& model = stress_model();
  apollo::telemetry::set_enabled(true);
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(model);
  run_stress();
  expect_exact_counts(rt.stats());
  // Quality accounting ran for every kernel, and the process-wide probe
  // budget held across threads: at most one probe per probe_stride tuned
  // launches.
  EXPECT_EQ(rt.quality_snapshot().size(), static_cast<std::size_t>(kKernels));
  const std::size_t stride = apollo::telemetry::config().probe_stride;
  ASSERT_GT(stride, 0u);
  EXPECT_LE(rt.probe_count(), static_cast<std::uint64_t>(kTotal) / stride + 1);
}

TEST_F(ConcurrentDispatchTest, AdaptTelemetryQualityCountsStayExact) {
  // Adapt with telemetry on: every launch and every probe lands once in its
  // kernel's evidence table, under the kernel's one lock. So every launch the
  // explorer did not substitute is scored exactly once, and every probe is
  // counted, however the threads interleave.
  const auto& model = stress_model();
  apollo::telemetry::set_enabled(true);
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Adapt);
  rt.sample_buffer().set_capacity(8192);
  online::OnlineConfig config;
  config.explorer.epsilon = 0.2;
  config.explorer.boosted_epsilon = 0.2;
  rt.configure_online(config);
  rt.set_policy_model(model);
  run_stress();
  rt.online().wait_retrain_idle();

  const auto status = rt.online().status();
  std::uint64_t scored = 0;
  std::uint64_t probes = 0;
  for (const auto& [loop_id, quality] : rt.quality_snapshot()) {
    scored += quality.launches;
    probes += quality.probes;
  }
  expect_exact_counts(rt.stats());
  EXPECT_EQ(status.launches, static_cast<std::uint64_t>(kTotal));
  EXPECT_GT(status.explorations, status.exploration_vetoes);
  EXPECT_EQ(scored,
            static_cast<std::uint64_t>(kTotal) - (status.explorations - status.exploration_vetoes));
  const std::size_t stride = apollo::telemetry::config().probe_stride;
  ASSERT_GT(stride, 0u);
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(probes, rt.probe_count());
  EXPECT_LE(rt.probe_count(), static_cast<std::uint64_t>(kTotal) / stride + 1);
}

TEST_F(ConcurrentDispatchTest, AdaptLanesFoldLaunchesLeftPendingByExitedThreads) {
  // Each thread's Adapt launches of a kernel wait in that thread's lane until
  // a batch of 16 fills, and its recorded samples wait in its lane of the
  // sample buffer likewise. Threads that make one launch short of a batch
  // and exit leave every launch pending; the readers must fold them all.
  constexpr std::int64_t kShortOfABatch = 15;
  const auto& model = stress_model();
  apollo::telemetry::set_enabled(true);
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Adapt);
  rt.sample_buffer().set_capacity(8192);
  online::OnlineConfig config;
  config.explorer.epsilon = 0.2;
  config.explorer.boosted_epsilon = 0.2;
  rt.configure_online(config);
  rt.set_policy_model(model);
  // The push count is monotonic across resets; count this run's pushes.
  const std::uint64_t pushed_before = rt.sample_buffer().total_pushed();
  run_stress(kThreads, kShortOfABatch);
  rt.online().wait_retrain_idle();

  constexpr std::uint64_t kLaunches = kThreads * kShortOfABatch * kKernels;
  const auto status = rt.online().status();
  EXPECT_EQ(status.launches, kLaunches);
  std::uint64_t scored = 0;
  for (const auto& [loop_id, quality] : rt.quality_snapshot()) scored += quality.launches;
  EXPECT_EQ(scored, kLaunches - (status.explorations - status.exploration_vetoes));
  EXPECT_GT(rt.record_count(), 0u);
  EXPECT_EQ(rt.record_count(), rt.sample_buffer().total_pushed() - pushed_before);
}

TEST_F(ConcurrentDispatchTest, InlineCacheNeverServesStaleDecisionAcrossHotSwap) {
  // Two single-leaf models with opposite answers are hot-swapped continuously
  // while all threads dispatch through the per-site inline cache. The cache
  // key folds in the model epoch, so a cached decision from one model must
  // never be served under the other; once the swapping stops, the very next
  // launch must answer for the finally-published model.
  const TunerModel seq_model = leaf_model("seq");
  const TunerModel omp_model = leaf_model("omp");
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(seq_model);
  ASSERT_TRUE(rt.inline_cache_enabled());
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    bool seq = false;
    while (!stop.load(std::memory_order_acquire)) {
      rt.set_policy_model(seq ? seq_model : omp_model);
      seq = !seq;
      std::this_thread::yield();
    }
  });
  run_stress();
  stop.store(true, std::memory_order_release);
  swapper.join();
  expect_exact_counts(rt.stats());
  rt.set_policy_model(omp_model);
  const raja::IndexSet iset = raja::IndexSet::range(0, 512);
  for (int k = 0; k < kKernels; ++k) {
    EXPECT_EQ(rt.begin(kernel_at(k), iset).policy,
              raja::PolicyType::seq_segit_omp_parallel_for_exec)
        << kernel_at(k).loop_id();
  }
  rt.set_policy_model(seq_model);
  for (int k = 0; k < kKernels; ++k) {
    EXPECT_EQ(rt.begin(kernel_at(k), iset).policy, raja::PolicyType::seq_segit_seq_exec)
        << kernel_at(k).loop_id();
  }
}

TEST_F(ConcurrentDispatchTest, RecordsCarryTheGenerationTheLaunchDecidedWith) {
  // Thread A decides on registry generation 1 (seq). Before A ends, the main
  // thread publishes generation 2 (omp) and launches on it. A's decision
  // record, probe record and Decide span must still name generation 1: the
  // snapshot A decided with, not the one current when its end() runs.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / ("apollo_decided_gen_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  telemetry::reset_for_testing();
  telemetry::Config telemetry_config;
  telemetry_config.trace_file.clear();
  telemetry_config.decisions_file.clear();
  telemetry_config.flush_interval_seconds = 0.0;
  telemetry_config.introspect_stride = 1;  // every launch emits a Decide span
  telemetry_config.probe_stride = 1;       // and a probe
  telemetry_config.audit_file = (dir / "audit.jsonl").string();
  telemetry::configure(telemetry_config);
  telemetry::set_enabled(true);

  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Adapt);
  online::OnlineConfig config;
  config.explorer.epsilon = 0.0;
  config.explorer.boosted_epsilon = 0.0;
  rt.configure_online(config);
  ASSERT_EQ(rt.online().registry().publish(leaf_model("seq")), 1u);

  const KernelHandle& kernel = kernel_at(0);
  const raja::IndexSet iset = raja::IndexSet::range(0, 512);
  std::promise<void> a_decided;
  std::promise<void> b_ended;
  ModelParams a_params;
  std::thread a([&] {
    a_params = rt.begin(kernel, iset);
    a_decided.set_value();
    b_ended.get_future().wait();
    rt.end(kernel, iset, a_params);
  });
  a_decided.get_future().wait();
  EXPECT_EQ(rt.online().registry().publish(leaf_model("omp")), 2u);
  const ModelParams b_params = rt.begin(kernel, iset);
  rt.end(kernel, iset, b_params);
  b_ended.set_value();
  a.join();
  telemetry::set_enabled(false);
  EXPECT_EQ(a_params.policy, raja::PolicyType::seq_segit_seq_exec);
  EXPECT_EQ(b_params.policy, raja::PolicyType::seq_segit_omp_parallel_for_exec);

  // B ended first: its decision and probe, then A's.
  telemetry::AuditLog::instance().flush();
  std::vector<telemetry::AuditRecord> records;
  for (const std::string& path : telemetry::AuditLog::instance().segment_paths()) {
    const auto lines = telemetry::read_complete_lines(path);
    ASSERT_TRUE(lines.has_value()) << path;
    for (const std::string& line : *lines) {
      const auto record = telemetry::parse_audit_line(line);
      ASSERT_TRUE(record.has_value()) << line;
      records.push_back(*record);
    }
  }
  using Kind = telemetry::AuditRecord::Kind;
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].kind, Kind::Decision);
  EXPECT_EQ(records[0].label, "omp");
  EXPECT_EQ(records[0].model_version, 2u);
  EXPECT_EQ(records[1].kind, Kind::Probe);
  EXPECT_EQ(records[1].model_version, 2u);
  EXPECT_EQ(records[2].kind, Kind::Decision);
  EXPECT_EQ(records[2].label, "seq");
  EXPECT_EQ(records[2].model_version, 1u);
  EXPECT_EQ(records[3].kind, Kind::Probe);
  EXPECT_EQ(records[3].model_version, 1u);

  std::vector<telemetry::TraceEvent> events;
  telemetry::Tracer::instance().drain(events);
  std::multiset<std::uint64_t> decide_generations;
  for (const auto& event : events) {
    if (event.kind == telemetry::EventKind::Decide) decide_generations.insert(event.arg0);
  }
  EXPECT_EQ(decide_generations, (std::multiset<std::uint64_t>{1, 2}));

  telemetry::configure(telemetry::Config{});
  telemetry::reset_for_testing();
  fs::remove_all(dir);
}

namespace {

/// One recorded launch of `loop_id` at `n` iterations under `policy`. The
/// runtime comes from a fixed cost model whose seq/omp crossover depends on
/// the problem named on `board`, scaled by a per-repetition wobble.
online::Sample window_sample(const std::string& loop_id, std::int64_t n, raja::PolicyType policy,
                             const std::shared_ptr<const perf::SampleRecord>& board, int rep) {
  online::Sample sample;
  sample.kernel = instr::intern_signature(
      {loop_id, "Window", instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24});
  sample.index_type = raja::IndexType::range;
  sample.num_indices = n;
  sample.num_segments = 1;
  sample.app = board;
  sample.policy = policy;
  const bool noh = board->at(features::kProblemName).as_string() == "noh";
  const double seconds = policy == raja::PolicyType::seq_segit_seq_exec
                             ? static_cast<double>(n) * 1e-9
                             : (noh ? 100e-6 : 5e-6) + static_cast<double>(n) * 0.3e-9;
  sample.seconds = seconds * (1.0 + 0.01 * rep);
  return sample;
}

}  // namespace

TEST(RetrainWindow, CollapsedWindowTrainsTheSameModelAsTheRawWindow) {
  // Two blackboard snapshots with equal contents but distinct identities
  // (collapsed into separate records that the Trainer must merge back), and
  // a third problem whose crossover sits elsewhere.
  const auto sedov_a = std::make_shared<const perf::SampleRecord>(
      perf::SampleRecord{{features::kProblemName, perf::Value("sedov")}});
  const auto sedov_b = std::make_shared<const perf::SampleRecord>(*sedov_a);
  const auto noh = std::make_shared<const perf::SampleRecord>(
      perf::SampleRecord{{features::kProblemName, perf::Value("noh")}});
  const std::int64_t sizes[] = {256, 1024, 4096, 65536, 262144};
  const raja::PolicyType policies[] = {raja::PolicyType::seq_segit_seq_exec,
                                       raja::PolicyType::seq_segit_omp_parallel_for_exec};
  constexpr int kReps = 6;
  std::vector<online::Sample> window;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const char* loop_id : {"window:k0", "window:k1"}) {
      for (const auto& board : {sedov_a, sedov_b, noh}) {
        for (const std::int64_t n : sizes) {
          for (const raja::PolicyType policy : policies) {
            window.push_back(window_sample(loop_id, n, policy, board, rep));
          }
        }
      }
    }
  }
  std::vector<perf::SampleRecord> raw;
  for (const auto& sample : window) raw.push_back(sample.materialize());
  const std::vector<perf::SampleRecord> collapsed = online::collapse_window(window);
  ASSERT_EQ(collapsed.size(), window.size() / kReps);  // one record per distinct launch
  // Last-appearance order: the newest sample's group comes last.
  EXPECT_EQ(collapsed.back().at(features::kNumIndices).as_int(), window.back().num_indices);
  EXPECT_EQ(collapsed.back().at(features::kParamPolicy).as_string(),
            raja::policy_name(window.back().policy));
  EXPECT_EQ(collapsed.back().at(features::kMeasureCount).as_int(), kReps);

  // The labeled data agree row for row: same labels, launch counts and mean
  // runtimes (up to summation order where the equal snapshots merge).
  const LabeledData raw_data = Trainer::build_labeled_data(raw, TunedParameter::Policy);
  const LabeledData collapsed_data =
      Trainer::build_labeled_data(collapsed, TunedParameter::Policy);
  ASSERT_EQ(raw_data.dataset.feature_names(), collapsed_data.dataset.feature_names());
  ASSERT_EQ(raw_data.dataset.label_names(), collapsed_data.dataset.label_names());
  ASSERT_EQ(raw_data.dataset.num_rows(), collapsed_data.dataset.num_rows());
  std::map<std::vector<double>, std::size_t> collapsed_row;
  for (std::size_t r = 0; r < collapsed_data.dataset.num_rows(); ++r) {
    collapsed_row.emplace(collapsed_data.dataset.row(r), r);
  }
  std::set<int> labels;
  for (std::size_t r = 0; r < raw_data.dataset.num_rows(); ++r) {
    const auto it = collapsed_row.find(raw_data.dataset.row(r));
    ASSERT_NE(it, collapsed_row.end());
    labels.insert(raw_data.dataset.label(r));
    EXPECT_EQ(raw_data.dataset.label(r), collapsed_data.dataset.label(it->second));
    EXPECT_EQ(raw_data.row_counts[r], collapsed_data.row_counts[it->second]);
    for (const auto& [label, mean] : raw_data.runtimes[r]) {
      EXPECT_NEAR(collapsed_data.runtimes[it->second].at(label), mean, 1e-12 * mean);
    }
  }
  EXPECT_EQ(labels.size(), 2u);  // both policies win somewhere

  // And the fitted models predict the same label for every launch shape.
  const TunerModel raw_model = Trainer::train(raw_data, TunedParameter::Policy);
  const TunerModel collapsed_model = Trainer::train(collapsed_data, TunedParameter::Policy);
  EXPECT_EQ(raw_model.tree().predict_all(raw_data.dataset),
            collapsed_model.tree().predict_all(raw_data.dataset));
}
