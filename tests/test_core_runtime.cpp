// Unit tests for the Apollo runtime: modes, recording protocols, tuning
// decisions, stats accounting, and the cluster accountant hook.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <tuple>

#include "core/cluster_accountant.hpp"
#include "core/features.hpp"
#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "perf/blackboard.hpp"
#include "telemetry/telemetry.hpp"

using namespace apollo;

namespace {

const KernelHandle& small_kernel() {
  static const KernelHandle k{"test:small", "SmallKernel",
                              instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24,
                              raja::PolicyType::seq_segit_omp_parallel_for_exec};
  return k;
}

const KernelHandle& seq_default_kernel() {
  static const KernelHandle k{"test:seqdef", "SeqDefault",
                              instr::MixBuilder{}.fp(2).build(), 8,
                              raja::PolicyType::seq_segit_seq_exec};
  return k;
}

class RuntimeTest : public ::testing::Test {
protected:
  void SetUp() override {
    Runtime::instance().reset();
    perf::Blackboard::instance().clear();
  }
  void TearDown() override {
    Runtime::instance().reset();
    perf::Blackboard::instance().clear();
  }
};

// The Record-mode sweep is the runtime's only search over the variant space,
// and it is exhaustive: every configured variant is measured once per launch.
class SearchRuntimeTest : public ::testing::Test {
protected:
  void SetUp() override { Runtime::instance().reset(); }
  void TearDown() override {
    Runtime::instance().reset();
    telemetry::set_enabled(false);
  }
};

}  // namespace

TEST_F(RuntimeTest, ModeNames) {
  EXPECT_STREQ(mode_name(Mode::Off), "off");
  EXPECT_STREQ(mode_name(Mode::Record), "record");
  EXPECT_STREQ(mode_name(Mode::Tune), "tune");
  EXPECT_STREQ(mode_name(Mode::Adapt), "adapt");
}

TEST_F(RuntimeTest, OffModeUsesKernelDefaultPolicy) {
  auto& rt = Runtime::instance();
  const raja::IndexSet iset = raja::IndexSet::range(0, 10);
  const ModelParams omp_params = rt.begin(small_kernel(), iset);
  EXPECT_EQ(omp_params.policy, raja::PolicyType::seq_segit_omp_parallel_for_exec);
  const ModelParams seq_params = rt.begin(seq_default_kernel(), iset);
  EXPECT_EQ(seq_params.policy, raja::PolicyType::seq_segit_seq_exec);
}

TEST_F(RuntimeTest, DefaultPolicyOverride) {
  auto& rt = Runtime::instance();
  rt.set_default_policy_override(raja::PolicyType::seq_segit_seq_exec);
  const raja::IndexSet iset = raja::IndexSet::range(0, 10);
  EXPECT_EQ(rt.begin(small_kernel(), iset).policy, raja::PolicyType::seq_segit_seq_exec);
  rt.set_default_policy_override(std::nullopt);
  EXPECT_EQ(rt.begin(small_kernel(), iset).policy,
            raja::PolicyType::seq_segit_omp_parallel_for_exec);
}

TEST_F(RuntimeTest, StatsAccumulatePerKernel) {
  auto& rt = Runtime::instance();
  forall(small_kernel(), 100, [](raja::Index) {});
  forall(small_kernel(), 100, [](raja::Index) {});
  forall(seq_default_kernel(), 10, [](raja::Index) {});
  EXPECT_EQ(rt.stats().invocations, 3);
  EXPECT_GT(rt.stats().total_seconds, 0.0);
  EXPECT_EQ(rt.stats().per_kernel.at("test:small").invocations, 2);
  EXPECT_EQ(rt.stats().per_kernel.at("test:seqdef").invocations, 1);
  rt.reset_stats();
  EXPECT_EQ(rt.stats().invocations, 0);
}

TEST_F(RuntimeTest, ForallExecutesBody) {
  std::vector<int> hits(64, 0);
  forall(small_kernel(), 64, [&](raja::Index i) { hits[static_cast<std::size_t>(i)]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(RuntimeTest, RecordSweepEmitsAllVariants) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  forall(small_kernel(), 100, [](raja::Index) {});
  // 1 seq + 1 omp default + 11 chunk variants.
  const auto& records = rt.records();
  ASSERT_EQ(records.size(), 13u);
  int seq = 0, omp = 0;
  for (const auto& r : records) {
    const std::string policy = r.at(features::kParamPolicy).as_string();
    (policy == "seq" ? seq : omp)++;
    EXPECT_GT(r.at(features::kMeasureRuntime).as_real(), 0.0);
    EXPECT_EQ(r.at(features::kNumIndices).as_int(), 100);
    EXPECT_EQ(r.at(features::kLoopId).as_string(), "test:small");
  }
  EXPECT_EQ(seq, 1);
  EXPECT_EQ(omp, 12);
}

TEST_F(RuntimeTest, RecordSweepRespectsChunkList) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  TrainingConfig cfg;
  cfg.chunk_values = {8, 64};
  rt.set_training_config(cfg);
  forall(small_kernel(), 100, [](raja::Index) {});
  EXPECT_EQ(rt.records().size(), 4u);  // seq + omp-default + 2 chunks
}

TEST_F(RuntimeTest, ForcedRecordingEmitsOneRecord) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  TrainingConfig cfg;
  cfg.sweep_variants = false;
  cfg.forced_policy = raja::PolicyType::seq_segit_seq_exec;
  cfg.forced_chunk = 0;
  rt.set_training_config(cfg);
  forall(small_kernel(), 100, [](raja::Index) {});
  ASSERT_EQ(rt.records().size(), 1u);
  EXPECT_EQ(rt.records()[0].at(features::kParamPolicy).as_string(), "seq");
}

TEST_F(RuntimeTest, SweepWithWallclockThrows) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  rt.set_timing_source(TimingSource::Wallclock);
  EXPECT_THROW(forall(small_kernel(), 100, [](raja::Index) {}), std::logic_error);
}

TEST_F(RuntimeTest, WallclockForcedRecordingWorks) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  rt.set_timing_source(TimingSource::Wallclock);
  TrainingConfig cfg;
  cfg.sweep_variants = false;
  rt.set_training_config(cfg);
  forall(small_kernel(), 1000, [](raja::Index) {});
  ASSERT_EQ(rt.records().size(), 1u);
  EXPECT_GT(rt.records()[0].at(features::kMeasureRuntime).as_real(), 0.0);
}

TEST_F(RuntimeTest, BlackboardAttributesLandInRecords) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  perf::ScopedAnnotation problem("problem_name", "sedov");
  perf::ScopedAnnotation step("timestep", 7);
  forall(small_kernel(), 100, [](raja::Index) {});
  const auto records = rt.records();  // a copy: keep it alive while reading
  const auto& r = records.front();
  EXPECT_EQ(r.at("problem_name").as_string(), "sedov");
  EXPECT_EQ(r.at("timestep").as_int(), 7);
}

TEST_F(RuntimeTest, RecordLaunchMaterializesTheFullRecord) {
  // A sample keeps only what varies per launch and points at its kernel's
  // interned signature; the record it materializes is still the full one,
  // byte for byte: every kernel and instruction feature, the launch shape,
  // the variant, the measurement and the blackboard attribute.
  static const KernelHandle kernel{"test:full_record", "FullRecord",
                                   instr::MixBuilder{}.fp(3).div(1).load(4).store(2).build(), 40};
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  TrainingConfig cfg;
  cfg.chunk_values.clear();
  cfg.thread_values = {4};
  rt.set_training_config(cfg);
  perf::ScopedAnnotation problem("problem_name", "sedov");
  raja::IndexSet iset;
  iset.push_back(raja::StridedSegment{0, 400, 4});
  iset.push_back(raja::StridedSegment{1000, 1200, 4});
  forall(kernel, iset, [](raja::Index) {});

  const auto samples = rt.sample_buffer().snapshot_shared();
  ASSERT_EQ(samples.size(), 3u);  // seq, omp, omp at a team of 4
  for (const auto& sample : samples) EXPECT_EQ(sample.kernel, kernel.signature());
  const auto records = rt.records();
  ASSERT_EQ(records.size(), 3u);
  const perf::SampleRecord& record = records.back();
  EXPECT_EQ(record.size(), instr::kMnemonicCount + 13);
  // The line the runtime wrote for this launch when each sample carried its
  // own copy of the kernel's signature.
  EXPECT_EQ(perf::encode_record(record),
            "add=i:2|and=i:0|call=i:0|cmp=i:0|comisd=i:0|divsd=i:1|func=s:FullRecord|"
            "func_size=i:10|inc=i:0|index_type=s:strided|jb=i:0|lea=i:0|loop=i:0|"
            "loop_id=s:test:full_record|maxsd=i:0|measure:bytes_per_iter=i:40|"
            "measure:runtime=r:1.2406604511956446e-05|minsd=i:0|mov=i:2|movsd=i:4|mulpd=i:1|"
            "nop=i:0|num_indices=i:150|num_segments=i:2|param:chunk_size=i:0|param:policy=s:omp|"
            "param:threads=i:4|pop=i:0|problem_name=s:sedov|push=i:0|pxor=i:0|ret=i:0|sar=i:0|"
            "shl=i:0|sqrtsd=i:0|stride=i:4|sub=i:0|test=i:0|ucomisd=i:0|unpckhpd=i:0|"
            "unpcklpd=i:0|xor=i:0|xorps=i:0");
}

TEST_F(RuntimeTest, TuneModeAppliesPolicyModel) {
  auto& rt = Runtime::instance();
  // Record a sweep over both a small and a large launch, train, tune.
  rt.set_mode(Mode::Record);
  for (int rep = 0; rep < 3; ++rep) {
    perf::ScopedAnnotation step("timestep", rep);
    forall(small_kernel(), 50, [](raja::Index) {});
    forall(small_kernel(), 200000, [](raja::Index) {});
  }
  const TunerModel model = Trainer::train(rt.records(), TunedParameter::Policy);

  rt.set_mode(Mode::Tune);
  rt.set_policy_model(model);
  const ModelParams small = rt.begin(small_kernel(), raja::IndexSet::range(0, 50));
  const ModelParams large = rt.begin(small_kernel(), raja::IndexSet::range(0, 200000));
  EXPECT_EQ(small.policy, raja::PolicyType::seq_segit_seq_exec);
  EXPECT_EQ(large.policy, raja::PolicyType::seq_segit_omp_parallel_for_exec);
}

TEST_F(RuntimeTest, TuneModeAppliesChunkModelOnlyForOmp) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  for (int rep = 0; rep < 3; ++rep) {
    forall(small_kernel(), 100000, [](raja::Index) {});
  }
  const TunerModel policy_model = Trainer::train(rt.records(), TunedParameter::Policy);
  const TunerModel chunk_model = Trainer::train(rt.records(), TunedParameter::ChunkSize);

  rt.set_mode(Mode::Tune);
  rt.set_policy_model(policy_model);
  rt.set_chunk_model(chunk_model);
  const ModelParams large = rt.begin(small_kernel(), raja::IndexSet::range(0, 100000));
  if (large.policy == raja::PolicyType::seq_segit_omp_parallel_for_exec) {
    EXPECT_GT(large.chunk_size, 0);
  } else {
    EXPECT_EQ(large.chunk_size, 0);
  }
}

TEST_F(RuntimeTest, ThreadSweepRecordsTeamSizes) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  TrainingConfig cfg;
  cfg.chunk_values.clear();
  cfg.thread_values = {2, 8, 16};
  rt.set_training_config(cfg);
  forall(small_kernel(), 5000, [](raja::Index) {});
  // seq + omp-default + 3 team-size variants.
  ASSERT_EQ(rt.records().size(), 5u);
  int with_team = 0;
  for (const auto& r : rt.records()) {
    if (r.count(features::kParamThreads)) ++with_team;
  }
  EXPECT_EQ(with_team, 3);

  // With the default chunk ladder one launch records the paper's 13
  // variants, then each team size at the default chunk, one record each.
  rt.clear_records();
  cfg = TrainingConfig{};
  cfg.thread_values = {2, 8, 16};
  rt.set_training_config(cfg);
  forall(small_kernel(), 5000, [](raja::Index) {});
  using Variant = std::tuple<std::string, std::int64_t, std::int64_t>;  // policy, chunk, team
  std::vector<Variant> expected{{"seq", 0, 0}, {"omp", 0, 0}};
  for (std::int64_t chunk = 1; chunk <= 1024; chunk *= 2) expected.emplace_back("omp", chunk, 0);
  for (std::int64_t team : {2, 8, 16}) expected.emplace_back("omp", 0, team);
  const auto records = rt.records();
  ASSERT_EQ(records.size(), 16u);
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto team = records[i].find(features::kParamThreads);
    EXPECT_EQ(Variant(records[i].at(features::kParamPolicy).as_string(),
                      records[i].at(features::kParamChunk).as_int(),
                      team != records[i].end() ? team->second.as_int() : 0),
              expected[i])
        << "record " << i;
  }
}

TEST_F(SearchRuntimeTest, ExhaustiveSweepAlsoCountsMeasured) {
  auto& rt = Runtime::instance();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Record);  // default training config: the full chunk ladder
  telemetry::set_enabled(true);
  forall(small_kernel(), 5000, [](raja::Index) {});
  telemetry::set_enabled(false);
  // seq + omp-default + 11 chunk variants, each measured once, none skipped.
  EXPECT_EQ(rt.record_count(), 13u);
  std::set<std::pair<std::string, std::int64_t>> variants;
  for (const auto& r : rt.records()) {
    EXPECT_GT(r.at(features::kMeasureRuntime).as_real(), 0.0);
    variants.emplace(r.at(features::kParamPolicy).as_string(),
                     r.at(features::kParamChunk).as_int());
  }
  EXPECT_EQ(variants.size(), 13u);
}

TEST_F(RuntimeTest, ThreadsModelSelectsTeamSize) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  TrainingConfig cfg;
  cfg.chunk_values.clear();
  cfg.thread_values = {2, 4, 8, 16};
  rt.set_training_config(cfg);
  for (int rep = 0; rep < 3; ++rep) {
    perf::ScopedAnnotation step("timestep", rep);
    forall(small_kernel(), 30000, [](raja::Index) {});
    forall(small_kernel(), 500000, [](raja::Index) {});
  }
  const TunerModel policy_model = Trainer::train(rt.records(), TunedParameter::Policy);
  const TunerModel threads_model = Trainer::train(rt.records(), TunedParameter::Threads);
  EXPECT_EQ(threads_model.parameter(), TunedParameter::Threads);

  rt.set_mode(Mode::Tune);
  rt.set_policy_model(policy_model);
  rt.set_threads_model(threads_model);
  const ModelParams params = rt.begin(small_kernel(), raja::IndexSet::range(0, 500000));
  if (params.policy == raja::PolicyType::seq_segit_omp_parallel_for_exec) {
    EXPECT_GT(params.threads, 0u);
    EXPECT_LE(params.threads, 16u);
  }
  EXPECT_THROW(rt.set_threads_model(policy_model), std::invalid_argument);
}

TEST_F(RuntimeTest, SetPolicyModelRejectsWrongParameter) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  forall(small_kernel(), 100, [](raja::Index) {});
  const TunerModel chunk_model = Trainer::train(rt.records(), TunedParameter::ChunkSize);
  EXPECT_THROW(rt.set_policy_model(chunk_model), std::invalid_argument);
  const TunerModel policy_model = Trainer::train(rt.records(), TunedParameter::Policy);
  EXPECT_THROW(rt.set_chunk_model(policy_model), std::invalid_argument);
}

TEST_F(RuntimeTest, ResolveFeatureCoversAllSources) {
  // A compiled model resolves each of its features from the kernel, the
  // IndexSet, the instruction mix or the blackboard. Categorical values
  // encode through the model's dictionary; a feature nobody knows is -1.
  ml::Dataset data(
      {"func", "num_indices", "index_type", "movsd", "problem_size", "unknown_feature"}, {"seq"});
  data.add_row({0.0, 0.0, 0.0, 0.0, 0.0, 0.0}, 0);
  const CompiledModel model = CompiledModel::compile(
      TunerModel(TunedParameter::Policy, ml::DecisionTree::fit(data),
                 {{"func", {"OtherKernel", "SmallKernel"}}, {"index_type", {"list", "range"}}}));
  perf::ScopedAnnotation size("problem_size", 48);
  std::vector<double> features;
  model.resolve_features(small_kernel(), raja::IndexSet::range(0, 123), features);
  EXPECT_EQ(features, (std::vector<double>{1.0, 123.0, 1.0, 2.0, 48.0, -1.0}));
}

TEST_F(RuntimeTest, FlushRecordsToFile) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  forall(small_kernel(), 100, [](raja::Index) {});
  const std::string path =
      (std::filesystem::temp_directory_path() / "apollo_runtime_records.txt").string();
  std::filesystem::remove(path);
  const std::size_t count = rt.records().size();
  rt.flush_records(path);
  EXPECT_TRUE(rt.records().empty());
  EXPECT_EQ(perf::read_records_file(path).size(), count);
  std::filesystem::remove(path);
}

TEST_F(RuntimeTest, ModelFileLoadIntoRuntime) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  forall(small_kernel(), 100, [](raja::Index) {});
  forall(small_kernel(), 100000, [](raja::Index) {});
  const TunerModel model = Trainer::train(rt.records(), TunedParameter::Policy);
  const std::string path =
      (std::filesystem::temp_directory_path() / "apollo_runtime.model").string();
  model.save_file(path);
  rt.load_policy_model_file(path);
  EXPECT_TRUE(rt.has_policy_model());
  std::filesystem::remove(path);
}

TEST_F(RuntimeTest, ExecuteSelectedFalseStillCharges) {
  auto& rt = Runtime::instance();
  rt.set_execute_selected(false);
  std::vector<int> hits(100, 0);
  forall(small_kernel(), 100, [&](raja::Index i) { hits[static_cast<std::size_t>(i)]++; });
  EXPECT_EQ(hits[99], 1);  // body still ran (sequentially)
  EXPECT_GT(rt.stats().total_seconds, 0.0);
  // Wall-clock timing force-enables execution of the selected variant.
  rt.set_timing_source(TimingSource::Wallclock);
  EXPECT_TRUE(rt.execute_selected());
}

TEST_F(RuntimeTest, ChargeExternalAddsUntunedCost) {
  auto& rt = Runtime::instance();
  sim::CostQuery query;
  query.num_indices = 1000;
  query.mix = instr::MixBuilder{}.fp(4).build();
  query.policy = sim::PolicyKind::OpenMP;
  query.threads = 16;
  rt.charge_external("pkg:conduction", query);
  EXPECT_GT(rt.stats().per_kernel.at("pkg:conduction").seconds, 0.0);
  EXPECT_TRUE(rt.records().empty());
}

TEST_F(RuntimeTest, ClusterAccountantReceivesCharges) {
  auto& rt = Runtime::instance();
  ClusterAccountant acc(sim::ClusterModel{}, 4);
  rt.set_cluster_accountant(&acc);
  acc.begin_step();
  acc.add_patch(2);
  acc.set_current_rank(2);
  forall(small_kernel(), 1000, [](raja::Index) {});
  acc.end_step();
  EXPECT_GT(acc.total_seconds(), 0.0);
  rt.set_cluster_accountant(nullptr);
}

TEST_F(RuntimeTest, AccountantChargeAllSplitsEvenly) {
  ClusterAccountant acc(sim::ClusterModel{}, 4);
  acc.begin_step();
  acc.charge_all(4.0);
  acc.end_step();
  // Each rank got 1.0s; step = max + collective ~= 1.0s.
  EXPECT_NEAR(acc.total_seconds(), 1.0, 0.01);
}

TEST_F(RuntimeTest, ModeledTimeTracksPolicyChoice) {
  // A tiny launch must be charged far more under OpenMP than sequential.
  auto& rt = Runtime::instance();
  rt.set_default_policy_override(raja::PolicyType::seq_segit_omp_parallel_for_exec);
  forall(small_kernel(), 11, [](raja::Index) {});
  const double omp_cost = rt.stats().total_seconds;
  rt.reset_stats();
  rt.set_default_policy_override(raja::PolicyType::seq_segit_seq_exec);
  forall(small_kernel(), 11, [](raja::Index) {});
  const double seq_cost = rt.stats().total_seconds;
  EXPECT_GT(omp_cost / seq_cost, 20.0);
}

TEST_F(RuntimeTest, KernelContextIsCachedAndStableAcrossReset) {
  auto& rt = Runtime::instance();
  KernelContext& context = rt.context_for(small_kernel());
  // The handle now carries the resolved context: later launches skip the map.
  EXPECT_EQ(small_kernel().cached_context(), &context);
  EXPECT_EQ(&rt.context_for(small_kernel()), &context);
  // Heterogeneous lookup resolves the same shard without copying the key.
  EXPECT_EQ(&rt.context_for_id(std::string_view{"test:small"}), &context);
  forall(small_kernel(), 10, [](raja::Index) {});
  EXPECT_EQ(context.invocations(), 1);
  rt.reset();
  // Contexts are reset in place, never destroyed: the cached pointer stays
  // valid and the counters restart from zero.
  EXPECT_EQ(&rt.context_for(small_kernel()), &context);
  EXPECT_EQ(context.invocations(), 0);
}

TEST_F(RuntimeTest, StatsSkipIdleContextsAfterReset) {
  auto& rt = Runtime::instance();
  forall(small_kernel(), 10, [](raja::Index) {});
  EXPECT_EQ(rt.stats().per_kernel.count("test:small"), 1u);
  rt.reset_stats();
  // The context persists, but a kernel this run never launched must not
  // appear in the aggregate.
  EXPECT_EQ(rt.stats().per_kernel.count("test:small"), 0u);
  EXPECT_EQ(rt.stats().invocations, 0);
}

TEST_F(RuntimeTest, StatsReturnsConsistentPointInTimeCopy) {
  auto& rt = Runtime::instance();
  forall(small_kernel(), 10, [](raja::Index) {});
  const RunStats before = rt.stats();
  forall(small_kernel(), 10, [](raja::Index) {});
  // The earlier copy is unaffected by later launches.
  EXPECT_EQ(before.invocations, 1);
  EXPECT_EQ(rt.stats().invocations, 2);
}

// --- inline decision cache, label resolution, grouped dispatch ---------------

#include <sstream>

#include "ml/decision_tree.hpp"

namespace {

/// A constant model: a single-leaf tree always answering `label`.
/// Deterministic by construction, so cache-correctness tests can tell a
/// stale cached decision from a fresh evaluation.
TunerModel leaf_model(TunedParameter parameter, const std::string& label) {
  std::stringstream io;
  io << "apollo-tree 1\n"
     << "features 1 num_indices\n"
     << "labels 1 " << label << "\n"
     << "nodes 1\n"
     << "-1 0 -1 -1 0 1 0\n";
  return TunerModel(parameter, ml::DecisionTree::load(io), {});
}

TunerModel leaf_policy_model(const std::string& label) {
  return leaf_model(TunedParameter::Policy, label);
}

}  // namespace

TEST_F(RuntimeTest, InlineCacheReusesStableDecisions) {
  auto& rt = Runtime::instance();
  ASSERT_TRUE(rt.inline_cache_enabled());
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(leaf_policy_model("seq"));
  auto& context = rt.context_for_id(small_kernel().loop_id());
  const raja::IndexSet iset = raja::IndexSet::range(0, 100);
  EXPECT_EQ(rt.begin(small_kernel(), iset).policy, raja::PolicyType::seq_segit_seq_exec);
  EXPECT_EQ(context.inline_cache_hits(), 0);
  EXPECT_EQ(context.inline_cache_misses(), 1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rt.begin(small_kernel(), iset).policy, raja::PolicyType::seq_segit_seq_exec);
  }
  EXPECT_EQ(context.inline_cache_hits(), 5);
  EXPECT_EQ(context.inline_cache_misses(), 1);
  // A different launch shape is a different key: no stale reuse.
  EXPECT_EQ(rt.begin(small_kernel(), raja::IndexSet::range(0, 7)).policy,
            raja::PolicyType::seq_segit_seq_exec);
  EXPECT_EQ(context.inline_cache_misses(), 2);
}

TEST_F(RuntimeTest, InlineCacheKeepsOneCallSitesShapesSideBySide) {
  // A call site cycling the sizes 256..8192 must keep all six decisions
  // cached at once. Each republish moves every key, so the slots are drawn
  // afresh 20 times; a slot index that reads only low key bits puts all six
  // sizes (multiples of 4) in one slot, where they evict each other.
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  auto& context = rt.context_for_id(small_kernel().loop_id());
  std::vector<raja::IndexSet> isets;
  for (std::int64_t n = 256; n <= 8192; n *= 2) isets.push_back(raja::IndexSet::range(0, n));
  ASSERT_EQ(isets.size(), 6u);
  std::int64_t second_pass_hits = 0;
  constexpr int kRepublishes = 20;
  for (int publish = 0; publish < kRepublishes; ++publish) {
    rt.set_policy_model(leaf_policy_model("seq"));
    for (const auto& iset : isets) (void)rt.begin(small_kernel(), iset);
    const std::int64_t hits_before = context.inline_cache_hits();
    for (const auto& iset : isets) (void)rt.begin(small_kernel(), iset);
    second_pass_hits += context.inline_cache_hits() - hits_before;
  }
  EXPECT_GE(second_pass_hits, kRepublishes * static_cast<std::int64_t>(isets.size()) / 2);
}

TEST_F(RuntimeTest, InlineCacheHotSwapInvalidatesViaEpoch) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(leaf_policy_model("seq"));
  const raja::IndexSet iset = raja::IndexSet::range(0, 100);
  EXPECT_EQ(rt.begin(small_kernel(), iset).policy, raja::PolicyType::seq_segit_seq_exec);
  EXPECT_EQ(rt.begin(small_kernel(), iset).policy, raja::PolicyType::seq_segit_seq_exec);
  // Hot-swap to a model with the OPPOSITE answer. The cached "seq" decision
  // must never be served again: the epoch is part of the key.
  rt.set_policy_model(leaf_policy_model("omp"));
  EXPECT_EQ(rt.begin(small_kernel(), iset).policy,
            raja::PolicyType::seq_segit_omp_parallel_for_exec);
  EXPECT_EQ(rt.begin(small_kernel(), iset).policy,
            raja::PolicyType::seq_segit_omp_parallel_for_exec);
}

TEST_F(RuntimeTest, InlineCacheBlackboardWriteInvalidates) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(leaf_policy_model("seq"));
  auto& context = rt.context_for_id(small_kernel().loop_id());
  const raja::IndexSet iset = raja::IndexSet::range(0, 100);
  (void)rt.begin(small_kernel(), iset);
  (void)rt.begin(small_kernel(), iset);
  EXPECT_EQ(context.inline_cache_hits(), 1);
  // Any application-attribute write bumps the blackboard generation, which
  // is folded into the key: models reading App features can never see a
  // stale decision.
  perf::Blackboard::instance().set("cycle", perf::Value(std::int64_t{42}));
  (void)rt.begin(small_kernel(), iset);
  EXPECT_EQ(context.inline_cache_hits(), 1);
  EXPECT_EQ(context.inline_cache_misses(), 2);
}

TEST_F(RuntimeTest, InlineCacheKnobDisablesLookups) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(leaf_policy_model("seq"));
  rt.set_inline_cache_enabled(false);
  auto& context = rt.context_for_id(small_kernel().loop_id());
  const raja::IndexSet iset = raja::IndexSet::range(0, 100);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rt.begin(small_kernel(), iset).policy, raja::PolicyType::seq_segit_seq_exec);
  }
  EXPECT_EQ(context.inline_cache_hits(), 0);
  EXPECT_EQ(context.inline_cache_misses(), 0);
}

TEST_F(RuntimeTest, MalformedChunkLabelIsRejectedAtPublish) {
  // A chunk model whose label names no chunk size, built in memory so that
  // TunerModel::load never checked it. Publishing it must fail and keep the
  // previous snapshot; tuned launches then decide with that snapshot. With
  // no policy model, small_kernel() keeps its OpenMP default, the chunk
  // model applies, and nothing is cached: every launch evaluates it.
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_chunk_model(leaf_model(TunedParameter::ChunkSize, "16"));
  ml::Dataset data({"num_indices"}, {"abc"});
  data.add_row({1.0}, 0);
  const TunerModel bad(TunedParameter::ChunkSize, ml::DecisionTree::fit(data), {});
  EXPECT_THROW(rt.set_chunk_model(bad), std::invalid_argument);
  ASSERT_TRUE(rt.has_chunk_model());
  for (int i = 0; i < 3; ++i) {
    ModelParams params;
    EXPECT_NO_THROW(params = rt.begin(small_kernel(), raja::IndexSet::range(0, 1000)));
    EXPECT_EQ(params.policy, raja::PolicyType::seq_segit_omp_parallel_for_exec);
    EXPECT_EQ(params.chunk_size, 16);
  }
}

// The probe budget is the Runtime's process-wide rotor: every stride-th tuned
// launch also times one alternative variant, which the kernel's quality
// totals count. Stride 0 turns probing off.
TEST(QualityAccountant, ProbeBudgetIsStrided) {
  auto& rt = Runtime::instance();
  const auto probes_over_64_launches = [&rt](std::size_t stride) {
    rt.reset();
    telemetry::Config config;
    config.trace_file.clear();
    config.decisions_file.clear();
    config.flush_interval_seconds = 0.0;
    config.probe_stride = stride;
    telemetry::configure(config);
    telemetry::set_enabled(true);
    rt.set_mode(Mode::Tune);
    rt.set_policy_model(leaf_policy_model("seq"));
    const std::uint64_t before = rt.probe_count();
    for (int i = 0; i < 64; ++i) forall(small_kernel(), 100, [](raja::Index) {});
    const std::uint64_t added = rt.probe_count() - before;
    telemetry::set_enabled(false);
    telemetry::configure(telemetry::Config{});
    rt.reset();
    return added;
  };
  EXPECT_EQ(probes_over_64_launches(8), 8u);
  EXPECT_EQ(probes_over_64_launches(0), 0u);
}

// --- environment knobs -------------------------------------------------------

#include <cstdlib>

#include "online/sample_buffer.hpp"
#include "telemetry/env.hpp"

TEST(RuntimeEnvKnobs, GarbageValuesWarnAndKeepDefaults) {
  // APOLLO_SAMPLE_CAPACITY routes through the hardened env parser the Runtime
  // constructor uses: garbage warns and keeps the documented default, it
  // never silently shrinks the sample buffer to nothing.
  const std::size_t fallback = online::kDefaultSampleCapacity;
  const char* garbage[] = {"", "abc", "64k", "1e6", "-3", "12 34", "0x1", "true", "0"};
  for (const char* value : garbage) {
    setenv("APOLLO_SAMPLE_CAPACITY", value, 1);
    EXPECT_EQ(apollo::telemetry::env_size("APOLLO_SAMPLE_CAPACITY", fallback), fallback)
        << value;
  }
  setenv("APOLLO_SAMPLE_CAPACITY", "4096", 1);
  EXPECT_EQ(apollo::telemetry::env_size("APOLLO_SAMPLE_CAPACITY", fallback), 4096u);
  unsetenv("APOLLO_SAMPLE_CAPACITY");
  EXPECT_EQ(apollo::telemetry::env_size("APOLLO_SAMPLE_CAPACITY", fallback), fallback);
}
