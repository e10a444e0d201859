// End-to-end Mode::Adapt test on the deterministic machine-model timing
// source: a model trained on small launches mis-predicts after the workload
// shifts to large sizes; the adaptation loop must notice (drift fire),
// retrain in the background, hot-swap, and start predicting the parallel
// policy — all inside one process, without touching the offline pipeline.

#include <gtest/gtest.h>

#include <mutex>
#include <stdexcept>

#include "core/features.hpp"
#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "ml/decision_tree.hpp"

using namespace apollo;

namespace {

const KernelHandle& stream_kernel() {
  static const KernelHandle k{"test:adapt", "AdaptStream",
                              instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24};
  return k;
}

void launch(std::int64_t size) {
  auto& rt = Runtime::instance();
  const raja::IndexSet iset = raja::IndexSet::range(0, size);
  const ModelParams params = rt.begin(stream_kernel(), iset);
  rt.end(stream_kernel(), iset, params);
}

/// Policy-only model fitted to small launches (seq is right for all of them).
TunerModel small_regime_model() {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Record);
  TrainingConfig config;
  config.chunk_values.clear();
  rt.set_training_config(config);
  for (std::int64_t size : {500, 1000, 2000, 4000}) {
    for (int i = 0; i < 4; ++i) launch(size);
  }
  return Trainer::train(rt.records(), TunedParameter::Policy);
}

/// A fitted model whose single leaf predicts `label`, which nothing checks.
TunerModel constant_model(TunedParameter parameter, const std::string& label) {
  ml::Dataset data({"num_indices"}, {label});
  for (int i = 0; i < 8; ++i) data.add_row({static_cast<double>(i)}, 0);
  ml::TreeParams params;
  params.min_samples_leaf = 1;
  return TunerModel(parameter, ml::DecisionTree::fit(data, params), {});
}

class AdaptModeTest : public ::testing::Test {
protected:
  void TearDown() override { Runtime::instance().reset(); }
};

}  // namespace

TEST_F(AdaptModeTest, RecoversFromWorkloadShiftViaHotSwap) {
  const TunerModel stale = small_regime_model();

  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);

  online::OnlineConfig config;
  config.sample_stride = 2;
  config.min_retrain_samples = 24;
  config.post_drift_samples = 12;
  config.drift.window = 24;
  config.drift.min_samples = 6;
  config.drift.cooldown = 32;
  config.explorer.epsilon = 0.10;
  config.explorer.boosted_epsilon = 0.40;
  rt.configure_online(config);
  rt.set_policy_model(stale);

  // Small regime: the stale model is right, nothing should fire.
  for (int i = 0; i < 60; ++i) launch(2000);
  EXPECT_EQ(rt.online().status().drift_fires, 0u);

  // Shift to sizes far past the seq/omp crossover. The stale model keeps
  // predicting seq; drift must fire and a retrain must land.
  for (int i = 0; i < 400 && rt.online().status().model_version == 0; ++i) {
    launch(200000);
  }
  rt.online().wait_retrain_idle();

  const auto status = rt.online().status();
  EXPECT_GE(status.drift_fires, 1u);
  EXPECT_GE(status.retrains_completed, 1u);
  EXPECT_EQ(status.retrains_failed, 0u);
  ASSERT_GE(status.model_version, 1u);

  // After one more launch begin() notices the published version and
  // hot-swaps; large launches must now be predicted parallel. Any launch may
  // be an exploration draw (the draw index depends on how many launches ran
  // while the retrain was in flight), so judge the first model decision.
  launch(200000);
  const raja::IndexSet big = raja::IndexSet::range(0, 200000);
  ModelParams params;
  for (int attempt = 0; attempt < 32; ++attempt) {
    params = rt.begin(stream_kernel(), big);
    rt.end(stream_kernel(), big, params);
    if (!params.explored) break;
  }
  ASSERT_FALSE(params.explored) << "32 exploration draws in a row";
  EXPECT_EQ(params.policy, raja::PolicyType::seq_segit_omp_parallel_for_exec);
}

TEST_F(AdaptModeTest, StridedSamplingAndExploredLaunchesFillBuffer) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);

  online::OnlineConfig config;
  config.sample_stride = 4;
  config.retrain_every = 0;  // no retraining; watch the sampling only
  config.explorer.epsilon = 0.0;
  rt.configure_online(config);

  for (int i = 0; i < 40; ++i) launch(1000);
  // Every 4th predicted launch is recorded; no exploration is running.
  EXPECT_EQ(rt.record_count(), 10u);
  EXPECT_EQ(rt.online().status().explorations, 0u);
}

TEST_F(AdaptModeTest, ConfigureOnlineResetsState) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);

  online::OnlineConfig config;
  config.explorer.epsilon = 0.5;
  rt.configure_online(config);
  for (int i = 0; i < 50; ++i) launch(1000);
  EXPECT_GT(rt.online().status().explorations, 0u);
  // Exploration put both policies into the kernel's evidence table.
  online::KernelShard& shard = rt.context_for(stream_kernel()).online_shard();
  const std::uint64_t bucket = online::feature_bucket(1000, 1);
  const auto variants_seen = [&shard, bucket] {
    const std::lock_guard<std::mutex> lock(shard.mutex());
    int seen = 0;
    for (const auto policy :
         {raja::PolicyType::seq_segit_seq_exec, raja::PolicyType::seq_segit_omp_parallel_for_exec}) {
      if (shard.evidence_locked().baseline(bucket, online::Variant{policy, 0}.key()) >= 0.0) ++seen;
    }
    return seen;
  };
  EXPECT_EQ(variants_seen(), 2);

  config.explorer.epsilon = 0.0;
  rt.configure_online(config);
  EXPECT_EQ(rt.online().status().explorations, 0u);
  EXPECT_EQ(rt.online().status().launches, 0u);
  // The next launch attaches the shard to the new configuration, which
  // clears the table first: only that launch's own variant is left.
  launch(1000);
  EXPECT_EQ(variants_seen(), 1);
}

TEST_F(AdaptModeTest, RegistryRejectsModelsTheRuntimeCannotCompile) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);
  online::OnlineConfig config;
  config.explorer.epsilon = 0.0;
  rt.configure_online(config);

  online::ModelRegistry& registry = rt.online().registry();
  ASSERT_EQ(registry.publish(constant_model(TunedParameter::Policy, "seq")), 1u);
  launch(1000);
  // A chunk-size model in the policy slot, and a policy label no policy has.
  EXPECT_THROW(registry.publish(constant_model(TunedParameter::ChunkSize, "64")),
               std::invalid_argument);
  EXPECT_THROW(registry.publish(constant_model(TunedParameter::Policy, "omp_typo")),
               std::invalid_argument);
  EXPECT_EQ(registry.version(), 1u);
  // Adapt launches keep deciding with generation 1 instead of throwing.
  for (int i = 0; i < 32; ++i) EXPECT_NO_THROW(launch(1000));
  EXPECT_EQ(registry.version(), 1u);
}

TEST_F(AdaptModeTest, LoadedTeamSizeModelCarriesAcrossHotSwaps) {
  // The registry holds policy and chunk generations only; a team-size model
  // loaded with set_threads_model rides along in the runtime's own snapshot
  // each time a new generation is compiled in.
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);
  online::OnlineConfig config;
  config.sample_stride = 1;
  config.explorer.epsilon = 0.0;
  rt.configure_online(config);
  rt.set_threads_model(constant_model(TunedParameter::Threads, "3"));

  // Two generations, so the second swap compiles over a snapshot the first
  // swap built. Each launch's policy shows which generation decided it.
  online::ModelRegistry& registry = rt.online().registry();
  const raja::IndexSet iset = raja::IndexSet::range(0, 100000);
  ModelParams params;
  for (const char* policy : {"seq", "omp"}) {
    registry.publish(constant_model(TunedParameter::Policy, policy));
    rt.clear_records();
    params = rt.begin(stream_kernel(), iset);
    rt.end(stream_kernel(), iset, params);
    EXPECT_EQ(raja::policy_name(params.policy), std::string(policy));
    EXPECT_TRUE(rt.has_threads_model()) << policy;
  }

  // The omp launch ran, and was timed and sampled, at the model's team of 3.
  EXPECT_FALSE(params.explored);
  EXPECT_EQ(params.threads, 3u);
  const auto records = rt.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.back().at(features::kParamThreads).as_int(), 3);
}
