// End-to-end integration tests: the full Apollo workflow (record -> train ->
// persist -> load -> tune) on the real proxy applications, plus
// cross-application model reuse and the strong-scaling accounting path.

#include <gtest/gtest.h>

#include <filesystem>

#include "apps/application.hpp"
#include "core/cluster_accountant.hpp"
#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "ml/cross_validation.hpp"
#include "perf/blackboard.hpp"

using namespace apollo;

namespace {

class IntegrationTest : public ::testing::Test {
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

std::vector<perf::SampleRecord> record_app(apps::Application& app, int steps) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  rt.clear_records();
  for (const auto& problem : app.problems()) {
    for (int size : app.training_sizes()) {
      app.run(apps::RunConfig{problem, size, steps});
    }
  }
  auto records = rt.records();
  rt.clear_records();
  rt.set_mode(Mode::Off);
  return records;
}

double tuned_total(apps::Application& app, const apps::RunConfig& cfg, const TunerModel& model) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Tune);
  rt.set_policy_model(model);
  rt.reset_stats();
  app.run(cfg);
  const double total = rt.stats().total_seconds;
  rt.clear_models();
  rt.set_mode(Mode::Off);
  return total;
}

double static_total(apps::Application& app, const apps::RunConfig& cfg,
                    std::optional<raja::PolicyType> override_policy) {
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Off);
  rt.set_default_policy_override(override_policy);
  rt.reset_stats();
  app.run(cfg);
  const double total = rt.stats().total_seconds;
  rt.set_default_policy_override(std::nullopt);
  return total;
}

}  // namespace

TEST_F(IntegrationTest, FullWorkflowOnLulesh) {
  auto app = apps::make_lulesh();
  const auto records = record_app(*app, 4);
  ASSERT_GT(records.size(), 1000u);

  // Train, persist, reload — the no-recompilation deployment path.
  const TunerModel trained = Trainer::train(records, TunedParameter::Policy);
  const std::string path =
      (std::filesystem::temp_directory_path() / "apollo_it_lulesh.model").string();
  trained.save_file(path);
  const TunerModel model = TunerModel::load_file(path);
  std::filesystem::remove(path);

  const apps::RunConfig cfg{"sedov", 18, 4};
  const double omp_everywhere =
      static_total(*app, cfg, raja::PolicyType::seq_segit_omp_parallel_for_exec);
  const double seq_everywhere =
      static_total(*app, cfg, raja::PolicyType::seq_segit_seq_exec);
  const double tuned = tuned_total(*app, cfg, model);

  EXPECT_LT(tuned, omp_everywhere) << "tuning must beat OpenMP-everywhere";
  EXPECT_LT(tuned, seq_everywhere) << "tuning must beat sequential-everywhere";
}

TEST_F(IntegrationTest, ModelAccuracyHighForPolicy) {
  auto app = apps::make_lulesh();
  const auto records = record_app(*app, 3);
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  ASSERT_GT(data.dataset.num_rows(), 200u);
  const auto cv = ml::cross_validate(data.dataset, ml::TreeParams{}, 5, 42);
  EXPECT_GT(cv.mean_accuracy, 0.85);  // paper: 92-98% for execution policy
}

TEST_F(IntegrationTest, ChunkModelLessAccurateThanPolicy) {
  auto app = apps::make_lulesh();
  const auto records = record_app(*app, 3);
  const LabeledData policy = Trainer::build_labeled_data(records, TunedParameter::Policy);
  const LabeledData chunk = Trainer::build_labeled_data(records, TunedParameter::ChunkSize);
  const auto policy_cv = ml::cross_validate(policy.dataset, ml::TreeParams{}, 5, 42);
  const auto chunk_cv = ml::cross_validate(chunk.dataset, ml::TreeParams{}, 5, 42);
  EXPECT_LT(chunk_cv.mean_accuracy, policy_cv.mean_accuracy);  // Table II's contrast
}

TEST_F(IntegrationTest, CleverLeafTuningBeatsDefault) {
  auto app = apps::make_cleverleaf();
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  rt.clear_records();
  app->run(apps::RunConfig{"sedov", 32, 4});
  const auto records = rt.records();
  rt.clear_records();
  const TunerModel model = Trainer::train(records, TunedParameter::Policy);

  const apps::RunConfig cfg{"sedov", 32, 4};
  const double default_total =
      static_total(*app, cfg, raja::PolicyType::seq_segit_omp_parallel_for_exec);
  const double tuned = tuned_total(*app, cfg, model);
  EXPECT_GT(default_total / tuned, 1.5);  // AMR patches: the big win
}

TEST_F(IntegrationTest, CrossApplicationModelTransfer) {
  // LULESH-trained models apply to CleverLeaf (the paper's Table III):
  // predictions must be well-formed and capture the num_indices crossover.
  auto lulesh = apps::make_lulesh();
  const auto records = record_app(*lulesh, 3);
  const TunerModel model = Trainer::train(records, TunedParameter::Policy);

  auto clover = apps::make_cleverleaf();
  const double tuned = tuned_total(*clover, apps::RunConfig{"sedov", 32, 3}, model);
  const double default_total = static_total(
      *clover, apps::RunConfig{"sedov", 32, 3}, raja::PolicyType::seq_segit_omp_parallel_for_exec);
  EXPECT_GT(tuned, 0.0);
  EXPECT_LT(tuned, default_total);  // transfer still beats the static default
}

TEST_F(IntegrationTest, RetrainWithoutRecompilePicksUpNewModel) {
  // Two different models loaded into the same runtime change decisions.
  auto app = apps::make_lulesh();
  const auto records = record_app(*app, 3);
  const TunerModel good = Trainer::train(records, TunedParameter::Policy);

  // A degenerate "model" trained only on tiny launches predicts seq always.
  std::vector<perf::SampleRecord> tiny;
  for (const auto& r : records) {
    if (r.at("num_indices").as_int() < 500) tiny.push_back(r);
  }
  ASSERT_FALSE(tiny.empty());
  const TunerModel degenerate = Trainer::train(tiny, TunedParameter::Policy);

  const apps::RunConfig cfg{"sedov", 18, 3};
  const double with_good = tuned_total(*app, cfg, good);
  const double with_degenerate = tuned_total(*app, cfg, degenerate);
  EXPECT_NE(with_good, with_degenerate);
}

TEST_F(IntegrationTest, StrongScalingAccountingImproves) {
  // Fig. 12's mechanism: more ranks -> smaller per-rank share -> faster steps.
  auto& rt = Runtime::instance();
  auto app = apps::make_cleverleaf();

  auto run_with_ranks = [&](unsigned ranks) {
    ClusterAccountant acc(sim::ClusterModel{}, ranks);
    rt.set_cluster_accountant(&acc);
    rt.reset_stats();
    app->run(apps::RunConfig{"sedov", 32, 3});
    rt.set_cluster_accountant(nullptr);
    return acc.total_seconds();
  };

  const double one = run_with_ranks(1);
  const double four = run_with_ranks(4);
  EXPECT_LT(four, one);
  EXPECT_GT(four, one / 8.0);  // but not superlinear
}

TEST_F(IntegrationTest, SweepAndForcedProtocolsLabelIdentically) {
  // The paper records one run per parameter value; we default to pricing all
  // variants in one run. With measurement noise disabled, the two protocols
  // must produce identical labeled datasets (DESIGN.md substitution 7).
  auto& rt = Runtime::instance();
  sim::MachineConfig config;
  config.noise_sigma = 0.0;
  rt.set_machine(sim::MachineModel(config));

  auto app = apps::make_lulesh();
  rt.set_mode(Mode::Record);

  // Protocol A: sweep.
  TrainingConfig sweep;
  sweep.chunk_values.clear();
  rt.set_training_config(sweep);
  rt.clear_records();
  app->run(apps::RunConfig{"sedov", 8, 2});
  const auto sweep_records = rt.records();

  // Protocol B: two forced runs (seq, then omp-default), like the paper.
  TrainingConfig forced;
  forced.sweep_variants = false;
  std::vector<perf::SampleRecord> forced_records;
  for (auto policy : {raja::PolicyType::seq_segit_seq_exec,
                      raja::PolicyType::seq_segit_omp_parallel_for_exec}) {
    forced.forced_policy = policy;
    rt.set_training_config(forced);
    rt.clear_records();
    app->run(apps::RunConfig{"sedov", 8, 2});
    const auto& run_records = rt.records();
    forced_records.insert(forced_records.end(), run_records.begin(), run_records.end());
  }
  rt.clear_records();

  const LabeledData a = Trainer::build_labeled_data(sweep_records, TunedParameter::Policy);
  const LabeledData b = Trainer::build_labeled_data(forced_records, TunedParameter::Policy);
  ASSERT_EQ(a.dataset.num_rows(), b.dataset.num_rows());
  ASSERT_EQ(a.dataset.feature_names(), b.dataset.feature_names());
  // Row order is grouping-order; both protocols visit launches in the same
  // deterministic order, so rows correspond 1:1.
  for (std::size_t r = 0; r < a.dataset.num_rows(); ++r) {
    EXPECT_EQ(a.dataset.row(r), b.dataset.row(r)) << "row " << r;
    EXPECT_EQ(a.dataset.label(r), b.dataset.label(r)) << "row " << r;
  }
}

TEST_F(IntegrationTest, EnvironmentPolicyForcesRecordingProtocol) {
  setenv("RAJA_POLICY", "seq", 1);
  // A fresh TrainingConfig would be overridden at Runtime construction; the
  // singleton already exists, so apply the same logic through the API the
  // constructor uses.
  const auto env = raja::apollo::policy_from_env();
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->policy, raja::PolicyType::seq_segit_seq_exec);
  unsetenv("RAJA_POLICY");
}

TEST_F(IntegrationTest, RecordsSurviveFileRoundTripIntoTraining) {
  auto app = apps::make_ares();
  auto& rt = Runtime::instance();
  rt.set_mode(Mode::Record);
  app->run(apps::RunConfig{"sedov", 24, 3});
  const std::string path =
      (std::filesystem::temp_directory_path() / "apollo_it_records.txt").string();
  std::filesystem::remove(path);
  rt.flush_records(path);
  const auto records = perf::read_records_file(path);
  std::filesystem::remove(path);
  ASSERT_GT(records.size(), 100u);
  const TunerModel model = Trainer::train(records, TunedParameter::Policy);
  EXPECT_GT(model.tree().node_count(), 0u);
}
