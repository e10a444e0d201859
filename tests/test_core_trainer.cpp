// Unit tests for the trainer pipeline: grouping, argmin labeling, the
// runtime tables behind the oracle/static comparisons, and model training.

#include <gtest/gtest.h>

#include "core/features.hpp"
#include "core/trainer.hpp"

using apollo::LabeledData;
using apollo::Trainer;
using apollo::TunedParameter;
using apollo::perf::SampleRecord;

namespace {

SampleRecord make_record(std::int64_t num_indices, const std::string& policy, std::int64_t chunk,
                         double runtime, const std::string& loop_id = "k1") {
  SampleRecord r;
  r["loop_id"] = loop_id;
  r["num_indices"] = num_indices;
  r["param:policy"] = policy;
  r["param:chunk_size"] = chunk;
  r["measure:runtime"] = runtime;
  return r;
}

/// Small launches favour seq, large favour omp; two launches each, swept.
std::vector<SampleRecord> sweep_records() {
  std::vector<SampleRecord> records;
  for (int rep = 0; rep < 2; ++rep) {
    records.push_back(make_record(100, "seq", 0, 1e-6));
    records.push_back(make_record(100, "omp", 0, 1e-5));
    records.push_back(make_record(100000, "seq", 0, 1e-3));
    records.push_back(make_record(100000, "omp", 0, 1e-4));
  }
  return records;
}

}  // namespace

TEST(Trainer, GroupsIdenticalFeatureVectors) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  EXPECT_EQ(data.dataset.num_rows(), 2u);  // two unique feature vectors
  EXPECT_EQ(data.row_counts, (std::vector<std::int64_t>{2, 2}));
}

TEST(Trainer, LabelsAreArgminRuntime) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  const auto& labels = data.dataset.label_names();
  const std::size_t ni = data.dataset.feature_index("num_indices");
  for (std::size_t r = 0; r < data.dataset.num_rows(); ++r) {
    const std::string expected = data.dataset.row(r)[ni] < 1000 ? "seq" : "omp";
    EXPECT_EQ(labels[static_cast<std::size_t>(data.dataset.label(r))], expected);
  }
}

TEST(Trainer, RuntimeTableHoldsMeansPerLabel) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  for (std::size_t r = 0; r < data.runtimes.size(); ++r) {
    EXPECT_EQ(data.runtimes[r].size(), 2u);  // both labels measured
  }
}

TEST(Trainer, OracleBeatsOrTiesAnyStatic) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  const double oracle = data.total_runtime_oracle();
  for (int label = 0; label < 2; ++label) {
    EXPECT_LE(oracle, data.total_runtime_static(label) + 1e-15);
  }
  // Static "omp" costs the small kernel's penalty on every launch.
  const auto& labels = data.dataset.label_names();
  const int omp = static_cast<int>(
      std::find(labels.begin(), labels.end(), "omp") - labels.begin());
  EXPECT_NEAR(data.total_runtime_static(omp), 2 * (1e-5 + 1e-4), 1e-12);
  EXPECT_NEAR(oracle, 2 * (1e-6 + 1e-4), 1e-12);
}

TEST(Trainer, PredictedRuntimeUsesPerRowTable) {
  const LabeledData data = Trainer::build_labeled_data(sweep_records(), TunedParameter::Policy);
  std::vector<int> oracle_predictions;
  for (std::size_t r = 0; r < data.dataset.num_rows(); ++r) {
    oracle_predictions.push_back(data.dataset.label(r));
  }
  EXPECT_NEAR(data.total_runtime_predicted(oracle_predictions), data.total_runtime_oracle(),
              1e-15);
  EXPECT_THROW((void)data.total_runtime_predicted({0}), std::invalid_argument);
}

TEST(Trainer, MeanRuntimePerGroupAveragesRepeats) {
  std::vector<SampleRecord> records;
  records.push_back(make_record(50, "seq", 0, 1.0));
  records.push_back(make_record(50, "seq", 0, 3.0));
  records.push_back(make_record(50, "omp", 0, 10.0));
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  ASSERT_EQ(data.dataset.num_rows(), 1u);
  const auto& labels = data.dataset.label_names();
  const int seq = static_cast<int>(
      std::find(labels.begin(), labels.end(), "seq") - labels.begin());
  EXPECT_DOUBLE_EQ(data.runtimes[0].at(seq), 2.0);  // mean of 1 and 3
  EXPECT_EQ(data.row_counts[0], 2);                 // two launches of the seq variant
}

TEST(Trainer, ChunkDataUsesOnlyOmpSamples) {
  std::vector<SampleRecord> records;
  records.push_back(make_record(1000, "seq", 0, 1e-5));
  records.push_back(make_record(1000, "omp", 64, 2e-5));
  records.push_back(make_record(1000, "omp", 128, 1e-5));
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::ChunkSize);
  EXPECT_EQ(data.dataset.num_rows(), 1u);
  EXPECT_EQ(data.dataset.label_names(), (std::vector<std::string>{"64", "128"}));
  EXPECT_EQ(data.dataset.label_names()[static_cast<std::size_t>(data.dataset.label(0))], "128");
}

TEST(Trainer, ChunkLabelsReadOnlyDefaultTeamRecords) {
  // One launch shape: chunk 8 wins at the default team, and a slow run of
  // chunk 8 on an explicit team of 2 must not drag its mean above chunk 64.
  std::vector<SampleRecord> records;
  records.push_back(make_record(1000, "omp", 8, 1.0));
  records.push_back(make_record(1000, "omp", 64, 1.5));
  SampleRecord team = make_record(1000, "omp", 8, 5.0);
  team[apollo::features::kParamThreads] = std::int64_t{2};
  records.push_back(team);
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::ChunkSize);
  ASSERT_EQ(data.dataset.num_rows(), 1u);
  EXPECT_EQ(data.dataset.label_names()[static_cast<std::size_t>(data.dataset.label(0))], "8");
  EXPECT_DOUBLE_EQ(data.runtimes[0].at(data.dataset.label(0)), 1.0);
}

TEST(Trainer, ChunkLabelsSortedNumerically) {
  std::vector<SampleRecord> records;
  for (std::int64_t chunk : {1024, 2, 128, 16}) {
    records.push_back(make_record(1000, "omp", chunk, 1e-5 / static_cast<double>(chunk)));
  }
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::ChunkSize);
  EXPECT_EQ(data.dataset.label_names(),
            (std::vector<std::string>{"2", "16", "128", "1024"}));
}

TEST(Trainer, CategoricalFeaturesGetDictionaries) {
  std::vector<SampleRecord> records = sweep_records();
  for (auto& r : records) r["problem_name"] = "sedov";
  records[0]["problem_name"] = "sod";
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  ASSERT_TRUE(data.dictionaries.count("problem_name"));
  EXPECT_EQ(data.dictionaries.at("problem_name"),
            (std::vector<std::string>{"sedov", "sod"}));
  EXPECT_TRUE(data.dictionaries.count("loop_id"));
  EXPECT_FALSE(data.dictionaries.count("num_indices"));
}

TEST(Trainer, MissingFeatureEncodedMinusOne) {
  std::vector<SampleRecord> records = sweep_records();
  records[0]["extra"] = 5;  // only present on one record
  const LabeledData data = Trainer::build_labeled_data(records, TunedParameter::Policy);
  const std::size_t extra = data.dataset.feature_index("extra");
  bool saw_minus_one = false, saw_five = false;
  for (std::size_t r = 0; r < data.dataset.num_rows(); ++r) {
    if (data.dataset.row(r)[extra] == -1.0) saw_minus_one = true;
    if (data.dataset.row(r)[extra] == 5.0) saw_five = true;
  }
  EXPECT_TRUE(saw_minus_one);
  EXPECT_TRUE(saw_five);
}

TEST(Trainer, NoUsableRecordsThrows) {
  EXPECT_THROW((void)Trainer::build_labeled_data({}, TunedParameter::Policy),
               std::invalid_argument);
  std::vector<SampleRecord> seq_only;
  seq_only.push_back(make_record(10, "seq", 0, 1.0));
  EXPECT_THROW((void)Trainer::build_labeled_data(seq_only, TunedParameter::ChunkSize),
               std::invalid_argument);
}

TEST(Trainer, TrainedModelPredictsArgmin) {
  // The grouped dataset has only two rows; relax the split minimums.
  apollo::ml::TreeParams params;
  params.min_samples_leaf = 1;
  params.min_samples_split = 2;
  const apollo::TunerModel model =
      Trainer::train(sweep_records(), TunedParameter::Policy, params);
  EXPECT_EQ(model.parameter(), TunedParameter::Policy);
  // Values built in place: returning a temporary Value draws a false
  // -Wmaybe-uninitialized from GCC 12 under -fsanitize=address.
  using apollo::perf::Value;
  const auto resolve_small = [](const std::string& name) -> std::optional<Value> {
    if (name == "num_indices") return std::make_optional<Value>(std::int64_t{100});
    if (name == "loop_id") return std::make_optional<Value>("k1");
    return std::nullopt;
  };
  const auto resolve_large = [](const std::string& name) -> std::optional<Value> {
    if (name == "num_indices") return std::make_optional<Value>(std::int64_t{100000});
    if (name == "loop_id") return std::make_optional<Value>("k1");
    return std::nullopt;
  };
  EXPECT_EQ(model.label_name(model.predict(resolve_small)), "seq");
  EXPECT_EQ(model.label_name(model.predict(resolve_large)), "omp");
}
