// Tests for per-kernel model sets.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/model_set.hpp"

using namespace apollo;

namespace {

perf::SampleRecord record_for(const std::string& loop_id, std::int64_t n,
                              const std::string& policy, double runtime) {
  perf::SampleRecord r;
  r["loop_id"] = loop_id;
  r["num_indices"] = n;
  r["param:policy"] = policy;
  r["measure:runtime"] = runtime;
  return r;
}

/// Two kernels with OPPOSITE optimal policies at the same size — a global
/// model must use loop_id; per-kernel models separate them trivially.
std::vector<perf::SampleRecord> conflicting_records() {
  std::vector<perf::SampleRecord> records;
  for (int rep = 0; rep < 6; ++rep) {
    const auto n = static_cast<std::int64_t>(1000 + rep);
    records.push_back(record_for("k:alpha", n, "seq", 1e-6));
    records.push_back(record_for("k:alpha", n, "omp", 1e-5));
    records.push_back(record_for("k:beta", n, "seq", 1e-5));
    records.push_back(record_for("k:beta", n, "omp", 1e-6));
  }
  return records;
}

ml::TreeParams loose() {
  ml::TreeParams p;
  p.min_samples_leaf = 1;
  p.min_samples_split = 2;
  return p;
}

TunerModel::Resolver resolver(const std::string& loop_id, std::int64_t n) {
  return [loop_id, n](const std::string& name) -> std::optional<perf::Value> {
    // Built in place: returning a temporary Value draws a false
    // -Wmaybe-uninitialized from GCC 12 under -fsanitize=address.
    if (name == "loop_id") return std::make_optional<perf::Value>(loop_id);
    if (name == "num_indices") return std::make_optional<perf::Value>(n);
    return std::nullopt;
  };
}

}  // namespace

TEST(ModelSet, TrainsOneModelPerKernel) {
  const ModelSet set = ModelSet::train_per_kernel(conflicting_records(),
                                                  TunedParameter::Policy, loose());
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.has_kernel("k:alpha"));
  EXPECT_TRUE(set.has_kernel("k:beta"));
}

TEST(ModelSet, PerKernelModelsSeparateConflictingKernels) {
  const ModelSet set = ModelSet::train_per_kernel(conflicting_records(),
                                                  TunedParameter::Policy, loose());
  const int alpha = set.predict("k:alpha", resolver("k:alpha", 1003));
  const int beta = set.predict("k:beta", resolver("k:beta", 1003));
  EXPECT_EQ(set.label_name("k:alpha", alpha), "seq");
  EXPECT_EQ(set.label_name("k:beta", beta), "omp");
}

TEST(ModelSet, UnknownKernelFallsBackToGlobalModel) {
  const ModelSet set = ModelSet::train_per_kernel(conflicting_records(),
                                                  TunedParameter::Policy, loose());
  EXPECT_FALSE(set.has_kernel("k:gamma"));
  // The fallback exists and yields a valid label.
  const int label = set.predict("k:gamma", resolver("k:gamma", 1000));
  const std::string& name = set.label_name("k:gamma", label);
  EXPECT_TRUE(name == "seq" || name == "omp");
}

TEST(ModelSet, GlobalFallbackLearnsLoopIdFeature) {
  // The fallback model sees loop_id as a feature, so even it can separate
  // the conflicting kernels.
  const ModelSet set = ModelSet::train_per_kernel(conflicting_records(),
                                                  TunedParameter::Policy, loose());
  const auto& fallback = set.fallback();
  const int alpha = fallback.predict(resolver("k:alpha", 1003));
  const int beta = fallback.predict(resolver("k:beta", 1003));
  EXPECT_NE(fallback.label_name(alpha), fallback.label_name(beta));
}

TEST(ModelSet, TotalNodesCountsEverything) {
  const ModelSet set = ModelSet::train_per_kernel(conflicting_records(),
                                                  TunedParameter::Policy, loose());
  EXPECT_GE(set.total_nodes(), 3u);  // fallback has at least one split
}

TEST(ModelSet, SaveLoadRoundTrip) {
  const ModelSet set = ModelSet::train_per_kernel(conflicting_records(),
                                                  TunedParameter::Policy, loose());
  const std::string path =
      (std::filesystem::temp_directory_path() / "apollo_model_set_test.models").string();
  set.save_file(path);
  const ModelSet back = ModelSet::load_file(path);
  std::filesystem::remove(path);
  EXPECT_EQ(back.size(), set.size());
  EXPECT_EQ(back.label_name("k:alpha", back.predict("k:alpha", resolver("k:alpha", 1002))),
            set.label_name("k:alpha", set.predict("k:alpha", resolver("k:alpha", 1002))));
}

TEST(ModelSet, NoLoopIdRecordsThrow) {
  std::vector<perf::SampleRecord> records;
  perf::SampleRecord r;
  r["num_indices"] = 5;
  r["param:policy"] = "seq";
  r["measure:runtime"] = 1.0;
  records.push_back(r);
  EXPECT_THROW((void)ModelSet::train_per_kernel(records, TunedParameter::Policy),
               std::invalid_argument);
}
