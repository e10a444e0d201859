// Unit tests for the canonical feature schema (Table I).

#include <gtest/gtest.h>

#include <set>

#include "core/features.hpp"
#include "raja/index_set.hpp"

namespace features = apollo::features;
namespace instr = apollo::instr;

TEST(Features, KernelFeatureNamesCoverTableOne) {
  const auto names = features::kernel_feature_names();
  // 7 kernel features + every mnemonic group.
  EXPECT_EQ(names.size(), 7u + instr::kMnemonicCount);
  const std::set<std::string> set(names.begin(), names.end());
  EXPECT_EQ(set.size(), names.size());  // unique
  for (const char* expected : {"func", "func_size", "index_type", "loop_id", "num_indices",
                               "num_segments", "stride", "add", "divsd", "movsd", "xorps"}) {
    EXPECT_TRUE(set.count(expected)) << expected;
  }
}

TEST(Features, AppFeatureNames) {
  const auto names = features::app_feature_names();
  EXPECT_EQ(names, (std::vector<std::string>{"timestep", "problem_size", "problem_name",
                                             "patch_id"}));
}

TEST(Features, MetaKeyDetection) {
  EXPECT_TRUE(features::is_meta_key("param:policy"));
  EXPECT_TRUE(features::is_meta_key("param:chunk_size"));
  EXPECT_TRUE(features::is_meta_key("measure:runtime"));
  EXPECT_FALSE(features::is_meta_key("num_indices"));
  EXPECT_FALSE(features::is_meta_key("problem_name"));
  EXPECT_FALSE(features::is_meta_key("parametric"));
}

TEST(Features, FillKernelFeatures) {
  apollo::perf::SampleRecord record;
  auto mix = instr::MixBuilder{}.fp(4).div(2).load(3).store(1).build();
  raja::IndexSet iset;
  iset.push_back(raja::RangeSegment{0, 100});
  iset.push_back(raja::RangeSegment{200, 300});
  features::fill_kernel_features(record, "app:kernel", "Kernel", mix, iset.getLength(),
                                 static_cast<std::int64_t>(iset.getNumSegments()), iset.stride(),
                                 iset.type_name());

  EXPECT_EQ(record.at("func").as_string(), "Kernel");
  EXPECT_EQ(record.at("loop_id").as_string(), "app:kernel");
  EXPECT_EQ(record.at("func_size").as_int(), mix.total());
  EXPECT_EQ(record.at("index_type").as_string(), "range");
  EXPECT_EQ(record.at("num_indices").as_int(), 200);
  EXPECT_EQ(record.at("num_segments").as_int(), 2);
  EXPECT_EQ(record.at("stride").as_int(), 1);
  EXPECT_EQ(record.at("divsd").as_int(), 2);
  EXPECT_EQ(record.at("movsd").as_int(), 3);
  EXPECT_EQ(record.at("nop").as_int(), 0);
}
