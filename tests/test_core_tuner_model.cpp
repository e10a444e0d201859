// Unit tests for TunerModel: categorical encoding, resolver-driven
// prediction, and file round-trips (the retrain-without-recompile property).

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "core/kernel.hpp"
#include "core/model_snapshot.hpp"
#include "core/tuner_model.hpp"
#include "instr/mix.hpp"
#include "ml/decision_tree.hpp"
#include "raja/index_set.hpp"
#include "raja/policy.hpp"

using apollo::CompiledModel;
using apollo::KernelHandle;
using apollo::TunedParameter;
using apollo::TunerModel;
using apollo::ml::Dataset;
using apollo::ml::DecisionTree;
using apollo::ml::TreeParams;
using apollo::perf::Value;

namespace {

/// problem "small" -> seq, "big" -> omp (a purely categorical decision).
TunerModel categorical_model() {
  Dataset d({"num_indices", "problem_name"}, {"omp", "seq"});
  for (int i = 0; i < 50; ++i) {
    d.add_row({100.0, 1.0}, 1);  // problem_name code 1 = "small" -> seq
    d.add_row({100.0, 0.0}, 0);  // problem_name code 0 = "big" -> omp
  }
  TreeParams p;
  p.min_samples_leaf = 1;
  DecisionTree tree = DecisionTree::fit(d, p);
  return TunerModel(TunedParameter::Policy, std::move(tree),
                    {{"problem_name", {"big", "small"}}});
}

}  // namespace

TEST(TunerModel, ParameterNames) {
  EXPECT_STREQ(apollo::tuned_parameter_name(TunedParameter::Policy), "policy");
  EXPECT_STREQ(apollo::tuned_parameter_name(TunedParameter::ChunkSize), "chunk_size");
}

TEST(TunerModel, EncodeNumericPassThrough) {
  const TunerModel model = categorical_model();
  EXPECT_DOUBLE_EQ(model.encode("num_indices", Value(std::int64_t{42})), 42.0);
  EXPECT_DOUBLE_EQ(model.encode("num_indices", Value(1.5)), 1.5);
}

TEST(TunerModel, EncodeCategorical) {
  const TunerModel model = categorical_model();
  EXPECT_DOUBLE_EQ(model.encode("problem_name", Value("big")), 0.0);
  EXPECT_DOUBLE_EQ(model.encode("problem_name", Value("small")), 1.0);
}

TEST(TunerModel, EncodeUnseenOrMissingIsMinusOne) {
  const TunerModel model = categorical_model();
  EXPECT_DOUBLE_EQ(model.encode("problem_name", Value("never-seen")), -1.0);
  EXPECT_DOUBLE_EQ(model.encode("problem_name", std::nullopt), -1.0);
  EXPECT_DOUBLE_EQ(model.encode("no_dictionary", Value("text")), -1.0);
}

TEST(TunerModel, PredictViaResolver) {
  const TunerModel model = categorical_model();
  const auto resolver_for = [](const std::string& problem) {
    return [problem](const std::string& name) -> std::optional<Value> {
      if (name == "num_indices") return Value(std::int64_t{100});
      if (name == "problem_name") return Value(problem);
      return std::nullopt;
    };
  };
  const int small = model.predict(resolver_for("small"));
  const int big = model.predict(resolver_for("big"));
  EXPECT_EQ(model.label_name(small), "seq");
  EXPECT_EQ(model.label_name(big), "omp");
}

TEST(TunerModel, SaveLoadRoundTrip) {
  const TunerModel model = categorical_model();
  std::stringstream stream;
  model.save(stream);
  const TunerModel back = TunerModel::load(stream);
  EXPECT_EQ(back.parameter(), TunedParameter::Policy);
  EXPECT_EQ(back.dictionaries(), model.dictionaries());
  EXPECT_EQ(back.tree().node_count(), model.tree().node_count());
  const auto resolve = [](const std::string& name) -> std::optional<Value> {
    if (name == "num_indices") return Value(std::int64_t{100});
    if (name == "problem_name") return Value("small");
    return std::nullopt;
  };
  EXPECT_EQ(back.predict(resolve), model.predict(resolve));
}

TEST(TunerModel, FileRoundTrip) {
  const TunerModel model = categorical_model();
  const std::string path =
      (std::filesystem::temp_directory_path() / "apollo_model_test.model").string();
  model.save_file(path);
  const TunerModel back = TunerModel::load_file(path);
  EXPECT_EQ(back.num_labels(), 2u);
  std::filesystem::remove(path);
}

TEST(TunerModel, LoadRejectsGarbage) {
  std::stringstream bad("garbage 9\n");
  EXPECT_THROW((void)TunerModel::load(bad), std::runtime_error);
}

TEST(TunerModel, LabelNameBoundsChecked) {
  const TunerModel model = categorical_model();
  EXPECT_THROW((void)model.label_name(99), std::out_of_range);
}

// --- Malformed-file hardening (files are data, not trusted input) ----------

namespace {

/// A syntactically valid single-leaf model file to mutate from.
std::string valid_model_text() {
  return "apollo-model 1\n"
         "parameter policy\n"
         "dicts 0\n"
         "apollo-tree 1\n"
         "features 1 num_indices\n"
         "labels 2 omp seq\n"
         "nodes 1\n"
         "-1 0 -1 -1 0 10 0\n";
}

std::string load_error(const std::string& text) {
  std::istringstream in(text);
  try {
    (void)TunerModel::load(in);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

}  // namespace

TEST(TunerModelHardening, ValidMinimalFileLoads) {
  std::istringstream in(valid_model_text());
  const TunerModel model = TunerModel::load(in);
  EXPECT_EQ(model.parameter(), TunedParameter::Policy);
}

TEST(TunerModelHardening, UnknownParameterTagThrowsDescriptively) {
  std::string text = valid_model_text();
  text.replace(text.find("parameter policy"), 16, "parameter bogus!");
  EXPECT_NE(load_error(text).find("unknown parameter tag 'bogus!'"), std::string::npos);
}

TEST(TunerModelHardening, NegativeAndHugeDictCountsRejected) {
  std::string text = valid_model_text();
  text.replace(text.find("dicts 0"), 7, "dicts -3");
  EXPECT_NE(load_error(text).find("invalid dict count"), std::string::npos);

  text = valid_model_text();
  text.replace(text.find("dicts 0"), 7, "dicts 99999999");
  EXPECT_NE(load_error(text).find("invalid dict count"), std::string::npos);
}

TEST(TunerModelHardening, TruncatedDictsRejected) {
  std::string text = valid_model_text();
  text.replace(text.find("dicts 0"), 7, "dicts 5");
  // Fewer dict lines than promised: the tree header is eaten as a dict line
  // and the stream ends early.
  EXPECT_FALSE(load_error(text).empty());
}

namespace {

/// valid_model_text() retagged as a `parameter` model with the two labels
/// `labels` (space separated).
std::string labeled_model_text(const std::string& parameter, const std::string& labels) {
  std::string text = valid_model_text();
  text.replace(text.find("parameter policy"), 16, "parameter " + parameter);
  text.replace(text.find("labels 2 omp seq"), 16, "labels 2 " + labels);
  return text;
}

}  // namespace

// A label the model's parameter cannot name fails at load, not at the first
// tuned launch that predicts it.
TEST(TunerModelHardening, NonNumericChunkLabelRejected) {
  const std::string error = load_error(labeled_model_text("chunk_size", "16 abc"));
  EXPECT_NE(error.find("label 'abc'"), std::string::npos) << error;
}

TEST(TunerModelHardening, OverflowingChunkLabelRejected) {
  const std::string error =
      load_error(labeled_model_text("chunk_size", "16 99999999999999999999"));
  EXPECT_NE(error.find("label '99999999999999999999'"), std::string::npos) << error;
}

TEST(TunerModelHardening, NegativeOrOversizedThreadsLabelRejected) {
  std::string error = load_error(labeled_model_text("threads", "4 -1"));
  EXPECT_NE(error.find("label '-1'"), std::string::npos) << error;
  // One past the largest team size ModelParams::threads can hold.
  error = load_error(labeled_model_text("threads", "4 4294967296"));
  EXPECT_NE(error.find("label '4294967296'"), std::string::npos) << error;
}

TEST(TunerModelHardening, MisspelledPolicyLabelRejected) {
  const std::string error = load_error(labeled_model_text("policy", "omp_typo seq"));
  EXPECT_NE(error.find("label 'omp_typo'"), std::string::npos) << error;
}

TEST(TunerModelHardening, LabelsResolveToTheValuesTheyName) {
  std::istringstream chunk(labeled_model_text("chunk_size", "0 1024"));
  EXPECT_EQ(TunerModel::load(chunk).label_values(), (std::vector<std::int64_t>{0, 1024}));
  std::istringstream threads(labeled_model_text("threads", "1 4294967295"));
  EXPECT_EQ(TunerModel::load(threads).label_values(),
            (std::vector<std::int64_t>{1, 4294967295}));
  std::istringstream policy(valid_model_text());  // labels "omp seq"
  EXPECT_EQ(TunerModel::load(policy).label_values(),
            (std::vector<std::int64_t>{
                static_cast<std::int64_t>(raja::PolicyType::seq_segit_omp_parallel_for_exec),
                static_cast<std::int64_t>(raja::PolicyType::seq_segit_seq_exec)}));
}

TEST(TreeHardening, NegativeOrHugeCountsRejected) {
  EXPECT_NE(load_error("apollo-model 1\nparameter policy\ndicts 0\n"
                       "apollo-tree 1\nfeatures -1 x\n")
                .find("invalid"),
            std::string::npos);
  EXPECT_NE(load_error("apollo-model 1\nparameter policy\ndicts 0\n"
                       "apollo-tree 1\nfeatures 1 x\nlabels 999999999 a\n")
                .find("invalid"),
            std::string::npos);
}

TEST(TreeHardening, EmptyTreeRejected) {
  std::string text = valid_model_text();
  text.replace(text.find("nodes 1\n-1 0 -1 -1 0 10 0\n"), 26, "nodes 0\n");
  EXPECT_NE(load_error(text).find("empty tree"), std::string::npos);
}

TEST(TreeHardening, TruncatedNodeTableRejected) {
  std::string text = valid_model_text();
  text.replace(text.find("nodes 1"), 7, "nodes 3");
  EXPECT_NE(load_error(text).find("truncated node table"), std::string::npos);
}

TEST(TreeHardening, LeafLabelOutOfRangeRejected) {
  std::string text = valid_model_text();
  text.replace(text.find("-1 0 -1 -1 0 10 0"), 17, "-1 0 -1 -1 7 10 0");
  EXPECT_NE(load_error(text).find("leaf label out of range"), std::string::npos);
}

TEST(TreeHardening, SplitFeatureOutOfRangeRejected) {
  std::string text = valid_model_text();
  text.replace(text.find("nodes 1\n-1 0 -1 -1 0 10 0\n"), 26,
               "nodes 3\n5 1.5 1 2 -1 10 0\n-1 0 -1 -1 0 5 0\n-1 0 -1 -1 1 5 0\n");
  EXPECT_NE(load_error(text).find("split feature out of range"), std::string::npos);
}

TEST(TreeHardening, ChildIndexOutOfRangeRejected) {
  std::string text = valid_model_text();
  text.replace(text.find("nodes 1\n-1 0 -1 -1 0 10 0\n"), 26,
               "nodes 3\n0 1.5 1 9 -1 10 0\n-1 0 -1 -1 0 5 0\n-1 0 -1 -1 1 5 0\n");
  EXPECT_NE(load_error(text).find("child index out of range"), std::string::npos);
}

TEST(TreeHardening, BackwardChildEdgeRejectedAsCycle) {
  // Node 1 points back at node 0: following it would loop forever.
  std::string text = valid_model_text();
  text.replace(text.find("nodes 1\n-1 0 -1 -1 0 10 0\n"), 26,
               "nodes 3\n0 1.5 1 2 -1 10 0\n0 0.5 0 2 -1 5 0\n-1 0 -1 -1 1 5 0\n");
  EXPECT_NE(load_error(text).find("does not point forward"), std::string::npos);
}

// --- Mutation sweeps over a saved model ------------------------------------
//
// The saved text is what model files hold, including the generations the
// model registry persists and restores (apollo_adapt --model-dir). Whatever
// the damage, loading must either throw, or yield a model that compiles (or
// is refused with std::invalid_argument) and then predicts a label the model
// has.

namespace {

/// A trained policy model with a categorical dictionary and a tree several
/// levels deep: omp wins every other pair of launch sizes, except on "sod",
/// where the pattern flips.
std::string saved_policy_model() {
  Dataset d({"num_indices", "problem_name"}, {"omp", "seq"});
  for (int i = 0; i < 96; ++i) {
    const int size_step = i % 8;
    const int problem = i % 3;  // code into {"lulesh", "sedov", "sod"}
    const bool omp = (size_step / 2 % 2 == 1) != (problem == 2);
    d.add_row({1000.0 * (size_step + 1), static_cast<double>(problem)}, omp ? 0 : 1);
  }
  TreeParams p;
  p.min_samples_leaf = 1;
  p.min_samples_split = 2;
  const TunerModel model(TunedParameter::Policy, DecisionTree::fit(d, p),
                         {{"problem_name", {"lulesh", "sedov", "sod"}}});
  std::ostringstream out;
  model.save(out);
  return out.str();
}

/// Load `text`; when it loads and compiles, predict a few launches. Returns
/// true when the text produced a compiled model.
bool load_compile_predict(const std::string& text, const std::string& what) {
  static const KernelHandle kernel{"fuzz:kernel", "FuzzKernel",
                                   apollo::instr::MixBuilder{}.fp(2).load(2).store(1).build(),
                                   24};
  std::optional<TunerModel> model;
  try {
    std::istringstream in(text);
    model = TunerModel::load(in);
  } catch (const std::exception&) {
    return false;
  }
  std::optional<CompiledModel> compiled;
  try {
    compiled = CompiledModel::compile(*model);
  } catch (const std::invalid_argument&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << ": compile threw something other than invalid_argument: "
                  << error.what();
    return false;
  }
  std::vector<double> scratch;
  for (const raja::Index size : {raja::Index{1}, raja::Index{2500}, raja::Index{7000}}) {
    const int label = compiled->predict(kernel, raja::IndexSet::range(0, size), scratch);
    EXPECT_GE(label, 0) << what;
    EXPECT_LT(static_cast<std::size_t>(label), model->num_labels()) << what;
  }
  return true;
}

}  // namespace

TEST(TunerModelFuzz, EveryProperPrefixThrowsOrLoadsSafely) {
  const std::string text = saved_policy_model();
  ASSERT_TRUE(load_compile_predict(text, "unmutated"));
  std::size_t rejected = 0;
  for (std::size_t cut = 0; cut < text.size(); ++cut) {
    if (!load_compile_predict(text.substr(0, cut), "prefix " + std::to_string(cut))) ++rejected;
  }
  // At most the prefix missing only the final newline parses.
  EXPECT_GE(rejected + 1, text.size());
}

TEST(TunerModelFuzz, EverySingleBitFlipThrowsOrLoadsSafely) {
  const std::string text = saved_policy_model();
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^ (1u << bit));
      if (load_compile_predict(flipped, "byte " + std::to_string(i) + " bit " +
                                            std::to_string(bit))) {
        ++loaded;
      }
    }
  }
  // Flips in thresholds and sample counts leave a valid model, so the sweep
  // also reaches compile and predict.
  EXPECT_GT(loaded, 0u);
}
