// Unit and property tests for the CART decision-tree classifier.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <vector>

#include "ml/decision_tree.hpp"

using apollo::ml::Dataset;
using apollo::ml::DecisionTree;
using apollo::ml::TreeParams;

namespace {

/// 1D linearly separable data: label = x > 10.
Dataset separable_1d() {
  Dataset d({"x"}, {"lo", "hi"});
  for (int i = 0; i < 40; ++i) d.add_row({static_cast<double>(i)}, i > 10 ? 1 : 0);
  return d;
}

/// XOR over two binary features: needs depth >= 2.
Dataset xor_data() {
  Dataset d({"a", "b"}, {"zero", "one"});
  for (int rep = 0; rep < 5; ++rep) {
    d.add_row({0.0, 0.0}, 0);
    d.add_row({0.0, 1.0}, 1);
    d.add_row({1.0, 0.0}, 1);
    d.add_row({1.0, 1.0}, 0);
  }
  return d;
}

TreeParams loose() {
  TreeParams p;
  p.min_samples_leaf = 1;
  p.min_samples_split = 2;
  return p;
}

/// Random multi-class dataset: `features` columns, `classes` labels, with a
/// feature-dependent label rule plus noise so fitted trees grow real depth.
Dataset random_dataset(std::mt19937_64& rng, std::size_t features, int classes,
                       std::size_t rows) {
  std::vector<std::string> feature_names;
  for (std::size_t f = 0; f < features; ++f) feature_names.push_back("f" + std::to_string(f));
  std::vector<std::string> label_names;
  for (int c = 0; c < classes; ++c) label_names.push_back("c" + std::to_string(c));
  Dataset d(feature_names, label_names);
  std::uniform_real_distribution<double> value(-10.0, 10.0);
  std::uniform_int_distribution<int> noise(0, 9);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(features);
    double sum = 0.0;
    for (auto& v : row) {
      v = value(rng);
      sum += v;
    }
    int label = static_cast<int>(std::fabs(sum)) % classes;
    if (noise(rng) == 0) label = (label + 1) % classes;  // 10% label noise
    d.add_row(row, label);
  }
  return d;
}

/// Feature vectors that stress the walk: random values, exact node
/// thresholds (the `<=` boundary), +/-inf, and NaN.
std::vector<std::vector<double>> probe_vectors(std::mt19937_64& rng, const DecisionTree& tree,
                                               std::size_t features, std::size_t count) {
  std::vector<std::vector<double>> probes;
  std::uniform_real_distribution<double> value(-12.0, 12.0);
  std::uniform_int_distribution<std::size_t> pick_node(0, tree.node_count() - 1);
  std::uniform_int_distribution<std::size_t> pick_feature(0, features - 1);
  std::uniform_int_distribution<int> special(0, 9);
  for (std::size_t p = 0; p < count; ++p) {
    std::vector<double> v(features);
    for (auto& x : v) x = value(rng);
    switch (special(rng)) {
      case 0: v[pick_feature(rng)] = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v[pick_feature(rng)] = std::numeric_limits<double>::infinity(); break;
      case 2: v[pick_feature(rng)] = -std::numeric_limits<double>::infinity(); break;
      case 3: {
        const auto& node = tree.nodes()[pick_node(rng)];
        if (node.feature >= 0) v[static_cast<std::size_t>(node.feature)] = node.threshold;
        break;
      }
      default: break;
    }
    probes.push_back(std::move(v));
  }
  return probes;
}

/// One split on x at 5; the root's children are stored swapped (left=2,
/// right=1), which the loader accepts as long as every edge points forward.
DecisionTree non_preorder_tree() {
  std::stringstream io;
  io << "apollo-tree 1\n"
     << "features 1 x\n"
     << "labels 2 lo hi\n"
     << "nodes 3\n"
     << "0 5 2 1 0 10 0.5\n"
     << "-1 0 -1 -1 1 4 0\n"
     << "-1 0 -1 -1 0 6 0\n";
  return DecisionTree::load(io);
}

}  // namespace

TEST(DecisionTree, EmptyDatasetGivesEmptyTree) {
  const Dataset d({"x"}, {"a"});
  const DecisionTree tree = DecisionTree::fit(d);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.predict(std::vector<double>{1.0}), 0);  // safe default
}

TEST(DecisionTree, PerfectOnSeparableData) {
  const Dataset d = separable_1d();
  const DecisionTree tree = DecisionTree::fit(d, loose());
  EXPECT_DOUBLE_EQ(tree.score(d), 1.0);
  EXPECT_EQ(tree.depth(), 1);
  EXPECT_EQ(tree.node_count(), 3u);
}

TEST(DecisionTree, ThresholdIsMidpoint) {
  const Dataset d = separable_1d();
  const DecisionTree tree = DecisionTree::fit(d, loose());
  const auto& root = tree.nodes()[0];
  EXPECT_EQ(root.feature, 0);
  EXPECT_DOUBLE_EQ(root.threshold, 10.5);
}

TEST(DecisionTree, PureDatasetIsSingleLeaf) {
  Dataset d({"x"}, {"only", "other"});
  for (int i = 0; i < 10; ++i) d.add_row({static_cast<double>(i)}, 0);
  const DecisionTree tree = DecisionTree::fit(d);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{3.0}), 0);
}

TEST(DecisionTree, ConstantFeaturesGiveMajorityLeaf) {
  Dataset d({"x"}, {"a", "b"});
  for (int i = 0; i < 7; ++i) d.add_row({1.0}, 0);
  for (int i = 0; i < 3; ++i) d.add_row({1.0}, 1);
  const DecisionTree tree = DecisionTree::fit(d, loose());
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{1.0}), 0);
}

TEST(DecisionTree, XorNeedsDepthTwo) {
  const Dataset d = xor_data();
  TreeParams shallow = loose();
  shallow.max_depth = 1;
  EXPECT_LT(DecisionTree::fit(d, shallow).score(d), 1.0);
  TreeParams deep = loose();
  deep.max_depth = 2;
  EXPECT_DOUBLE_EQ(DecisionTree::fit(d, deep).score(d), 1.0);
}

TEST(DecisionTree, MaxDepthRespected) {
  std::mt19937 rng(3);
  Dataset d({"x", "y"}, {"a", "b"});
  std::uniform_real_distribution<double> dist(0, 1);
  for (int i = 0; i < 500; ++i) {
    const double x = dist(rng), y = dist(rng);
    d.add_row({x, y}, (std::sin(20 * x) + std::cos(17 * y)) > 0 ? 1 : 0);
  }
  for (int depth : {1, 3, 5, 8}) {
    TreeParams p = loose();
    p.max_depth = depth;
    EXPECT_LE(DecisionTree::fit(d, p).depth(), depth);
  }
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Dataset d = separable_1d();
  TreeParams p = loose();
  p.min_samples_leaf = 5;
  const DecisionTree tree = DecisionTree::fit(d, p);
  for (const auto& node : tree.nodes()) {
    if (node.feature < 0) {
      EXPECT_GE(node.samples, 5);
    }
  }
}

TEST(DecisionTree, MultiClass) {
  Dataset d({"x"}, {"a", "b", "c"});
  for (int i = 0; i < 30; ++i) d.add_row({static_cast<double>(i)}, i < 10 ? 0 : (i < 20 ? 1 : 2));
  const DecisionTree tree = DecisionTree::fit(d, loose());
  EXPECT_DOUBLE_EQ(tree.score(d), 1.0);
  EXPECT_EQ(tree.predict(std::vector<double>{5.0}), 0);
  EXPECT_EQ(tree.predict(std::vector<double>{15.0}), 1);
  EXPECT_EQ(tree.predict(std::vector<double>{25.0}), 2);
}

TEST(DecisionTree, PredictValidatesWidth) {
  const DecisionTree tree = DecisionTree::fit(separable_1d(), loose());
  EXPECT_THROW((void)tree.predict(std::vector<double>{1.0, 2.0}), std::invalid_argument);
}

TEST(DecisionTree, ImportancesConcentrateOnInformativeFeature) {
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> dist(0, 1);
  Dataset d({"noise", "signal"}, {"a", "b"});
  for (int i = 0; i < 400; ++i) {
    const double noise = dist(rng), signal = dist(rng);
    d.add_row({noise, signal}, signal > 0.5 ? 1 : 0);
  }
  const DecisionTree tree = DecisionTree::fit(d, loose());
  const auto importances = tree.feature_importances();
  ASSERT_EQ(importances.size(), 2u);
  EXPECT_NEAR(importances[0] + importances[1], 1.0, 1e-9);
  EXPECT_GT(importances[1], 0.9);
}

TEST(DecisionTree, ImportancesZeroForLeafTree) {
  Dataset d({"x"}, {"a", "b"});
  d.add_row({1.0}, 0);
  d.add_row({1.0}, 0);
  const auto importances = DecisionTree::fit(d).feature_importances();
  EXPECT_DOUBLE_EQ(importances[0], 0.0);
}

TEST(DecisionTree, PruneReducesDepthKeepsMajority) {
  const Dataset d = xor_data();
  TreeParams p = loose();
  const DecisionTree tree = DecisionTree::fit(d, p);
  ASSERT_GE(tree.depth(), 2);
  const DecisionTree pruned = tree.prune_to_depth(1);
  EXPECT_LE(pruned.depth(), 1);
  const DecisionTree root_only = tree.prune_to_depth(0);
  EXPECT_EQ(root_only.node_count(), 1u);
  // Root-only prediction is the global majority class.
  EXPECT_EQ(root_only.predict(std::vector<double>{0.0, 0.0}),
            root_only.predict(std::vector<double>{1.0, 0.0}));
}

TEST(DecisionTree, PruneDeeperThanTreeIsIdentityInBehaviour) {
  const Dataset d = separable_1d();
  const DecisionTree tree = DecisionTree::fit(d, loose());
  const DecisionTree pruned = tree.prune_to_depth(30);
  EXPECT_DOUBLE_EQ(pruned.score(d), tree.score(d));
  EXPECT_EQ(pruned.node_count(), tree.node_count());
}

TEST(DecisionTree, SaveLoadRoundTrip) {
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> dist(0, 1);
  Dataset d({"u", "v", "w"}, {"p", "q", "r"});
  for (int i = 0; i < 300; ++i) {
    const double u = dist(rng), v = dist(rng), w = dist(rng);
    d.add_row({u, v, w}, u > 0.6 ? 2 : (v + w > 1.0 ? 1 : 0));
  }
  const DecisionTree tree = DecisionTree::fit(d, loose());
  std::stringstream stream;
  tree.save(stream);
  const DecisionTree back = DecisionTree::load(stream);
  EXPECT_EQ(back.node_count(), tree.node_count());
  EXPECT_EQ(back.feature_names(), tree.feature_names());
  EXPECT_EQ(back.label_names(), tree.label_names());
  for (std::size_t r = 0; r < d.num_rows(); ++r) {
    EXPECT_EQ(back.predict(d.row(r).data()), tree.predict(d.row(r).data()));
  }
}

TEST(DecisionTree, PredictPathFollowsTheSplitRuleOnRandomTrees) {
  // Every step of the recorded path must be the child the split rule picks
  // (value <= threshold goes left; NaN fails the comparison and goes right),
  // and the path's leaf must carry the label predict() returns.
  std::mt19937_64 rng(0xf1a77ee5ULL);
  std::uniform_int_distribution<std::size_t> feature_count(2, 6);
  std::uniform_int_distribution<int> class_count(2, 4);
  for (int round = 0; round < 25; ++round) {
    const std::size_t features = feature_count(rng);
    const Dataset d = random_dataset(rng, features, class_count(rng), 250);
    const DecisionTree tree = DecisionTree::fit(d, loose());
    ASSERT_FALSE(tree.empty());
    for (const auto& v : probe_vectors(rng, tree, features, 200)) {
      std::vector<int> path;
      const int label = tree.predict_path(v.data(), path);
      ASSERT_EQ(label, tree.predict(v.data())) << "round " << round;
      ASSERT_EQ(path.front(), 0);
      for (std::size_t step = 0; step + 1 < path.size(); ++step) {
        const auto& node = tree.nodes()[static_cast<std::size_t>(path[step])];
        ASSERT_GE(node.feature, 0);
        const double x = v[static_cast<std::size_t>(node.feature)];
        ASSERT_EQ(path[step + 1], x <= node.threshold ? node.left : node.right);
      }
      const auto& leaf = tree.nodes()[static_cast<std::size_t>(path.back())];
      ASSERT_LT(leaf.feature, 0);
      ASSERT_EQ(leaf.label, label);
    }
  }
}

TEST(DecisionTree, ThresholdGoesLeftNanGoesRightInfinitiesOrder) {
  const DecisionTree tree = DecisionTree::fit(separable_1d(), loose());
  ASSERT_EQ(tree.nodes()[0].feature, 0);
  const double threshold = tree.nodes()[0].threshold;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(tree.predict(&threshold), 0);  // exactly on the split: left ("lo")
  EXPECT_EQ(tree.predict(&nan), 1);        // missing: right ("hi")
  EXPECT_EQ(tree.predict(&inf), 1);
  const double neg_inf = -inf;
  EXPECT_EQ(tree.predict(&neg_inf), 0);
}

TEST(DecisionTree, NonPreorderLoadedTreeFollowsStoredChildren) {
  const DecisionTree tree = non_preorder_tree();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double x : {-1.0, 4.9, 5.0}) EXPECT_EQ(tree.predict(&x), 0) << "x=" << x;  // node 2
  for (double x : {5.1, 100.0, nan}) EXPECT_EQ(tree.predict(&x), 1) << "x=" << x;  // node 1
  const double x = 5.0;
  std::vector<int> path;
  EXPECT_EQ(tree.predict_path(&x, path), 0);
  EXPECT_EQ(path, (std::vector<int>{0, 2}));
}

TEST(DecisionTree, LoadRejectsGarbage) {
  std::stringstream bad("not-a-tree 1\n");
  EXPECT_THROW((void)DecisionTree::load(bad), std::runtime_error);
}

TEST(DecisionTree, ToTextMentionsFeaturesAndLabels) {
  const DecisionTree tree = DecisionTree::fit(separable_1d(), loose());
  const std::string text = tree.to_text();
  EXPECT_NE(text.find("if (x <= 10.5"), std::string::npos);
  EXPECT_NE(text.find("-> hi"), std::string::npos);
  EXPECT_NE(text.find("-> lo"), std::string::npos);
}

class DepthAccuracySweep : public ::testing::TestWithParam<int> {};

TEST_P(DepthAccuracySweep, DeeperNeverWorseOnTraining) {
  std::mt19937 rng(13);
  std::uniform_real_distribution<double> dist(0, 1);
  Dataset d({"x", "y"}, {"a", "b"});
  for (int i = 0; i < 600; ++i) {
    const double x = dist(rng), y = dist(rng);
    d.add_row({x, y}, (x - 0.5) * (y - 0.5) > 0 ? 1 : 0);
  }
  TreeParams shallow = loose();
  shallow.max_depth = GetParam();
  TreeParams deeper = loose();
  deeper.max_depth = GetParam() + 1;
  EXPECT_LE(DecisionTree::fit(d, shallow).score(d), DecisionTree::fit(d, deeper).score(d) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Depths, DepthAccuracySweep, ::testing::Values(1, 2, 3, 5, 8, 12));
