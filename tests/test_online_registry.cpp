// Unit tests for the versioned ModelRegistry: atomic hot-swap visibility
// from a reader thread, carry-forward publishing, and persistence across
// registry instances (the crash-restart path).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/tuner_model.hpp"
#include "ml/decision_tree.hpp"
#include "online/model_registry.hpp"

using apollo::TunedParameter;
using apollo::TunerModel;
using apollo::ml::Dataset;
using apollo::ml::DecisionTree;
using apollo::ml::TreeParams;
using apollo::online::ModelRegistry;

namespace {

/// A trivial fitted model whose single leaf predicts `label`.
TunerModel constant_model(TunedParameter parameter, const std::string& label) {
  Dataset d({"num_indices"}, {label});
  for (int i = 0; i < 8; ++i) d.add_row({static_cast<double>(i)}, 0);
  TreeParams p;
  p.min_samples_leaf = 1;
  return TunerModel(parameter, DecisionTree::fit(d, p), {});
}

}  // namespace

TEST(ModelRegistry, StartsEmpty) {
  ModelRegistry registry;
  EXPECT_EQ(registry.version(), 0u);
  EXPECT_EQ(registry.current(), nullptr);
}

TEST(ModelRegistry, PublishBumpsVersionAndCarriesForward) {
  ModelRegistry registry;
  EXPECT_EQ(registry.publish(constant_model(TunedParameter::Policy, "seq")), 1u);

  const auto v1 = registry.current();
  ASSERT_NE(v1, nullptr);
  EXPECT_EQ(v1->version, 1u);
  ASSERT_TRUE(v1->policy.has_value());
  EXPECT_FALSE(v1->chunk.has_value());

  // A chunk-only publish must not discard the deployed policy model.
  EXPECT_EQ(registry.publish(std::nullopt, constant_model(TunedParameter::ChunkSize, "64")), 2u);
  const auto v2 = registry.current();
  ASSERT_TRUE(v2->policy.has_value());
  ASSERT_TRUE(v2->chunk.has_value());

  // The old snapshot stays valid and immutable after the new publish.
  EXPECT_EQ(v1->version, 1u);
  EXPECT_FALSE(v1->chunk.has_value());
}

TEST(ModelRegistry, ReaderThreadSeesMonotonicConsistentSwaps) {
  ModelRegistry registry;
  constexpr std::uint64_t kVersions = 50;
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  std::thread reader([&] {
    std::uint64_t last_seen = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t version = registry.version();
      if (version < last_seen) failed.store(true);
      last_seen = version;
      if (const auto snapshot = registry.current()) {
        // Every published snapshot carries a policy model; a torn read
        // (version set, models missing) would trip this.
        if (snapshot->version == 0 || !snapshot->policy.has_value()) failed.store(true);
      }
    }
  });

  for (std::uint64_t i = 0; i < kVersions; ++i) {
    registry.publish(constant_model(TunedParameter::Policy, i % 2 == 0 ? "seq" : "omp"));
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(failed.load());
  EXPECT_EQ(registry.version(), kVersions);
}

TEST(ModelRegistry, PersistsAndRestoresLatestGeneration) {
  const auto dir = std::filesystem::temp_directory_path() / "apollo_registry_test";
  std::filesystem::remove_all(dir);

  {
    ModelRegistry registry;
    registry.set_persist_dir(dir.string());
    registry.publish(constant_model(TunedParameter::Policy, "seq"));
    registry.publish(constant_model(TunedParameter::Policy, "omp"));
    EXPECT_EQ(registry.version(), 2u);
  }

  // A fresh registry (new process, in spirit) resumes from the newest
  // persisted generation, keeping the version sequence.
  ModelRegistry restored;
  restored.set_persist_dir(dir.string());
  EXPECT_EQ(restored.load_latest(), 2u);
  EXPECT_EQ(restored.version(), 2u);
  const auto snapshot = restored.current();
  ASSERT_NE(snapshot, nullptr);
  ASSERT_TRUE(snapshot->policy.has_value());
  EXPECT_EQ(snapshot->policy->tree().label_names().at(0), "omp");

  // The next publish continues the sequence instead of restarting at 1.
  EXPECT_EQ(restored.publish(constant_model(TunedParameter::Policy, "seq")), 3u);

  std::filesystem::remove_all(dir);
}

TEST(ModelRegistry, LoadLatestOnEmptyDirReturnsZero) {
  const auto dir = std::filesystem::temp_directory_path() / "apollo_registry_empty";
  std::filesystem::remove_all(dir);
  ModelRegistry registry;
  registry.set_persist_dir(dir.string());
  EXPECT_EQ(registry.load_latest(), 0u);
  EXPECT_EQ(registry.current(), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(ModelRegistry, RestoreRejectsAModelInTheWrongSlot) {
  const auto dir = std::filesystem::temp_directory_path() / "apollo_registry_wrong_slot";
  std::filesystem::remove_all(dir);
  {
    ModelRegistry registry;
    registry.set_persist_dir(dir.string());
    registry.publish(constant_model(TunedParameter::Policy, "seq"));
  }
  // A chunk-size model saved under the policy slot's file name.
  constant_model(TunedParameter::ChunkSize, "64")
      .save_file((dir / "v000001.policy.model").string());
  ModelRegistry restored;
  restored.set_persist_dir(dir.string());
  EXPECT_THROW(restored.load_latest(), std::invalid_argument);
  EXPECT_EQ(restored.version(), 0u);
  EXPECT_EQ(restored.current(), nullptr);
  std::filesystem::remove_all(dir);
}
