// Unit tests for workload-drift detection and the evidence it reads: feature
// buckets, the per-kernel evidence table's decayed baselines, regret-window
// firing, cooldown, and re-arming after a hot-swap.

#include <gtest/gtest.h>

#include <mutex>
#include <string>

#include "online/drift_detector.hpp"
#include "online/evidence_table.hpp"
#include "online/kernel_shard.hpp"

using apollo::online::BestVariant;
using apollo::online::DriftConfig;
using apollo::online::DriftDetector;
using apollo::online::EvidenceTable;
using apollo::online::feature_bucket;
using apollo::online::KernelQuality;
using apollo::online::KernelShard;

namespace {

constexpr std::uint64_t kFast = 1;
constexpr std::uint64_t kSlow = 2;
constexpr std::uint64_t kBucket = 0x51;

DriftConfig small_config() {
  DriftConfig c;
  c.window = 8;
  c.min_samples = 4;
  c.regret_threshold = 0.25;
  c.cooldown = 6;
  return c;
}

/// A kernel's drift detector together with the evidence table that feeds
/// it, wired as OnlineTuner::observe wires them: every launch refreshes the
/// table, and a chosen one is scored against the table's best.
class Detector : public DriftDetector {
public:
  explicit Detector(DriftConfig config) : DriftDetector(config) {}

  void observe(std::uint64_t bucket, std::uint64_t variant, double seconds, bool chosen) {
    const BestVariant best = table.observe(bucket, variant, seconds);
    if (chosen) DriftDetector::observe(seconds, best.seconds);
  }

  EvidenceTable table;
};

/// Teach the detector both variants' runtimes via explored observations.
void seed_baselines(Detector& det, double fast_seconds, double slow_seconds) {
  for (int i = 0; i < 4; ++i) {
    det.observe(kBucket, kFast, fast_seconds, /*chosen=*/false);
    det.observe(kBucket, kSlow, slow_seconds, /*chosen=*/false);
  }
}

}  // namespace

TEST(FeatureBucket, GroupsByMagnitudeAndSegments) {
  EXPECT_EQ(feature_bucket(1000, 1), feature_bucket(1023, 1));   // same log2
  EXPECT_NE(feature_bucket(1000, 1), feature_bucket(4000, 1));   // different log2
  EXPECT_NE(feature_bucket(1000, 1), feature_bucket(1000, 2));   // segments matter
  EXPECT_EQ(feature_bucket(1000, 100), feature_bucket(1000, 15));  // capped at 15
  EXPECT_EQ(feature_bucket(0, 1), feature_bucket(-5, 1));          // degenerate sizes
}

TEST(DriftDetector, SingleVariantNeverFires) {
  Detector det(small_config());
  // Only the chosen variant has ever been observed: regret is zero by
  // construction, no matter how slow the launches are.
  for (int i = 0; i < 100; ++i) det.observe(kBucket, kFast, 5.0, /*chosen=*/true);
  EXPECT_FALSE(det.consume_fire());
  EXPECT_EQ(det.fires(), 0u);
}

TEST(DriftDetector, FiresWhenChosenVariantRegretsAgainstKnownBetter) {
  Detector det(small_config());
  seed_baselines(det, /*fast=*/1.0, /*slow=*/2.0);
  EXPECT_FALSE(det.consume_fire());

  // The model keeps choosing the slow variant: regret vs the fast baseline
  // is ~1.0 > threshold, so the window fires once min_samples accumulate.
  for (int i = 0; i < 4; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_TRUE(det.consume_fire());
  EXPECT_FALSE(det.consume_fire());  // reading clears the flag
  EXPECT_EQ(det.fires(), 1u);
}

TEST(DriftDetector, CooldownSuppressesImmediateRefire) {
  Detector det(small_config());
  seed_baselines(det, 1.0, 2.0);
  for (int i = 0; i < 4; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  ASSERT_TRUE(det.consume_fire());

  // Still regretting, but within the cooldown: no second fire yet.
  for (int i = 0; i < 6; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_FALSE(det.consume_fire());

  // The cooldown is consumed (while the window kept accumulating): the very
  // next regretting launch fires again.
  det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_TRUE(det.consume_fire());
  EXPECT_EQ(det.fires(), 2u);
}

TEST(DriftDetector, BaselineAccessors) {
  Detector det(small_config());
  EXPECT_LT(det.table.baseline(kBucket, kFast), 0.0);      // unseen
  EXPECT_LT(det.table.best(kBucket), 0.0);                 // empty bucket

  seed_baselines(det, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(det.table.baseline(kBucket, kFast), 1.0);
  EXPECT_DOUBLE_EQ(det.table.baseline(kBucket, kSlow), 2.0);
  EXPECT_DOUBLE_EQ(det.table.best(kBucket), 1.0);
  EXPECT_LT(det.table.baseline(kBucket + 1, kFast), 0.0);  // other buckets untouched
}

TEST(DriftDetector, RegretWindowSlides) {
  DriftConfig config = small_config();
  config.regret_threshold = 10.0;  // never fire; we only watch the window
  Detector det(config);
  seed_baselines(det, 1.0, 2.0);

  for (int i = 0; i < 20; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_EQ(det.window_size(), config.window);
  EXPECT_NEAR(det.mean_regret(), 1.0, 0.05);

  // A full window of good launches displaces the old regrets entirely.
  for (int i = 0; i < 8; ++i) det.observe(kBucket, kFast, 1.0, /*chosen=*/true);
  EXPECT_NEAR(det.mean_regret(), 0.0, 1e-9);
}

TEST(DriftDetector, RearmClearsWindowKeepsBaselines) {
  Detector det(small_config());
  seed_baselines(det, 1.0, 2.0);
  for (int i = 0; i < 3; ++i) det.observe(kBucket, kSlow, 2.0, /*chosen=*/true);
  EXPECT_GT(det.window_size(), 0u);

  det.rearm();
  EXPECT_EQ(det.window_size(), 0u);
  EXPECT_FALSE(det.consume_fire());
  // Baselines survive: they are the evidence the next detection needs.
  EXPECT_DOUBLE_EQ(det.table.baseline(kBucket, kSlow), 2.0);
}

// One kernel's shard feeds quality accounting and drift detection from a
// single table. The expected numbers are what the two separate tables this
// one replaced (the quality accountant's and the drift detector's own EWMA
// baselines, fed the same launches and probe in the same order) gave on this
// sequence: merging them changed no score.
TEST(EvidenceTable, QualityAndDriftScoreOneSequenceAsTheirOwnTablesDid) {
  const std::string name = "k";
  KernelShard shard(name, 1);
  DriftConfig config;
  config.regret_threshold = 100.0;  // never fire: watch the window
  DriftDetector det(config);
  const std::lock_guard<std::mutex> lock(shard.mutex());
  const auto launch = [&](std::uint64_t variant, double seconds, bool chosen) {
    const BestVariant best = shard.observe_locked(kBucket, variant, seconds, /*score=*/chosen);
    if (chosen) det.observe(seconds, best.seconds);
  };
  launch(kSlow, 0.010, true);
  launch(kFast, 0.004, false);  // explored
  launch(kSlow, 0.012, true);
  shard.probe_locked(kBucket, kFast, 0.003);
  launch(kSlow, 0.011, true);
  launch(kFast, 0.005, true);
  launch(kFast, 0.0045, true);
  launch(kSlow, 0.009, false);  // explored
  launch(kSlow, 0.010, true);

  const KernelQuality& quality = shard.quality_locked();
  EXPECT_EQ(quality.launches, 6u);
  EXPECT_EQ(quality.agreements, 3u);
  EXPECT_EQ(quality.probes, 1u);
  EXPECT_DOUBLE_EQ(quality.regret_seconds, 0.022343749999999999);
  EXPECT_EQ(det.window_size(), 6u);
  EXPECT_DOUBLE_EQ(det.mean_regret(), 0.93995966580236223);
  EXPECT_DOUBLE_EQ(shard.evidence_locked().baseline(kBucket, kSlow), 0.010164062500000001);
  EXPECT_DOUBLE_EQ(shard.evidence_locked().baseline(kBucket, kFast), 0.0041718750000000002);
  EXPECT_DOUBLE_EQ(shard.evidence_locked().best(kBucket), 0.0041718750000000002);
}

TEST(EvidenceTable, TiesGoToTheFirstSeenVariant) {
  const std::string name = "k";
  KernelShard shard(name, 1);
  DriftDetector det;
  const std::lock_guard<std::mutex> lock(shard.mutex());
  det.observe(0.002, shard.observe_locked(kBucket, kSlow, 0.002, /*score=*/true).seconds);
  shard.probe_locked(kBucket, kFast, 0.002);
  // kFast ties kSlow, which was seen first: a disagreement, with no regret.
  const BestVariant best = shard.observe_locked(kBucket, kFast, 0.002, /*score=*/true);
  det.observe(0.002, best.seconds);
  EXPECT_EQ(best.variant, kSlow);
  EXPECT_EQ(shard.quality_locked().launches, 2u);
  EXPECT_EQ(shard.quality_locked().agreements, 1u);
  EXPECT_DOUBLE_EQ(shard.quality_locked().regret_seconds, 0.0);
  EXPECT_DOUBLE_EQ(det.mean_regret(), 0.0);
}
