// Unit tests for the model-quality observability layer: per-kernel quality
// totals (online accuracy / regret / calibration with budgeted probes, scored
// from the kernel's evidence table), the decision audit log (JSON round-trip,
// segment rotation, partial-line tolerance), the hardened environment
// parsing, and the quality pane formatting.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/kernel_context.hpp"
#include "core/runtime.hpp"
#include "core/stats_report.hpp"
#include "online/kernel_shard.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/env.hpp"

namespace telemetry = apollo::telemetry;
namespace online = apollo::online;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kSeq = 1;
constexpr std::uint64_t kOmp = 2;

/// Fresh temp directory per test; removed on teardown.
class AuditLogTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("apollo_audit_test_" + std::to_string(::getpid()) + "_" +
                                        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    telemetry::AuditLog::instance().reset_for_testing();
  }
  void TearDown() override {
    telemetry::AuditLog::instance().reset_for_testing();
    fs::remove_all(dir_);
  }
  [[nodiscard]] std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

telemetry::AuditRecord make_decision() {
  telemetry::AuditRecord record;
  record.kind = telemetry::AuditRecord::Kind::Decision;
  record.ts_ns = 123456789;
  record.kernel = "stream \"triad\"";
  record.bucket = 42;
  record.model_version = 3;
  record.label = "omp";
  record.policy = "seq";
  record.chunk = 128;
  record.explored = true;
  record.seconds = 0.00125;
  record.features.emplace_back("num_indices", 4096.0);
  record.features.emplace_back("segment\\kind", -1.0);
  return record;
}

/// A sampled decision whose strings hold the characters the parser scans for.
telemetry::AuditRecord make_scanner_bait_decision() {
  telemetry::AuditRecord decision = make_decision();
  decision.kernel = "k}]\"";
  decision.features.emplace_back("x}],[\"y", 110592.5);
  decision.sampled = true;
  decision.tree_path = {0, 1, 4};
  decision.predicted_seconds = 0.0625;
  return decision;
}

/// One finished tuned launch of the shard's kernel, scored as Runtime::end
/// scores it with telemetry on (`chosen` = false: an explored launch).
void launch(online::KernelShard& shard, std::uint64_t bucket, std::uint64_t variant,
            double seconds, bool chosen = true) {
  const std::lock_guard<std::mutex> lock(shard.mutex());
  shard.observe_locked(bucket, variant, seconds, /*score=*/chosen);
}

void probe(online::KernelShard& shard, std::uint64_t bucket, std::uint64_t variant,
           double seconds) {
  const std::lock_guard<std::mutex> lock(shard.mutex());
  shard.probe_locked(bucket, variant, seconds);
}

online::KernelQuality totals(online::KernelShard& shard) {
  const std::lock_guard<std::mutex> lock(shard.mutex());
  return shard.quality_locked();
}

double baseline(online::KernelShard& shard, std::uint64_t bucket, std::uint64_t variant) {
  const std::lock_guard<std::mutex> lock(shard.mutex());
  return shard.evidence_locked().baseline(bucket, variant);
}

double best_baseline(online::KernelShard& shard, std::uint64_t bucket) {
  const std::lock_guard<std::mutex> lock(shard.mutex());
  return shard.evidence_locked().best(bucket);
}

telemetry::AuditRecord make_probe() {
  telemetry::AuditRecord record;
  record.kind = telemetry::AuditRecord::Kind::Probe;
  record.ts_ns = 99;
  record.kernel = "k";
  record.bucket = 5;
  record.model_version = 1;
  record.policy = "omp";
  record.chunk = 0;
  record.seconds = 0.5;
  return record;
}

}  // namespace

// ---------------------------------------------------------------------------
// Quality totals, scored from each kernel's evidence table (the suite keeps
// the name of the QualityAccountant these totals replaced)

TEST(QualityAccountant, UnscoredKernelReportsPerfectAccuracyAndNoRegret) {
  const std::string name = "never_seen";
  online::KernelShard shard(name, 1);
  const online::KernelQuality quality = totals(shard);
  EXPECT_EQ(quality.launches, 0u);
  EXPECT_EQ(quality.probes, 0u);
  EXPECT_DOUBLE_EQ(quality.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(quality.calibration(), 0.0);
  EXPECT_DOUBLE_EQ(quality.regret_seconds, 0.0);

  // The Runtime's view leaves a kernel nothing scored out of its totals.
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  (void)rt.context_for_id("quality:never_seen");
  EXPECT_TRUE(rt.quality_snapshot().empty());
  EXPECT_EQ(rt.probe_count(), 0u);
  EXPECT_DOUBLE_EQ(rt.regret_seconds_total(), 0.0);
}

TEST(QualityAccountant, AgreementAndRegretTrackBestKnownVariant) {
  const std::string name = "k";
  online::KernelShard shard(name, 1);

  // First launch: only evidence is itself, so it scores as an agreement.
  launch(shard, 0, kSeq, 0.010);
  EXPECT_DOUBLE_EQ(totals(shard).regret_seconds, 0.0);
  // A probe proves the other variant is 4x faster...
  probe(shard, 0, kOmp, 0.0025);
  // ...so sticking with the slow variant now charges regret.
  launch(shard, 0, kSeq, 0.010);
  const double regret = 0.010 - 0.0025;

  const online::KernelQuality quality = totals(shard);
  EXPECT_EQ(quality.launches, 2u);
  EXPECT_EQ(quality.agreements, 1u);
  EXPECT_EQ(quality.probes, 1u);
  EXPECT_NEAR(quality.regret_seconds, regret, 1e-12);
  EXPECT_DOUBLE_EQ(quality.accuracy(), 0.5);

  // Switching to the fast variant is an agreement with zero regret.
  launch(shard, 0, kOmp, 0.0025);
  EXPECT_EQ(totals(shard).agreements, 2u);
  EXPECT_NEAR(totals(shard).regret_seconds, regret, 1e-12);
}

TEST(QualityAccountant, ExplorationRefreshesBaselinesWithoutScoring) {
  const std::string name = "k";
  online::KernelShard shard(name, 1);
  launch(shard, 7, kSeq, 0.020);
  // Exploration substitute: feeds the baseline, does not count as a decision.
  launch(shard, 7, kOmp, 0.001, /*chosen=*/false);
  EXPECT_EQ(totals(shard).launches, 1u);
  EXPECT_DOUBLE_EQ(totals(shard).regret_seconds, 0.0);
  EXPECT_NEAR(baseline(shard, 7, kOmp), 0.001, 1e-12);
  EXPECT_NEAR(best_baseline(shard, 7), 0.001, 1e-12);
  // The next model-chosen slow launch is now a disagreement.
  launch(shard, 7, kSeq, 0.020);
  EXPECT_EQ(totals(shard).launches, 2u);
  EXPECT_EQ(totals(shard).agreements, 1u);
}

TEST(QualityAccountant, BucketsAreScoredIndependently) {
  const std::string name = "k";
  online::KernelShard shard(name, 1);
  probe(shard, 1, kOmp, 0.001);
  launch(shard, 1, kSeq, 0.010);  // disagreement in bucket 1
  launch(shard, 2, kSeq, 0.010);  // bucket 2 has no omp evidence
  const online::KernelQuality quality = totals(shard);
  EXPECT_EQ(quality.launches, 2u);
  EXPECT_EQ(quality.agreements, 1u);
  EXPECT_DOUBLE_EQ(baseline(shard, 2, kOmp), -1.0);
  EXPECT_DOUBLE_EQ(best_baseline(shard, 3), -1.0);
}

TEST(QualityAccountant, CalibrationAveragesPredictedOverObserved) {
  online::KernelQuality quality;
  quality.calibrate(0.004, 0.002);
  quality.calibrate(0.002, 0.004);
  EXPECT_EQ(quality.calibration_samples, 2u);
  EXPECT_DOUBLE_EQ(quality.calibration(), 1.0);
}

TEST(QualityAccountant, ClearForgetsEverything) {
  // Runtime::reset clears each kernel through KernelContext::reset.
  const auto context = std::make_unique<apollo::KernelContext>("k");
  online::KernelShard& shard = context->online_shard();
  launch(shard, 0, kSeq, 0.010);
  probe(shard, 0, kOmp, 0.001);
  context->reset();
  const online::KernelQuality cleared = totals(shard);
  EXPECT_EQ(cleared.launches, 0u);
  EXPECT_EQ(cleared.probes, 0u);
  EXPECT_DOUBLE_EQ(cleared.regret_seconds, 0.0);
  EXPECT_DOUBLE_EQ(baseline(shard, 0, kSeq), -1.0);
  EXPECT_DOUBLE_EQ(best_baseline(shard, 0), -1.0);
  // And the table still works after the reset (its bucket cache was dropped).
  launch(shard, 0, kSeq, 0.010);
  EXPECT_EQ(totals(shard).launches, 1u);
  EXPECT_DOUBLE_EQ(baseline(shard, 0, kSeq), 0.010);
}

TEST(QualityAccountant, SnapshotIsSortedByKernelName) {
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  launch(rt.context_for_id("quality:zeta").online_shard(), 0, kSeq, 0.01);
  launch(rt.context_for_id("quality:alpha").online_shard(), 0, kSeq, 0.01);
  probe(rt.context_for_id("quality:alpha").online_shard(), 0, kOmp, 0.001);
  const auto snapshot = rt.quality_snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "quality:alpha");
  EXPECT_EQ(snapshot[1].first, "quality:zeta");
  EXPECT_EQ(rt.probe_count(), 1u);
  rt.reset();
  EXPECT_TRUE(rt.quality_snapshot().empty());
}

// ---------------------------------------------------------------------------
// Audit records: JSON round-trip

TEST(AuditRecordJson, DecisionRoundTripsWithFeaturesAndEscapes) {
  telemetry::AuditRecord record = make_decision();
  record.kernel = "stream \"triad\"\t{x}\n\x01";  // quotes, braces, control characters
  record.sampled = true;
  record.tree_path = {0, 2, 5};
  record.predicted_seconds = 0.000875;
  const std::string line = to_json_line(record);
  EXPECT_EQ(line.find('\n'), std::string::npos);

  const auto parsed = telemetry::parse_audit_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, telemetry::AuditRecord::Kind::Decision);
  EXPECT_EQ(parsed->ts_ns, record.ts_ns);
  EXPECT_EQ(parsed->kernel, record.kernel);  // escapes survive
  EXPECT_EQ(parsed->bucket, record.bucket);
  EXPECT_EQ(parsed->model_version, record.model_version);
  EXPECT_EQ(parsed->label, record.label);
  EXPECT_EQ(parsed->policy, record.policy);
  EXPECT_EQ(parsed->chunk, record.chunk);
  EXPECT_TRUE(parsed->explored);
  EXPECT_DOUBLE_EQ(parsed->seconds, record.seconds);
  ASSERT_EQ(parsed->features.size(), 2u);
  EXPECT_EQ(parsed->features[0].first, "num_indices");
  EXPECT_DOUBLE_EQ(parsed->features[0].second, 4096.0);
  EXPECT_EQ(parsed->features[1].first, "segment\\kind");  // backslash survives
  EXPECT_DOUBLE_EQ(parsed->features[1].second, -1.0);
  EXPECT_TRUE(parsed->sampled);
  EXPECT_EQ(parsed->tree_path, record.tree_path);
  EXPECT_DOUBLE_EQ(parsed->predicted_seconds, record.predicted_seconds);
  EXPECT_EQ(to_json_line(*parsed), line);

  // An unsampled decision carries neither optional field.
  const std::string plain = to_json_line(make_decision());
  EXPECT_EQ(plain.find("tree_path"), std::string::npos);
  EXPECT_EQ(plain.find("predicted_seconds"), std::string::npos);
  const auto parsed_plain = telemetry::parse_audit_line(plain);
  ASSERT_TRUE(parsed_plain.has_value());
  EXPECT_FALSE(parsed_plain->sampled);
  EXPECT_TRUE(parsed_plain->tree_path.empty());
}

TEST(AuditRecordJson, ProbeRoundTripsWithoutDecisionFields) {
  const auto parsed = telemetry::parse_audit_line(to_json_line(make_probe()));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->kind, telemetry::AuditRecord::Kind::Probe);
  EXPECT_EQ(parsed->policy, "omp");
  EXPECT_DOUBLE_EQ(parsed->seconds, 0.5);
  EXPECT_TRUE(parsed->label.empty());
  EXPECT_TRUE(parsed->features.empty());
}

TEST(AuditRecordJson, MalformedLinesAreRejected) {
  EXPECT_FALSE(telemetry::parse_audit_line("").has_value());
  EXPECT_FALSE(telemetry::parse_audit_line("not json").has_value());
  EXPECT_FALSE(telemetry::parse_audit_line("{\"type\":\"unknown\"}").has_value());

  // Torn writes: no proper prefix of a valid line may parse. The decision
  // line carries every optional block (features, introspection sample) and
  // names holding the characters the parser scans for.
  for (const std::string& line :
       {to_json_line(make_scanner_bait_decision()), to_json_line(make_probe())}) {
    ASSERT_TRUE(telemetry::parse_audit_line(line).has_value()) << line;
    for (std::size_t size = 0; size < line.size(); ++size) {
      EXPECT_FALSE(telemetry::parse_audit_line(line.substr(0, size)).has_value())
          << line.substr(0, size);
    }
  }
}

TEST(AuditRecordJson, RetiredHardwareCounterBlockIsIgnored) {
  // Logs written while decisions carried a hardware-counter block still
  // replay: the block after predicted_seconds is skipped, and the record
  // writes back as the same line without it.
  const std::string line =
      R"({"type":"decision","ts_ns":123456789,"kernel":"k","bucket":42,"gen":3,)"
      R"("policy":"seq","chunk":128,"seconds":0.00125,"label":"omp","explored":true,)"
      R"("features":[["num_indices",4096]],"tree_path":[0,1,4],"predicted_seconds":0.0625})";
  const std::string with_counters =
      line.substr(0, line.size() - 1) +
      R"(,"hw_instructions":1000,"hw_cycles":2000,"hw_cache_misses":30,)"
      R"("hw_branch_misses":4,"hw_stalled_cycles":500,"hw_scale":1.5})";
  const auto parsed = telemetry::parse_audit_line(with_counters);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(to_json_line(*parsed), line);
  const auto plain = telemetry::parse_audit_line(line);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(to_json_line(*plain), line);
}

TEST(AuditRecordJson, NumberFollowedByJunkIsRejected) {
  // A number ends at a delimiter: a corrupted value must not be read as its
  // leading digits ("0n5" as 0) and written back as a different line.
  const auto substituted = [](std::string line, const std::string& from, const std::string& to) {
    const std::size_t at = line.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) line.replace(at, from.size(), to);
    return line;
  };
  const std::string probe = to_json_line(make_probe());
  EXPECT_FALSE(
      telemetry::parse_audit_line(substituted(probe, R"("seconds":0.5)", R"("seconds":0n5)")));
  const std::string decision = to_json_line(make_scanner_bait_decision());
  for (const auto& [from, to] : std::initializer_list<std::pair<std::string, std::string>>{
           {R"("bucket":42,)", R"("bucket":42x,)"},
           {R"("tree_path":[0,1,4])", R"("tree_path":[0,1q,4])"},
           {R"(["num_indices",4096])", R"(["num_indices",4096e])"}}) {
    EXPECT_FALSE(telemetry::parse_audit_line(substituted(decision, from, to))) << to;
  }

  // Whitespace before the delimiter still ends a well-formed number.
  const auto spaced =
      telemetry::parse_audit_line(substituted(probe, R"("seconds":0.5)", R"("seconds":0.5 )"));
  ASSERT_TRUE(spaced.has_value());
  EXPECT_DOUBLE_EQ(spaced->seconds, 0.5);
}

TEST(AuditRecordJson, EverySingleBitFlipIsRejectedOrRoundTrips) {
  // A corrupted byte either fails to parse or yields a record that is stable
  // under its own line: writing it and reading that line back gives the
  // same line again, so a replay never sees a record it cannot reproduce.
  for (const std::string& line :
       {to_json_line(make_scanner_bait_decision()), to_json_line(make_probe())}) {
    std::size_t accepted = 0;
    for (std::size_t byte = 0; byte < line.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = line;
        flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
        const auto parsed = telemetry::parse_audit_line(flipped);
        if (!parsed) continue;
        ++accepted;
        const std::string written = to_json_line(*parsed);
        const auto reread = telemetry::parse_audit_line(written);
        ASSERT_TRUE(reread.has_value()) << flipped;
        EXPECT_EQ(to_json_line(*reread), written) << flipped;
      }
    }
    // The sweep reaches both outcomes: flips in a value's digits or a
    // string's letters parse, flips in a key, quote or bracket do not.
    EXPECT_GT(accepted, 0u) << line;
    EXPECT_LT(accepted, line.size() * 8) << line;
  }
}

// ---------------------------------------------------------------------------
// AuditLog: rotation, bounded retention, reader tolerance

TEST_F(AuditLogTest, AppendFlushReadBack) {
  telemetry::AuditConfig config;
  config.base_path = path("audit.jsonl");
  telemetry::AuditLog::instance().configure(config);
  EXPECT_TRUE(telemetry::AuditLog::instance().audit_enabled());

  for (int i = 0; i < 5; ++i) telemetry::AuditLog::instance().append(make_decision());
  telemetry::AuditLog::instance().flush();

  const auto segments = telemetry::AuditLog::instance().segment_paths();
  ASSERT_EQ(segments.size(), 1u);
  const auto lines = telemetry::read_complete_lines(segments.front());
  ASSERT_TRUE(lines.has_value());
  EXPECT_EQ(lines->size(), 5u);
  EXPECT_EQ(telemetry::AuditLog::instance().records_appended(), 5u);
  for (const auto& line : *lines) {
    EXPECT_TRUE(telemetry::parse_audit_line(line).has_value());
  }
}

TEST_F(AuditLogTest, RotatesSegmentsAndCapsRetention) {
  telemetry::AuditConfig config;
  config.base_path = path("audit");  // ".jsonl" suffix is optional
  config.segment_bytes = 512;        // force rotation every few records
  config.max_segments = 2;
  config.flush_bytes = 1;            // flush every append
  telemetry::AuditLog::instance().configure(config);

  for (int i = 0; i < 64; ++i) telemetry::AuditLog::instance().append(make_decision());
  telemetry::AuditLog::instance().close();

  EXPECT_GT(telemetry::AuditLog::instance().segments_rotated(), 0u);
  const auto segments = telemetry::AuditLog::instance().segment_paths();
  ASSERT_LE(segments.size(), 2u);  // older segments were deleted
  ASSERT_FALSE(segments.empty());
  // Every surviving segment holds only complete, parseable lines.
  for (const auto& segment : segments) {
    const auto lines = telemetry::read_complete_lines(segment);
    ASSERT_TRUE(lines.has_value());
    EXPECT_FALSE(lines->empty());
    for (const auto& line : *lines) {
      EXPECT_TRUE(telemetry::parse_audit_line(line).has_value());
    }
  }
}

TEST_F(AuditLogTest, ConfigureAppendsAfterExistingSegments) {
  telemetry::AuditConfig config;
  config.base_path = path("audit.jsonl");
  config.flush_bytes = 1;
  telemetry::AuditLog::instance().configure(config);
  telemetry::AuditLog::instance().append(make_decision());
  telemetry::AuditLog::instance().close();

  // Reconfigure (a restarted process): appends continue, nothing is clobbered.
  telemetry::AuditLog::instance().configure(config);
  telemetry::AuditLog::instance().append(make_decision());
  telemetry::AuditLog::instance().close();

  std::size_t total_lines = 0;
  for (const auto& segment : telemetry::AuditLog::instance().segment_paths()) {
    const auto lines = telemetry::read_complete_lines(segment);
    ASSERT_TRUE(lines.has_value());
    total_lines += lines->size();
  }
  EXPECT_EQ(total_lines, 2u);
}

TEST_F(AuditLogTest, ReadCompleteLinesSkipsPartialTrailingLine) {
  const std::string file = path("partial.jsonl");
  {
    std::ofstream out(file, std::ios::binary);
    out << "first line\n";
    out << "\n";  // empty lines are dropped
    out << "second line\n";
    out << "{\"type\":\"decision\",\"ts_ns\":12";  // live writer mid-append
  }
  const auto lines = telemetry::read_complete_lines(file);
  ASSERT_TRUE(lines.has_value());
  ASSERT_EQ(lines->size(), 2u);
  EXPECT_EQ((*lines)[0], "first line");
  EXPECT_EQ((*lines)[1], "second line");

  EXPECT_FALSE(telemetry::read_complete_lines(path("does_not_exist.jsonl")).has_value());
}

// ---------------------------------------------------------------------------
// Hardened environment parsing

class EnvParsingTest : public ::testing::Test {
protected:
  void TearDown() override { ::unsetenv("APOLLO_TEST_ENV_KNOB"); }
  static void set(const char* value) { ::setenv("APOLLO_TEST_ENV_KNOB", value, 1); }
};

TEST_F(EnvParsingTest, UnsetUsesFallbackWithoutWarning) {
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64), 64);
  EXPECT_EQ(telemetry::env_size("APOLLO_TEST_ENV_KNOB", 1024), 1024u);
  EXPECT_DOUBLE_EQ(telemetry::env_double("APOLLO_TEST_ENV_KNOB", 0.5), 0.5);
  EXPECT_EQ(telemetry::env_string("APOLLO_TEST_ENV_KNOB", "dflt"), "dflt");
}

TEST_F(EnvParsingTest, ValidValuesParse) {
  set("128");
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64), 128);
  EXPECT_EQ(telemetry::env_size("APOLLO_TEST_ENV_KNOB", 64), 128u);
  set("2.5");
  EXPECT_DOUBLE_EQ(telemetry::env_double("APOLLO_TEST_ENV_KNOB", 1.0), 2.5);
  set("text");
  EXPECT_EQ(telemetry::env_string("APOLLO_TEST_ENV_KNOB", ""), "text");
}

TEST_F(EnvParsingTest, GarbageKeepsTheDefault) {
  for (const char* bad : {"", "abc", "12abc", "64k", "1e6junk", " ", "0x1", "true", "12 34"}) {
    set(bad);
    EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64), 64) << "value: " << bad;
  }
  // Below a minimum of 0 is garbage too, not a clamp to 0.
  set("-3");
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64, /*min_value=*/0), 64);
  set("nan");
  EXPECT_DOUBLE_EQ(telemetry::env_double("APOLLO_TEST_ENV_KNOB", 0.25), 0.25);
}

TEST_F(EnvParsingTest, ZeroAndNegativeAreRejectedByMinimum) {
  set("0");
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64), 64);  // min_value = 1
  set("-3");
  EXPECT_EQ(telemetry::env_size("APOLLO_TEST_ENV_KNOB", 64), 64u);
  EXPECT_DOUBLE_EQ(telemetry::env_double("APOLLO_TEST_ENV_KNOB", 0.5), 0.5);  // min = 0.0
  // A knob that explicitly allows 0 (strides) accepts it.
  set("0");
  EXPECT_EQ(telemetry::env_int64("APOLLO_TEST_ENV_KNOB", 64, /*min_value=*/0), 0);
}

// ---------------------------------------------------------------------------
// Quality pane formatting

TEST(FormatQuality, EmptyAndUnscoredRenderNothing) {
  EXPECT_TRUE(apollo::format_quality({}).empty());
  // Kernels with zero scored launches and no probes carry no signal.
  EXPECT_TRUE(apollo::format_quality({{"k", online::KernelQuality{}}}).empty());
}

TEST(FormatQuality, RendersAccuracyRegretAndProbes) {
  online::KernelQuality quality;
  quality.launches = 10;
  quality.agreements = 9;
  quality.probes = 3;
  quality.regret_seconds = 0.0025;
  const std::string text = apollo::format_quality({{"stream", quality}});
  EXPECT_NE(text.find("stream"), std::string::npos);
  EXPECT_NE(text.find("90"), std::string::npos);      // 90% accuracy
  EXPECT_NE(text.find("2.500"), std::string::npos);   // regret in ms
  EXPECT_NE(text.find("probes 3"), std::string::npos);
}
