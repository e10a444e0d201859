// Unit tests for the telemetry subsystem: SPSC trace rings with exact drop
// accounting, the metrics registry and its Prometheus text exposition,
// histogram quantiles, the sampled decision tail, the Chrome trace exporter,
// build provenance, and the runtime's per-launch series and records.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "core/tuner_model.hpp"
#include "ml/decision_tree.hpp"
#include "raja/forall.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/build_info.hpp"
#include "telemetry/telemetry.hpp"

namespace telemetry = apollo::telemetry;
namespace fs = std::filesystem;

namespace {

/// Every test starts from zeroed metrics and a fresh tracer epoch, and leaves
/// the switch off so later tests in the binary see the default state.
class TelemetryTest : public ::testing::Test {
protected:
  void SetUp() override {
    telemetry::set_enabled(false);
    telemetry::stop_collector();
    telemetry::reset_for_testing();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::stop_collector();
    telemetry::reset_for_testing();
  }
};

telemetry::TraceEvent make_event(std::uint64_t ts, const char* name) {
  telemetry::TraceEvent event;
  event.ts_ns = ts;
  event.dur_ns = 1;
  event.name = name;
  event.kind = telemetry::EventKind::Launch;
  return event;
}

}  // namespace

TEST_F(TelemetryTest, RingKeepsFifoOrderAndCountsDropsExactly) {
  telemetry::ThreadTraceBuffer ring(8, 7);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.push(make_event(i, "ring")));
  }
  for (std::uint64_t i = 8; i < 12; ++i) {
    EXPECT_FALSE(ring.push(make_event(i, "ring")));
  }
  EXPECT_EQ(ring.dropped(), 4u);

  std::vector<telemetry::TraceEvent> out;
  EXPECT_EQ(ring.drain(out), 8u);
  ASSERT_EQ(out.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].ts_ns, i);
    EXPECT_EQ(out[i].tid, 7u);  // stamped at drain time from the owning ring
  }

  // The producer's cached tail refreshes once the consumer made room.
  EXPECT_TRUE(ring.push(make_event(100, "ring")));
  out.clear();
  EXPECT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out[0].ts_ns, 100u);
  EXPECT_EQ(ring.dropped(), 4u);
}

TEST_F(TelemetryTest, TracerInternIsIdempotent) {
  auto& tracer = telemetry::Tracer::instance();
  const char* a = tracer.intern("telemetry:intern");
  const char* b = tracer.intern("telemetry:intern");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "telemetry:intern");
  EXPECT_NE(a, tracer.intern("telemetry:other"));
}

TEST_F(TelemetryTest, TracerDrainsEmittedEventsAcrossReset) {
  auto& tracer = telemetry::Tracer::instance();
  const char* name = tracer.intern("telemetry:drain");
  for (std::uint64_t i = 0; i < 3; ++i) tracer.emit(make_event(i, name));

  std::vector<telemetry::TraceEvent> out;
  EXPECT_EQ(tracer.drain(out), 3u);

  // A reset starts a new epoch: the thread re-registers and old events are
  // gone, but new emits land normally.
  tracer.reset();
  out.clear();
  EXPECT_EQ(tracer.drain(out), 0u);
  tracer.emit(make_event(9, name));
  EXPECT_EQ(tracer.drain(out), 1u);
  EXPECT_EQ(out[0].ts_ns, 9u);
}

TEST_F(TelemetryTest, CounterAndGaugeBasics) {
  auto& registry = telemetry::MetricsRegistry::instance();
  auto& counter = registry.counter("test_unit_total", "Unit test counter.");
  counter.inc();
  counter.inc(4);
  EXPECT_EQ(counter.value(), 5u);

  auto& gauge = registry.gauge("test_unit_gauge", "Unit test gauge.");
  gauge.set(2.5);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);

  // Same name + labels resolves to the same handle; a new label body is a
  // distinct series in the same family.
  EXPECT_EQ(&registry.counter("test_unit_total", "ignored"), &counter);
  auto& labeled = registry.counter("test_unit_total", "ignored", "kind=\"b\"");
  EXPECT_NE(&labeled, &counter);
}

TEST_F(TelemetryTest, MetricKindMismatchThrows) {
  auto& registry = telemetry::MetricsRegistry::instance();
  registry.counter("test_kind_total", "Registered as a counter.");
  EXPECT_THROW(registry.gauge("test_kind_total", "Requested as a gauge."), std::logic_error);
  EXPECT_THROW(
      registry.histogram("test_kind_total", "Requested as a histogram.", {1.0}),
      std::logic_error);
}

TEST_F(TelemetryTest, HistogramBucketsCountAndQuantiles) {
  telemetry::Histogram hist(std::vector<double>{1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);  // empty

  hist.observe(0.5);
  hist.observe(1.5);
  hist.observe(3.0);
  hist.observe(10.0);  // overflow bucket
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 15.0);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(2), 1u);
  EXPECT_EQ(hist.bucket(3), 1u);  // overflow slot

  // Quantiles are monotone, land in the right bucket, and overflow clamps to
  // the last finite bound.
  EXPECT_LE(hist.quantile(0.2), 1.0);
  EXPECT_GE(hist.quantile(0.6), 1.0);
  EXPECT_LE(hist.quantile(0.6), 4.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 4.0);
  EXPECT_LE(hist.quantile(0.25), hist.quantile(0.75));

  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
}

TEST_F(TelemetryTest, ExpositionFormatCoversAllKinds) {
  auto& registry = telemetry::MetricsRegistry::instance();
  registry.counter("test_expo_total", "An exposition counter.", "kernel=\"k1\"").inc(3);
  registry.gauge("test_expo_gauge", "An exposition gauge.").set(1.5);
  registry.histogram("test_expo_seconds", "An exposition histogram.", {0.5, 1.0}).observe(0.75);

  const std::string text = registry.expose();
  EXPECT_NE(text.find("# HELP test_expo_total An exposition counter."), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expo_total counter"), std::string::npos);
  EXPECT_NE(text.find("test_expo_total{kernel=\"k1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expo_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_expo_seconds histogram"), std::string::npos);
  // Cumulative buckets: the 0.75 observation lands in le="1" and le="+Inf".
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"0.5\"} 0"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_count 1"), std::string::npos);
  EXPECT_NE(text.find("test_expo_seconds_sum"), std::string::npos);
}

TEST_F(TelemetryTest, ZeroResetsValuesButKeepsHandles) {
  auto& registry = telemetry::MetricsRegistry::instance();
  auto& counter = registry.counter("test_zero_total", "Zeroed counter.");
  counter.inc(7);
  registry.zero();
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();  // cached handle still valid after zero()
  EXPECT_EQ(counter.value(), 1u);
}

TEST_F(TelemetryTest, DecisionTailRollsOffPerKernel) {
  auto& log = telemetry::AuditLog::instance();
  ASSERT_FALSE(log.audit_enabled());  // the tail does not need the audit file
  const std::size_t pushed = telemetry::AuditLog::kTailPerKernel + 1;
  for (std::size_t i = 0; i < pushed; ++i) {
    telemetry::AuditRecord record;
    record.kernel = "telemetry:decisions";
    record.label = "omp";
    record.policy = "omp";
    record.seconds = 2.0 + static_cast<double>(i);
    record.features.emplace_back("num_indices", 64.0 + static_cast<double>(i));
    record.sampled = true;
    record.tree_path = {0, 1};
    record.predicted_seconds = 1.0 + static_cast<double>(i);
    log.append(record);
  }
  telemetry::AuditRecord unsampled;  // an audit-only record never joins the tail
  unsampled.kernel = "telemetry:decisions";
  log.append(unsampled);

  const auto kept = log.tail();
  ASSERT_EQ(kept.size(), telemetry::AuditLog::kTailPerKernel);
  for (std::size_t i = 0; i < kept.size(); ++i) {  // the oldest rolled off
    EXPECT_DOUBLE_EQ(kept[i].predicted_seconds, 2.0 + static_cast<double>(i));
  }

  // The decisions file is the tail in the audit line format.
  const std::string path = ::testing::TempDir() + "telemetry_decisions.jsonl";
  log.write_tail(path);
  const auto lines = telemetry::read_complete_lines(path);
  ASSERT_TRUE(lines.has_value());
  ASSERT_EQ(lines->size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ((*lines)[i], telemetry::to_json_line(kept[i]));
  }
  EXPECT_NE(lines->front().find("\"tree_path\":[0,1]"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TelemetryTest, ChromeTraceExportPhasesAndMetadata) {
  std::vector<telemetry::TraceEvent> events;
  events.push_back(make_event(10, "span"));  // Launch with dur -> complete event
  telemetry::TraceEvent instant;
  instant.ts_ns = 20;
  instant.name = "swap";
  instant.kind = telemetry::EventKind::HotSwap;
  events.push_back(instant);

  std::ostringstream out;
  telemetry::write_chrome_trace(out, events, {{"build", "test"}});
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // the Launch span
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the HotSwap instant
  EXPECT_NE(json.find("\"metadata\""), std::string::npos);
  EXPECT_NE(json.find("\"build\""), std::string::npos);
}

TEST_F(TelemetryTest, BuildInfoIsStamped) {
  const apollo::BuildInfo& info = apollo::build_info();
  EXPECT_STRNE(info.version, "");
  EXPECT_STRNE(info.git_sha, "");
  EXPECT_STRNE(info.build_type, "");
  const std::string line = apollo::build_info_string();
  EXPECT_NE(line.find("apollo"), std::string::npos);
  EXPECT_NE(line.find(info.version), std::string::npos);
}

TEST_F(TelemetryTest, ConfigureAppliesAndConfigReadsBack) {
  telemetry::Config config;
  config.trace_file = "test_trace.json";
  config.introspect_stride = 16;
  config.ring_capacity = 512;
  telemetry::configure(config);
  EXPECT_EQ(telemetry::config().trace_file, "test_trace.json");
  EXPECT_EQ(telemetry::config().introspect_stride, 16u);
  telemetry::configure(telemetry::Config{});  // restore defaults
}

TEST_F(TelemetryTest, RuntimeEmitsDispatchSeriesAndLaunchSpans) {
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Off);
  telemetry::set_enabled(true);

  const apollo::KernelHandle kernel{
      "telemetry:test", "TelemetryTest",
      apollo::instr::MixBuilder{}.fp(1).load(1).store(1).build(), 8};
  for (int i = 0; i < 5; ++i) {
    apollo::forall(kernel, raja::IndexSet::range(0, 64), [](raja::Index) {});
  }
  telemetry::set_enabled(false);
  telemetry::collect_now();

  EXPECT_GE(telemetry::collected_events(), 5u);
  const std::string text = telemetry::MetricsRegistry::instance().expose();
  EXPECT_NE(text.find("apollo_dispatch_total{kernel=\"telemetry:test\""), std::string::npos);
  rt.reset();
}

TEST_F(TelemetryTest, AuditLineAndDecisionsFileLineAreIdentical) {
  // One record per launch: with the audit log on and every tuned launch
  // sampled, the audit segment and the decisions file hold the same line.
  const fs::path dir =
      fs::temp_directory_path() / ("apollo_one_record_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // num_indices <= 10000 -> seq (node 1), else omp (node 2).
  std::stringstream tree;
  tree << "apollo-tree 1\nfeatures 1 num_indices\nlabels 2 seq omp\nnodes 3\n"
          "0 10000 1 2 0 2 0.5\n-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 1 0\n";
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Tune);
  rt.set_policy_model(apollo::TunerModel(apollo::TunedParameter::Policy,
                                         apollo::ml::DecisionTree::load(tree), {}));

  telemetry::Config config;
  config.trace_file.clear();
  config.metrics_file = (dir / "metrics.prom").string();
  config.decisions_file = (dir / "decisions.jsonl").string();
  config.flush_interval_seconds = 0.0;
  config.introspect_stride = 1;
  config.probe_stride = 0;
  config.audit_file = (dir / "audit.jsonl").string();
  telemetry::configure(config);
  telemetry::set_enabled(true);

  const apollo::KernelHandle kernel{
      "telemetry:one_record", "OneRecord",
      apollo::instr::MixBuilder{}.fp(1).load(1).store(1).build(), 8};
  apollo::forall(kernel, raja::IndexSet::range(0, 512), [](raja::Index) {});
  telemetry::set_enabled(false);
  telemetry::export_all();
  telemetry::AuditLog::instance().flush();

  const auto segments = telemetry::AuditLog::instance().segment_paths();
  ASSERT_EQ(segments.size(), 1u);
  const auto audit_lines = telemetry::read_complete_lines(segments.front());
  const auto decision_lines = telemetry::read_complete_lines(config.decisions_file);
  ASSERT_TRUE(audit_lines.has_value());
  ASSERT_TRUE(decision_lines.has_value());
  ASSERT_EQ(audit_lines->size(), 1u);
  ASSERT_EQ(decision_lines->size(), 1u);
  EXPECT_EQ(audit_lines->front(), decision_lines->front());

  const auto record = telemetry::parse_audit_line(decision_lines->front());
  ASSERT_TRUE(record.has_value()) << decision_lines->front();
  EXPECT_TRUE(record->sampled);
  EXPECT_EQ(record->kernel, "telemetry:one_record");
  EXPECT_EQ(record->label, "seq");
  EXPECT_EQ(record->policy, "seq");
  EXPECT_EQ(record->tree_path, (std::vector<int>{0, 1}));
  EXPECT_GT(record->predicted_seconds, 0.0);
  EXPECT_GT(record->seconds, 0.0);
  ASSERT_EQ(record->features.size(), 1u);
  EXPECT_DOUBLE_EQ(record->features[0].second, 512.0);

  telemetry::configure(telemetry::Config{});
  rt.reset();
  fs::remove_all(dir);
}
