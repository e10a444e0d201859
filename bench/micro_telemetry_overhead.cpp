// Telemetry overhead microbenchmark: the cost contract behind
// src/telemetry. Compares the same tuned apollo::forall hot path (identical
// to micro_dispatch_overhead's ApolloForallTune) with the telemetry switch
// off and on, and prices the individual primitives a hot site pays — the
// enabled() branch, a ring push, a histogram observe.
//
// Acceptance: TelemetryOnTune must stay within 5% of TelemetryOffTune
// (ISSUE: tracing a production run must be a flip-a-switch decision, not a
// rebuild-and-rerun one). The off state is one relaxed atomic load + branch
// per site.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "raja/forall.hpp"
#include "telemetry/telemetry.hpp"

namespace {

constexpr std::int64_t kN = 4096;

std::vector<double>& buffers() {
  static std::vector<double> data(kN * 3, 1.5);
  return data;
}

inline void body_at(double* a, const double* b, const double* c, raja::Index i) {
  a[i] = b[i] * 1.0001 + c[i] * 0.9999;
}

const apollo::KernelHandle& micro_kernel() {
  static const apollo::KernelHandle k{"micro:saxpy", "MicroSaxpy",
                                      apollo::instr::MixBuilder{}.fp(2).load(2).store(1).build(),
                                      24};
  return k;
}

const apollo::TunerModel& micro_model() {
  static const apollo::TunerModel model = [] {
    auto& rt = apollo::Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(apollo::Mode::Record);
    apollo::TrainingConfig training;
    training.chunk_values.clear();
    rt.set_training_config(training);
    for (int step = 0; step < 8; ++step) {
      apollo::forall(micro_kernel(), raja::IndexSet::range(0, kN), [](raja::Index) {});
    }
    auto trained = apollo::Trainer::train(rt.records(), apollo::TunedParameter::Policy);
    rt.reset();
    return trained;
  }();
  return model;
}

/// Runs the tuned loop and returns the ground-truth probes it launched
/// (read before the closing reset, which restarts them).
std::uint64_t run_tuned_loop(benchmark::State& state) {
  const auto& model = micro_model();
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Tune);
  rt.set_policy_model(model);
  auto& data = buffers();
  double* a = data.data();
  const double* b = data.data() + kN;
  const double* c = data.data() + 2 * kN;
  const raja::IndexSet iset = raja::IndexSet::range(0, kN);
  for (auto _ : state) {
    apollo::forall(micro_kernel(), iset, [=](raja::Index i) { body_at(a, b, c, i); });
    benchmark::DoNotOptimize(a[0]);
  }
  state.SetItemsProcessed(state.iterations() * kN);
  const std::uint64_t probes = rt.probe_count();
  rt.reset();
  return probes;
}

void TelemetryOffTune(benchmark::State& state) {
  apollo::telemetry::set_enabled(false);
  run_tuned_loop(state);
}
BENCHMARK(TelemetryOffTune);

void TelemetryOnTune(benchmark::State& state) {
  // Full on-state cost: trace span pushes, the per-variant dispatch count,
  // strided decision capture, and the collector thread draining concurrently
  // — the realistic live-tracing configuration (no file exports on the
  // cadence).
  apollo::telemetry::Config config;
  config.trace_file.clear();
  config.decisions_file.clear();
  config.flush_interval_seconds = 0.0;
  config.probe_stride = 0;  // quality probes priced separately (QualityOnTune)
  apollo::telemetry::configure(config);
  apollo::telemetry::set_enabled(true);
  apollo::telemetry::start_collector();
  run_tuned_loop(state);
  apollo::telemetry::set_enabled(false);
  apollo::telemetry::stop_collector();
  state.counters["events"] = static_cast<double>(apollo::telemetry::collected_events());
  state.counters["ring_drops"] = static_cast<double>(apollo::telemetry::Tracer::instance().dropped());
  apollo::telemetry::reset_for_testing();
}
BENCHMARK(TelemetryOnTune);

void QualityOnTune(benchmark::State& state) {
  // Telemetry on PLUS the model-quality layer: per-launch baseline updates
  // and choice scoring, calibration on the introspection stride, and a
  // ground-truth probe every 64th launch (audit log off — it is opt-in).
  // Acceptance: within 5% of TelemetryOffTune, like TelemetryOnTune.
  apollo::telemetry::Config config;
  config.trace_file.clear();
  config.decisions_file.clear();
  config.flush_interval_seconds = 0.0;
  config.probe_stride = 64;
  apollo::telemetry::configure(config);
  apollo::telemetry::set_enabled(true);
  apollo::telemetry::start_collector();
  const std::uint64_t probes = run_tuned_loop(state);
  apollo::telemetry::set_enabled(false);
  apollo::telemetry::stop_collector();
  state.counters["probes"] = static_cast<double>(probes);
  apollo::telemetry::reset_for_testing();
}
BENCHMARK(QualityOnTune);

void EnabledCheck(benchmark::State& state) {
  // The whole off-state per-site cost.
  apollo::telemetry::set_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(apollo::telemetry::enabled());
  }
}
BENCHMARK(EnabledCheck);

void RingPush(benchmark::State& state) {
  apollo::telemetry::set_enabled(true);
  auto& tracer = apollo::telemetry::Tracer::instance();
  const char* name = tracer.intern("bench:ring_push");
  std::uint64_t ts = 0;
  for (auto _ : state) {
    apollo::telemetry::TraceEvent event;
    event.ts_ns = ++ts;
    event.dur_ns = 1;
    event.name = name;
    event.kind = apollo::telemetry::EventKind::Launch;
    tracer.emit(event);
  }
  apollo::telemetry::set_enabled(false);
  state.counters["drops"] = static_cast<double>(tracer.dropped());
  apollo::telemetry::reset_for_testing();
}
BENCHMARK(RingPush);

void HistogramObserve(benchmark::State& state) {
  apollo::telemetry::Histogram hist(apollo::telemetry::duration_bounds());
  double value = 1e-9;
  for (auto _ : state) {
    hist.observe(value);
    value = value < 1.0 ? value * 1.01 : 1e-9;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(HistogramObserve);

}  // namespace

BENCHMARK_MAIN();
