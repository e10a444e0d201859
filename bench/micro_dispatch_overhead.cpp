// SII-D microbenchmark: template-specialized forall vs a shared generic
// execution function. The paper measured ~30% slowdown for LULESH when all
// kernels shared one type-erased OpenMP execution function; policySwitcher
// exists precisely to keep static specialization under dynamic selection.
//
// Also compares the full apollo::forall hooks in Tune vs Adapt mode on the
// same kernel body: the adaptation loop (exploration draw, drift bookkeeping,
// strided sampling, retrains in flight on the background thread) must stay
// within a few percent of plain tuned dispatch.

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "core/runtime.hpp"
#include "core/trainer.hpp"
#include "raja/forall.hpp"
#include "raja/policy_switcher.hpp"

namespace {

constexpr std::int64_t kN = 4096;

std::vector<double>& buffers() {
  static std::vector<double> data(kN * 3, 1.5);
  return data;
}

// The kernel body: a small streaming saxpy-like update.
inline void body_at(double* a, const double* b, const double* c, raja::Index i) {
  a[i] = b[i] * 1.0001 + c[i] * 0.9999;
}

void TemplateSpecialized(benchmark::State& state) {
  auto& data = buffers();
  double* a = data.data();
  const double* b = data.data() + kN;
  const double* c = data.data() + 2 * kN;
  for (auto _ : state) {
    raja::forall<raja::seq_exec>(0, kN, [=](raja::Index i) { body_at(a, b, c, i); });
    benchmark::DoNotOptimize(a[0]);
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(TemplateSpecialized);

void PolicySwitcherDispatch(benchmark::State& state) {
  // Runtime policy value, statically re-dispatched: the Apollo approach.
  auto& data = buffers();
  double* a = data.data();
  const double* b = data.data() + kN;
  const double* c = data.data() + 2 * kN;
  const auto policy = raja::PolicyType::seq_segit_seq_exec;
  for (auto _ : state) {
    raja::apollo::policySwitcher(policy, 0, [=](auto exec) {
      if constexpr (std::is_same_v<decltype(exec), raja::seq_exec>) {
        raja::forall<raja::seq_exec>(0, kN, [=](raja::Index i) { body_at(a, b, c, i); });
      }
    });
    benchmark::DoNotOptimize(a[0]);
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(PolicySwitcherDispatch);

void GenericExecutionFunction(benchmark::State& state) {
  // One shared type-erased execution function for every kernel: the design
  // the paper rejects. The body crosses a std::function boundary per index.
  auto& data = buffers();
  double* a = data.data();
  const double* b = data.data() + kN;
  const double* c = data.data() + 2 * kN;
  const auto generic_exec = [](std::int64_t n, const std::function<void(raja::Index)>& body) {
    for (std::int64_t i = 0; i < n; ++i) body(i);
  };
  const std::function<void(raja::Index)> body = [=](raja::Index i) { body_at(a, b, c, i); };
  for (auto _ : state) {
    generic_exec(kN, body);
    benchmark::DoNotOptimize(a[0]);
  }
  state.SetItemsProcessed(state.iterations() * kN);
}
BENCHMARK(GenericExecutionFunction);

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

void run_forall_loop(benchmark::State& state) {
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
}

void ApolloForallTune(benchmark::State& state) {
  // The full decision path as shipped: per-site inline cache in front of the
  // tree walk. Iteration-stable launches hit the cache.
  const auto& model = micro_model();
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Tune);
  rt.set_policy_model(model);
  run_forall_loop(state);
  rt.reset();
}
BENCHMARK(ApolloForallTune);

void ApolloForallTunePointer(benchmark::State& state) {
  // Fresh-evaluation baseline: every launch walks the tree, no inline cache.
  // The CI gate asserts the full path above stays at or below this cost.
  const auto& model = micro_model();
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Tune);
  rt.set_policy_model(model);
  rt.set_inline_cache_enabled(false);
  run_forall_loop(state);
  rt.reset();
}
BENCHMARK(ApolloForallTunePointer);

void ApolloForallAdapt(benchmark::State& state) {
  // Adapt mode with retrains continually kicked off by cadence, so the
  // measured hot path includes version polling, the exploration draw, drift
  // bookkeeping, strided sampling, and background training in flight.
  const auto& model = micro_model();
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Adapt);
  rt.sample_buffer().set_capacity(4096);
  apollo::online::OnlineConfig config;
  config.retrain_every = 512;
  config.min_retrain_samples = 64;
  rt.configure_online(config);
  rt.set_policy_model(model);
  run_forall_loop(state);
  state.counters["retrains"] =
      static_cast<double>(rt.online().status().retrains_completed);
  rt.reset();
}
BENCHMARK(ApolloForallAdapt);

}  // namespace

BENCHMARK_MAIN();
