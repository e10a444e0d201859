// Concurrent-dispatch microbenchmark: N application threads x M kernels
// through the full apollo::forall hooks, in all four runtime modes. This is
// the scaling proof for the KernelContext decomposition — with per-kernel
// stats shards, per-kernel noise ids and online state, the RCU model
// snapshot and the thread-local blackboard view, dispatch throughput must
// scale with the thread count instead of serializing on runtime-wide state.
// CI gates items/s at T threads vs 1, where T is the largest benchmarked
// count the runner has cores for: Off and Tune >= 0.7 x T, Adapt >= 0.5 x T.
//
// The *Shared variants have every thread cycle all kernels over six sizes,
// as adapt-storm's threads do, so threads launch the same kernels at once:
// they measure the per-thread stats stripes and the inline cache holding a
// call site's shapes side by side. CI gates OffShared >= 0.5 x T.
//
// Google Benchmark's threaded mode supplies the barrier semantics: every
// thread runs the same loop, thread 0 performs setup/teardown outside the
// timed region, and items/s is summed across threads via SetItemsProcessed.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/runtime.hpp"
#include "core/trainer.hpp"

namespace {

constexpr int kKernels = 8;
constexpr std::int64_t kN = 512;

const apollo::KernelHandle& kernel_at(int k) {
  static const apollo::KernelHandle kernels[kKernels] = {
      {"conc:k0", "Conc0", apollo::instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24},
      {"conc:k1", "Conc1", apollo::instr::MixBuilder{}.fp(4).load(1).store(1).build(), 16},
      {"conc:k2", "Conc2", apollo::instr::MixBuilder{}.fp(1).load(3).store(2).build(), 40},
      {"conc:k3", "Conc3", apollo::instr::MixBuilder{}.fp(8).div(1).load(2).store(1).build(), 24},
      {"conc:k4", "Conc4", apollo::instr::MixBuilder{}.fp(3).load(2).store(2).build(), 32},
      {"conc:k5", "Conc5", apollo::instr::MixBuilder{}.fp(6).load(4).store(1).build(), 48},
      {"conc:k6", "Conc6", apollo::instr::MixBuilder{}.fp(2).div(1).load(1).store(1).build(), 16},
      {"conc:k7", "Conc7", apollo::instr::MixBuilder{}.fp(5).load(3).store(3).build(), 56},
  };
  return kernels[k];
}

const apollo::TunerModel& concurrent_model() {
  static const apollo::TunerModel model = [] {
    auto& rt = apollo::Runtime::instance();
    rt.reset();
    rt.set_execute_selected(false);
    rt.set_mode(apollo::Mode::Record);
    apollo::TrainingConfig training;
    training.chunk_values.clear();
    rt.set_training_config(training);
    for (int step = 0; step < 8; ++step) {
      for (int k = 0; k < kKernels; ++k) {
        apollo::forall(kernel_at(k), raja::IndexSet::range(0, kN), [](raja::Index) {});
      }
    }
    auto trained = apollo::Trainer::train(rt.records(), apollo::TunedParameter::Policy);
    rt.reset();
    return trained;
  }();
  return model;
}

/// The measured loop: each thread drives a disjoint slice of the kernel set
/// (different kernels never share a shard), cycling through its slice.
void dispatch_loop(benchmark::State& state) {
  const int threads = state.threads();
  const int per_thread = kKernels / threads > 0 ? kKernels / threads : 1;
  const int base = (state.thread_index() * per_thread) % kKernels;
  const raja::IndexSet iset = raja::IndexSet::range(0, kN);
  int slot = 0;
  for (auto _ : state) {
    apollo::forall(kernel_at(base + (slot++ % per_thread)), iset, [](raja::Index) {});
  }
  state.SetItemsProcessed(state.iterations());
}

/// The shared loop: every thread cycles all kernels over the sizes
/// 256..8192, starting at its own offset.
void shared_dispatch_loop(benchmark::State& state) {
  static const std::vector<raja::IndexSet> isets = [] {
    std::vector<raja::IndexSet> sets;
    for (std::int64_t n = 256; n <= 8192; n *= 2) sets.push_back(raja::IndexSet::range(0, n));
    return sets;
  }();
  std::size_t slot = static_cast<std::size_t>(state.thread_index()) * 5;
  for (auto _ : state) {
    apollo::forall(kernel_at(static_cast<int>(slot % kKernels)),
                   isets[(slot / kKernels) % isets.size()], [](raja::Index) {});
    ++slot;
  }
  state.SetItemsProcessed(state.iterations());
}

void setup_off() {
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
}

void setup_record() {
  setup_off();
  auto& rt = apollo::Runtime::instance();
  rt.set_mode(apollo::Mode::Record);
  apollo::TrainingConfig training;
  training.sweep_variants = false;
  rt.set_training_config(training);
}

void setup_tune() {
  const auto& model = concurrent_model();
  setup_off();
  auto& rt = apollo::Runtime::instance();
  rt.set_mode(apollo::Mode::Tune);
  rt.set_policy_model(model);
}

void setup_tune_pointer() {
  // Fresh-evaluation baseline: a tree walk on every launch, inline cache
  // off. The CI overhead gate compares the tuned path above against this
  // baseline at 1 and 8 threads.
  setup_tune();
  apollo::Runtime::instance().set_inline_cache_enabled(false);
}

void setup_adapt() {
  const auto& model = concurrent_model();
  setup_off();
  auto& rt = apollo::Runtime::instance();
  rt.set_mode(apollo::Mode::Adapt);
  rt.sample_buffer().set_capacity(4096);
  apollo::online::OnlineConfig config;
  config.retrain_every = 4096;
  config.min_retrain_samples = 64;
  rt.configure_online(config);
  rt.set_policy_model(model);
}

/// Thread 0 configures the runtime before the timed loop and resets it
/// after; the loop's start and end are barriers across the threads.
void run(benchmark::State& state, void (*setup)(), void (*loop)(benchmark::State&)) {
  if (state.thread_index() == 0) setup();
  loop(state);
  if (state.thread_index() == 0) apollo::Runtime::instance().reset();
}

void ConcurrentDispatchOff(benchmark::State& state) { run(state, setup_off, dispatch_loop); }
BENCHMARK(ConcurrentDispatchOff)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchRecord(benchmark::State& state) {
  run(state, setup_record, dispatch_loop);
}
BENCHMARK(ConcurrentDispatchRecord)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchTune(benchmark::State& state) { run(state, setup_tune, dispatch_loop); }
BENCHMARK(ConcurrentDispatchTune)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchTunePointer(benchmark::State& state) {
  run(state, setup_tune_pointer, dispatch_loop);
}
BENCHMARK(ConcurrentDispatchTunePointer)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchAdapt(benchmark::State& state) { run(state, setup_adapt, dispatch_loop); }
BENCHMARK(ConcurrentDispatchAdapt)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchOffShared(benchmark::State& state) {
  run(state, setup_off, shared_dispatch_loop);
}
BENCHMARK(ConcurrentDispatchOffShared)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchTuneShared(benchmark::State& state) {
  run(state, setup_tune, shared_dispatch_loop);
}
BENCHMARK(ConcurrentDispatchTuneShared)->ThreadRange(1, 8)->UseRealTime();

void ConcurrentDispatchAdaptShared(benchmark::State& state) {
  run(state, setup_adapt, shared_dispatch_loop);
}
BENCHMARK(ConcurrentDispatchAdaptShared)->ThreadRange(1, 8)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
