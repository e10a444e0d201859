// Concurrency tests for the telemetry hot path, written to run under
// ThreadSanitizer: producer threads trace while the collector side drains
// concurrently, and launch while an exporter renders the metrics. The
// accounting contract is exact — every push attempt is either drained or
// counted as a ring drop, never lost silently, and the rendered series read
// the runtime's own counts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "core/tuner_model.hpp"
#include "ml/decision_tree.hpp"
#include "telemetry/telemetry.hpp"

namespace telemetry = apollo::telemetry;

namespace {
constexpr int kThreads = 8;
constexpr std::uint64_t kEventsPerThread = 20000;
}  // namespace

TEST(TelemetryConcurrency, DrainedPlusDroppedEqualsPushed) {
  telemetry::set_enabled(false);
  telemetry::stop_collector();
  telemetry::reset_for_testing();

  auto& tracer = telemetry::Tracer::instance();
  tracer.set_ring_capacity(256);  // small rings force overflow under load
  const char* name = tracer.intern("concurrency:events");
  std::atomic<std::uint64_t> counter{0};

  std::atomic<bool> stop{false};
  std::vector<telemetry::TraceEvent> drained;
  std::thread drainer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      tracer.drain(drained);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kEventsPerThread; ++i) {
        telemetry::TraceEvent event;
        event.ts_ns = (static_cast<std::uint64_t>(t) << 32) | i;
        event.dur_ns = 1;
        event.name = name;
        event.kind = telemetry::EventKind::Launch;
        tracer.emit(event);
        counter.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : producers) thread.join();
  stop.store(true, std::memory_order_release);
  drainer.join();
  // Final sweep: anything still sitting in the rings after the drainer saw
  // the stop flag.
  tracer.drain(drained);

  const std::uint64_t attempted = kThreads * kEventsPerThread;
  EXPECT_EQ(counter.load(), attempted);
  EXPECT_EQ(drained.size() + tracer.dropped(), attempted);
  EXPECT_GT(drained.size(), 0u);

  // Per-producer FIFO survives the concurrent drain: for any thread, drained
  // sequence numbers appear in increasing order.
  std::vector<std::uint64_t> last(kThreads, 0);
  std::vector<bool> seen(kThreads, false);
  for (const auto& event : drained) {
    const auto t = static_cast<std::size_t>(event.ts_ns >> 32);
    const std::uint64_t seq = event.ts_ns & 0xffffffffu;
    ASSERT_LT(t, static_cast<std::size_t>(kThreads));
    if (seen[t]) {
      EXPECT_GT(seq, last[t]);
    }
    last[t] = seq;
    seen[t] = true;
  }

  telemetry::reset_for_testing();
}

TEST(TelemetryConcurrency, MetricsStayExactUnderContention) {
  // A histogram shared by every thread counts each observation exactly.
  telemetry::Histogram hist(telemetry::duration_bounds());
  {
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (std::uint64_t i = 0; i < kEventsPerThread; ++i) hist.observe(1e-6);
      });
    }
    for (auto& thread : workers) thread.join();
  }
  EXPECT_EQ(hist.count(), kThreads * kEventsPerThread);

  // The exposition renders from the runtime while 8 threads launch Tune with
  // telemetry on (under TSan, this is the exporter-vs-launch interleaving),
  // and once they stop it reads exactly the runtime's own counts.
  telemetry::reset_for_testing();
  telemetry::Config config;
  config.trace_file.clear();
  config.decisions_file.clear();
  config.flush_interval_seconds = 0.0;
  config.probe_stride = 16;
  telemetry::configure(config);
  auto& rt = apollo::Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(apollo::Mode::Tune);
  std::stringstream tree;  // num_indices <= 10000 -> seq, else omp
  tree << "apollo-tree 1\nfeatures 1 num_indices\nlabels 2 seq omp\nnodes 3\n"
          "0 10000 1 2 0 2 0.5\n-1 0 -1 -1 0 1 0\n-1 0 -1 -1 1 1 0\n";
  rt.set_policy_model(apollo::TunerModel(apollo::TunedParameter::Policy,
                                         apollo::ml::DecisionTree::load(tree), {}));
  telemetry::set_enabled(true);

  const apollo::KernelHandle kernels[] = {
      {"concurrency:k0", "K0", apollo::instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24},
      {"concurrency:k1", "K1", apollo::instr::MixBuilder{}.fp(1).load(1).store(1).build(), 8},
  };
  constexpr std::uint64_t kLaunchesPerThread = 400;
  std::atomic<bool> stop{false};
  std::size_t renders = 0;
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)telemetry::metrics_snapshot().text();
      ++renders;
    }
  });
  std::vector<std::thread> launchers;
  launchers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    launchers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kLaunchesPerThread; ++i) {
        const raja::Index n = (i + static_cast<std::uint64_t>(t)) % 3 == 0 ? 50000 : 512;
        apollo::forall(kernels[i % 2], raja::IndexSet::range(0, n), [](raja::Index) {});
      }
    });
  }
  for (auto& thread : launchers) thread.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  telemetry::set_enabled(false);
  EXPECT_GT(renders, 0u);

  double dispatches = 0.0;
  double probes = -1.0;
  std::istringstream text(telemetry::metrics_snapshot().text());
  for (std::string line; std::getline(text, line);) {
    const auto sample = telemetry::parse_sample_line(line);
    if (!sample) continue;
    if (sample->name == "apollo_dispatch_total") dispatches += sample->value;
    if (sample->name == "apollo_probe_total") probes = sample->value;
  }
  EXPECT_EQ(dispatches, static_cast<double>(kThreads * kLaunchesPerThread));
  EXPECT_GT(probes, 0.0);
  EXPECT_EQ(probes, static_cast<double>(rt.probe_count()));

  rt.reset();
  telemetry::configure(telemetry::Config{});
  telemetry::reset_for_testing();
}
