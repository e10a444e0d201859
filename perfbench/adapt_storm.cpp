// adapt-storm: Mode::Adapt under model timing (execute_selected=false),
// driven by nproc-1 application threads. Each thread runs rounds of
// kRoundLaunches launches, drawing a kernel and an iteration count from its
// own seeded stream; the count comes from the current regime — small sizes
// (sequential wins on the machine model) or large ones (OpenMP wins) — and
// the regime flips at seeded points of the global launch count. The offline
// policy model is trained on the small regime only, so every shift makes
// the online layer detect drift, retrain and hot-swap through the registry
// while the other threads keep reading the snapshot and inline caches.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <thread>

#include "bench.hpp"
#include "core/runtime.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/blackboard.hpp"

namespace perfbench {

namespace {

using namespace apollo;

constexpr int kKernels = 8;
constexpr int kRoundLaunches = 64;
/// Launches between regime shifts are drawn from [kMinPhase, kMaxPhase].
constexpr std::uint64_t kMinPhase = 150000;
constexpr std::uint64_t kMaxPhase = 300000;

const KernelHandle& storm_kernel(int k) {
  using instr::MixBuilder;
  static const KernelHandle kernels[kKernels] = {
      {"storm:k0", "Storm0", MixBuilder{}.fp(2).load(2).store(1).build(), 24},
      {"storm:k1", "Storm1", MixBuilder{}.fp(4).load(1).store(1).build(), 16},
      {"storm:k2", "Storm2", MixBuilder{}.fp(1).load(3).store(2).build(), 40},
      {"storm:k3", "Storm3", MixBuilder{}.fp(8).div(1).load(2).store(1).build(), 24},
      {"storm:k4", "Storm4", MixBuilder{}.fp(3).load(2).store(2).build(), 32},
      {"storm:k5", "Storm5", MixBuilder{}.fp(6).load(4).store(1).build(), 48},
      {"storm:k6", "Storm6", MixBuilder{}.fp(2).div(1).load(1).store(1).build(), 16},
      {"storm:k7", "Storm7", MixBuilder{}.fp(5).load(3).store(3).build(), 56},
  };
  return kernels[k];
}

/// Iteration counts per regime: 0 = small (trained), 1 = large.
const std::vector<std::int64_t> kSizes[2] = {
    {256, 512, 1024, 2048, 4096, 8192},
    {65536, 98304, 131072, 196608, 262144, 393216},
};

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// input the program sees.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) noexcept { return next() % n; }
};

/// Global launch counts at which the regime flips (small first).
std::vector<std::uint64_t> shift_schedule(std::uint64_t seed) {
  Rng rng{seed ^ 0x5eed5eedULL};
  std::vector<std::uint64_t> shifts;
  std::uint64_t at = 0;
  while (at < (std::uint64_t{1} << 34)) {
    at += kMinPhase + rng.below(kMaxPhase - kMinPhase + 1);
    shifts.push_back(at);
  }
  return shifts;
}

/// Number of shifts at or before `launches`.
std::size_t shifts_before(const std::vector<std::uint64_t>& shifts, std::uint64_t launches) {
  return static_cast<std::size_t>(std::upper_bound(shifts.begin(), shifts.end(), launches) -
                                  shifts.begin());
}

/// The query Runtime::end prices a launch with (no blackboard attributes are
/// set in this workload, so no context seed and no timestep drift).
sim::CostQuery storm_query(int k, std::int64_t n, raja::PolicyType policy) {
  const KernelHandle& kernel = storm_kernel(k);
  sim::CostQuery query;
  query.num_indices = n;
  query.num_segments = 1;
  query.mix = kernel.mix();
  query.bytes_per_iteration = kernel.bytes_per_iteration();
  query.policy = policy == raja::PolicyType::seq_segit_seq_exec ? sim::PolicyKind::Sequential
                                                                 : sim::PolicyKind::OpenMP;
  query.threads = Runtime::instance().threads();
  query.chunk = 0;
  query.kernel_seed = std::hash<std::string>{}(kernel.loop_id());
  return query;
}

/// Exhaustive Record sweep (seq and omp priced per launch) of every kernel
/// over the small regime, train the policy model, and deploy it in Adapt
/// mode.
Trained record_train_deploy(std::uint64_t seed) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Record);
  TrainingConfig training;
  training.chunk_values.clear();  // policy variants: seq and omp
  rt.set_training_config(training);
  // Every multiple of 256 across the small regime's range, 8 launches each.
  for (int k = 0; k < kKernels; ++k) {
    for (std::int64_t n = 256; n <= kSizes[0].back(); n += 256) {
      const raja::IndexSet iset = raja::IndexSet::range(0, n);
      for (int rep = 0; rep < 8; ++rep) apollo::forall(storm_kernel(k), iset, [](raja::Index) {});
    }
  }
  Trained trained = train_policy(rt.records());

  rt.reset();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);
  online::OnlineConfig config;
  config.explorer.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  rt.configure_online(config);
  rt.set_policy_model(trained.model);
  return trained;
}

/// Timings kept per thread and stream (see Thinned). Rounds run at a few
/// thousand per second per thread, so a 40 s run keeps every 8th or so.
constexpr std::size_t kSamples = 1 << 14;

/// One application thread's tallies. Timing samples live in fixed buffers,
/// so the benchmark's own memory does not grow with launch throughput.
struct ThreadResult {
  explicit ThreadResult(bool trace)
      : traced_round_seconds(trace ? kSamples : 2),
        begin_ns(trace ? kSamples : 2),
        end_ns(trace ? kSamples : 2) {}

  std::int64_t launches = 0;
  std::int64_t bad_visits = 0;
  double oracle_seconds = 0.0;
  std::string error;  ///< what ended the thread early, if anything
  Thinned round_seconds{kSamples};  ///< untraced rounds
  Thinned traced_round_seconds;     ///< rounds through the timed hooks
  Thinned begin_ns;
  Thinned end_ns;
};

}  // namespace

void run_adapt_storm(const Options& opts, Outcome& out) {
  auto& rt = Runtime::instance();
  perf::Blackboard::instance().clear();
  out.provenance.emplace_back("timing_source", "model (execute_selected=false)");
  out.provenance.emplace_back("round_launches", std::to_string(kRoundLaunches));

  run_setup(out, [&opts] { return record_train_deploy(opts.seed); });

  // Inputs shared read-only by every thread: index sets and the per-launch
  // oracle (cheapest variant by the deterministic machine-model cost).
  std::vector<raja::IndexSet> isets[2];
  std::vector<double> oracle[2][kKernels];
  for (int regime = 0; regime < 2; ++regime) {
    for (const std::int64_t n : kSizes[regime]) {
      isets[regime].push_back(raja::IndexSet::range(0, n));
      for (int k = 0; k < kKernels; ++k) {
        const double seq =
            rt.machine().cost_seconds(storm_query(k, n, raja::PolicyType::seq_segit_seq_exec));
        const double omp = rt.machine().cost_seconds(
            storm_query(k, n, raja::PolicyType::seq_segit_omp_parallel_for_exec));
        oracle[regime][k].push_back(std::min(seq, omp));
      }
    }
  }
  const std::vector<std::uint64_t> shifts = shift_schedule(opts.seed);

  // --- timed phase ---------------------------------------------------------
  rt.reset_stats();
  const par::PoolStats pool0 = par::ThreadPool::stats();
  const std::uint64_t generation0 = perf::Blackboard::instance().generation();
  const std::uint64_t dropped0 = rt.sample_buffer().dropped();
  std::atomic<std::uint64_t> global_launches{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<ThreadResult> results(opts.app_threads, ThreadResult(opts.trace));

  const auto app_thread = [&](unsigned t) {
    ThreadResult& result = results[t];
    Rng rng{opts.seed * 0x100000001b3ULL + t + 1};
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    try {
      for (std::uint64_t round = 0; !stop.load(std::memory_order_relaxed); ++round) {
        const std::uint64_t launched = global_launches.load(std::memory_order_relaxed);
        const int regime = static_cast<int>(shifts_before(shifts, launched) % 2);
        const bool traced = opts.trace && (round % 2 == 1);
        const std::uint64_t round_start = now_ns();
        for (int i = 0; i < kRoundLaunches; ++i) {
          const int k = static_cast<int>(rng.below(kKernels));
          const std::size_t s = rng.below(kSizes[regime].size());
          const raja::IndexSet& iset = isets[regime][s];
          // 32-bit on purpose: a counter of a type that cannot alias the
          // segment's 64-bit bounds lets the compiler fold the loop into one
          // add, so launch cost is the library's and not the body's, while the
          // count still comes from the library's own iteration.
          std::int32_t visits = 0;
          const auto body = [&visits](raja::Index) { ++visits; };
          if (!traced) {
            apollo::forall(storm_kernel(k), iset, body);
          } else {
            // The benchmark's own begin/execute/end loop: apollo::forall
            // unrolled, with a timer around each hook.
            const KernelHandle& kernel = storm_kernel(k);
            KernelContext& context = rt.context_for(kernel);
            const std::uint64_t t0 = now_ns();
            const ModelParams params = rt.begin(context, kernel, iset);
            const std::uint64_t t1 = now_ns();
            apollo::detail::execute_decided(rt, params, iset, body);
            const std::uint64_t t2 = now_ns();
            rt.end(context, kernel, iset, params);
            const std::uint64_t t3 = now_ns();
            result.begin_ns.add(static_cast<double>(t1 - t0));
            result.end_ns.add(static_cast<double>(t3 - t2));
          }
          if (visits != kSizes[regime][s]) ++result.bad_visits;
          result.oracle_seconds += oracle[regime][k][s];
        }
        const double seconds = static_cast<double>(now_ns() - round_start) * 1e-9;
        (traced ? result.traced_round_seconds : result.round_seconds).add(seconds);
        result.launches += kRoundLaunches;
        global_launches.fetch_add(kRoundLaunches, std::memory_order_relaxed);
      }
    } catch (const std::exception& error) {
      result.error = error.what();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(opts.app_threads);
  for (unsigned t = 0; t < opts.app_threads; ++t) threads.emplace_back(app_thread, t);

  // Swap lag: launches from each regime shift to the first launch that saw a
  // newer registry generation, sampled every millisecond.
  online::ModelRegistry& registry = rt.online().registry();
  std::vector<double> swap_lags;
  std::size_t shifts_seen = 0;
  std::uint64_t version_at_shift = 0;
  bool awaiting_swap = false;
  const double start = now_seconds();
  go.store(true, std::memory_order_release);
  while (now_seconds() - start < opts.seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::uint64_t launches = global_launches.load(std::memory_order_relaxed);
    const std::uint64_t version = registry.version();
    const std::size_t shift_count = shifts_before(shifts, launches);
    if (shift_count != shifts_seen) {
      shifts_seen = shift_count;
      version_at_shift = version;
      awaiting_swap = true;
    } else if (awaiting_swap && version > version_at_shift) {
      swap_lags.push_back(static_cast<double>(launches - shifts[shift_count - 1]));
      awaiting_swap = false;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  const double wall = now_seconds() - start;
  rt.online().wait_retrain_idle();

  // --- checks --------------------------------------------------------------
  struct {
    std::int64_t launches = 0;
    std::int64_t bad_visits = 0;
    double oracle_seconds = 0.0;
    std::vector<double> round_seconds, traced_round_seconds, begin_ns, end_ns;
  } total;
  for (const ThreadResult& result : results) {
    total.launches += result.launches;
    total.bad_visits += result.bad_visits;
    total.oracle_seconds += result.oracle_seconds;
    const auto append = [](std::vector<double>& into, const Thinned& samples) {
      const std::vector<double> values = samples.values();
      into.insert(into.end(), values.begin(), values.end());
    };
    append(total.round_seconds, result.round_seconds);
    append(total.traced_round_seconds, result.traced_round_seconds);
    append(total.begin_ns, result.begin_ns);
    append(total.end_ns, result.end_ns);
  }
  const RunStats stats = rt.stats();
  const online::OnlineTuner::Status status = rt.online().status();
  out.attempted = total.launches;
  if (total.bad_visits > 0) {
    out.fail(total.bad_visits, std::to_string(total.bad_visits) +
                                   " launches visited a wrong number of indices");
  }
  if (stats.invocations != total.launches) {
    out.fail(std::abs(stats.invocations - total.launches),
             "runtime counted " + std::to_string(stats.invocations) + " launches, threads made " +
                 std::to_string(total.launches));
  }
  for (const ThreadResult& result : results) {
    if (!result.error.empty()) out.fail(1, "application thread stopped: " + result.error);
  }
  if (status.retrains_failed > 0) {
    out.fail(static_cast<std::int64_t>(status.retrains_failed), "failed retrains");
  }

  // --- end-to-end ------------------------------------------------------------
  const std::vector<double>& rounds = total.round_seconds;
  out.set("step_ms_p50", quantile(rounds, 0.5) * 1e3, "ms");
  out.set("step_ms_p90", quantile(rounds, 0.9) * 1e3, "ms");
  out.set("launches_per_s", static_cast<double>(total.launches) / wall, "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("oracle_ratio", stats.total_seconds / total.oracle_seconds, "ratio");

  // --- per-layer -------------------------------------------------------------
  const double steps = static_cast<double>(total.launches) / kRoundLaunches;
  report_shared_layers(LayerCounts{pool_since(pool0), total.launches, steps,
                                   perf::Blackboard::instance().generation() - generation0},
                       out);
  // Model timing charges modeled seconds, not wall time: no gap to measure.
  out.set("core.uncharged_frac", 0.0, "ratio");
  out.set("core.kernels", static_cast<double>(stats.per_kernel.size()), "count");
  out.set("online.retrains", static_cast<double>(status.retrains_completed), "count");
  out.set("online.retrains_failed", static_cast<double>(status.retrains_failed), "count");
  out.set("online.drift_fires", static_cast<double>(status.drift_fires), "count");
  out.set("online.explorations", static_cast<double>(status.explorations), "count");
  out.set("online.swap_lag_launches", swap_lags.empty() ? 0.0 : median(swap_lags), "count");
  out.set("online.samples_dropped",
          static_cast<double>(rt.sample_buffer().dropped() - dropped0), "count");
  // Reference rows of the mini-app workloads only.
  out.set("apps.static_step_ms_p50", 0.0, "ms");
  out.set("apps.seq_step_ms_p50", 0.0, "ms");
  out.set("apps.speedup_vs_static", 0.0, "ratio");
  out.set("telemetry.on_overhead_frac", 0.0, "ratio");

  out.shape.emplace_back("step_samples", static_cast<double>(rounds.size()));
  out.shape.emplace_back("regime_shifts", static_cast<double>(shifts_seen));
  out.shape.emplace_back("swaps_after_shift", static_cast<double>(swap_lags.size()));

  if (!opts.trace) return;

  out.set("parallel.forkjoin_us_p50", forkjoin_us_p50(2000), "us");
  out.set("core.begin_ns_p50", median(total.begin_ns), "ns");
  out.set("core.end_ns_p50", median(total.end_ns), "ns");
  out.set("trace.overhead_frac",
          quantile(total.traced_round_seconds, 0.5) / quantile(rounds, 0.5) - 1.0, "ratio");

  // Cost of one MachineModel::measured_seconds call on this workload's
  // queries (the pricing Runtime::end does per launch under model timing).
  std::vector<sim::CostQuery> queries;
  for (int regime = 0; regime < 2; ++regime) {
    for (const std::int64_t n : kSizes[regime]) {
      for (int k = 0; k < kKernels; ++k) {
        queries.push_back(storm_query(k, n, raja::PolicyType::seq_segit_omp_parallel_for_exec));
      }
    }
  }
  std::vector<double> per_call_ns;
  double sink = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    constexpr int kCalls = 100000;
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      sink += rt.machine().measured_seconds(queries[static_cast<std::size_t>(i) % queries.size()],
                                            static_cast<std::uint64_t>(i));
    }
    per_call_ns.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  if (!std::isfinite(sink)) out.fail(1, "machine model returned a non-finite cost");
  out.set("sim.cost_ns", median(per_call_ns), "ns");
}

}  // namespace perfbench
