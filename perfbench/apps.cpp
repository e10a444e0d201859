// The two mini-app workloads, lulesh-sedov and cleverleaf-amr: wall-clock
// timing, Tune mode, with a policy model trained in set-up by the paper's
// forced-policy protocol (one seq run and one omp run per training size).
//
// A run is a sequence of episodes: a fresh Simulation stepped for a fixed
// number of timesteps, one Simulation::run(1) call per timed step. Every
// episode's final physics state is compared with the Off-mode reference
// episode, so a step counts as failed when its episode's check mismatches.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "apps/application.hpp"
#include "apps/cleverleaf/cleverleaf.hpp"
#include "apps/lulesh/lulesh.hpp"
#include "bench.hpp"
#include "core/runtime.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/blackboard.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace {

using namespace apollo;

/// A workload's fixed input deck.
struct Deck {
  std::string problem;    ///< Application::problems() name
  int size = 0;           ///< global problem size (edge elements / coarse cells)
  int episode_steps = 0;  ///< timesteps per episode
  int train_steps = 0;    ///< timesteps per forced-policy training run
};

/// A live simulation the benchmark steps one timestep at a time, with the
/// same blackboard annotations Application::run publishes.
class Episode {
public:
  Episode(const std::string& app_prefix, const Deck& deck)
      : problem_("problem_name", app_prefix + "-" + deck.problem),
        size_("problem_size", deck.size) {}
  virtual ~Episode() = default;
  Episode(const Episode&) = delete;
  Episode& operator=(const Episode&) = delete;

  virtual void step() = 0;
  /// The physics values compared against the reference.
  [[nodiscard]] virtual std::vector<double> state() const = 0;

private:
  perf::ScopedAnnotation problem_;
  perf::ScopedAnnotation size_;
};

class LuleshEpisode final : public Episode {
public:
  explicit LuleshEpisode(const Deck& deck) : Episode("lulesh", deck), sim_(deck.size) {}
  void step() override { sim_.run(1); }
  /// Domain time and the origin element's internal energy.
  [[nodiscard]] std::vector<double> state() const override {
    return {sim_.domain().time, sim_.domain().e[0]};
  }

private:
  apps::lulesh::Simulation sim_;
};

class CleverEpisode final : public Episode {
public:
  explicit CleverEpisode(const Deck& deck)
      : Episode("clover", deck), sim_(config(deck)) {}
  void step() override { sim_.run(1); }
  [[nodiscard]] std::vector<double> state() const override {
    return {sim_.total_mass(), sim_.total_energy()};
  }

private:
  static apps::cleverleaf::CleverConfig config(const Deck& deck) {
    apps::cleverleaf::CleverConfig cc;
    cc.problem = deck.problem;
    cc.coarse_cells = deck.size;
    cc.max_levels = 3;
    return cc;
  }
  apps::cleverleaf::Simulation sim_;
};

struct AppSpec {
  Deck deck;
  std::unique_ptr<apps::Application> app;
  bool lulesh = true;

  [[nodiscard]] std::unique_ptr<Episode> episode() const {
    if (lulesh) return std::make_unique<LuleshEpisode>(deck);
    return std::make_unique<CleverEpisode>(deck);
  }
};

/// Relative tolerance of the physics check. The policies change only which
/// thread runs an iteration, and the reductions feeding the state are
/// min-reductions, so reference and tuned runs agree to rounding.
constexpr double kStateTolerance = 1e-9;

/// Tune steps a run measures at least, so that ten or more lie above p90.
constexpr std::int64_t kMinSteps = 100;

bool state_matches(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!std::isfinite(got[i])) return false;
    const double scale = std::max(std::fabs(want[i]), 1e-300);
    if (std::fabs(got[i] - want[i]) / scale > kStateTolerance) return false;
  }
  return true;
}

/// The runtime configurations a run interleaves, episode by episode.
enum class Slot { Static, Seq, Tune, TuneTelemetry };

/// What one slot's episodes add up to.
struct Tally {
  std::vector<double> step_seconds;
  double wall_seconds = 0.0;  ///< sum of step_seconds
  std::int64_t steps = 0;
  std::int64_t launches = 0;
  double charged_seconds = 0.0;
  /// Per kernel: charged seconds per step, one entry per episode.
  std::map<std::string, std::vector<double>> kernel_step_seconds;
  par::PoolStats pool{};
  std::uint64_t blackboard_writes = 0;

  /// Each kernel's median over episodes of its charged seconds per step
  /// (a median, so an episode slowed by the host weighs no more than one).
  [[nodiscard]] std::map<std::string, double> kernel_seconds_per_step() const {
    std::map<std::string, double> out;
    for (const auto& [loop_id, seconds] : kernel_step_seconds) out[loop_id] = median(seconds);
    return out;
  }
};

/// Run one episode under `slot`'s configuration and add it to `tally`. The
/// final state must match `reference`; when `reference` is empty it is set
/// from this episode instead.
void run_episode(const AppSpec& spec, Slot slot, std::vector<double>& reference, Tally& tally,
                 Outcome& out) {
  auto& rt = Runtime::instance();
  rt.set_mode(slot == Slot::Static || slot == Slot::Seq ? Mode::Off : Mode::Tune);
  rt.set_default_policy_override(
      slot == Slot::Seq ? std::optional(raja::PolicyType::seq_segit_seq_exec) : std::nullopt);
  telemetry::set_enabled(slot == Slot::TuneTelemetry);

  const RunStats before = rt.stats();
  const par::PoolStats pool0 = par::ThreadPool::stats();
  const std::uint64_t generation0 = perf::Blackboard::instance().generation();
  try {
    const std::unique_ptr<Episode> episode = spec.episode();
    for (int s = 0; s < spec.deck.episode_steps; ++s) {
      const double start = now_seconds();
      episode->step();
      const double elapsed = now_seconds() - start;
      tally.step_seconds.push_back(elapsed);
      tally.wall_seconds += elapsed;
      ++tally.steps;
    }
    const std::vector<double> state = episode->state();
    if (reference.empty()) {
      reference = state;
    } else if (!state_matches(state, reference)) {
      out.fail(spec.deck.episode_steps, "an episode's final state differs from the reference");
    }
  } catch (const std::exception& error) {
    out.fail(spec.deck.episode_steps, error.what());
  }
  telemetry::set_enabled(false);

  const par::PoolStats pool = pool_since(pool0);
  tally.pool.launches += pool.launches;
  tally.pool.wakeups += pool.wakeups;
  tally.pool.spin_completions += pool.spin_completions;
  tally.pool.park_completions += pool.park_completions;
  tally.blackboard_writes += perf::Blackboard::instance().generation() - generation0;
  const RunStats after = rt.stats();
  tally.launches += after.invocations - before.invocations;
  tally.charged_seconds += after.total_seconds - before.total_seconds;
  for (const auto& [loop_id, shard] : after.per_kernel) {
    const auto prior = before.per_kernel.find(loop_id);
    const double seconds =
        shard.seconds - (prior == before.per_kernel.end() ? 0.0 : prior->second.seconds);
    if (seconds > 0.0) {
      tally.kernel_step_seconds[loop_id].push_back(seconds / spec.deck.episode_steps);
    }
  }
}

/// Fresh runtime under wall-clock timing with `model` deployed (kernel
/// contexts, inline caches and stats start from zero).
void deploy(const TunerModel& model) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_timing_source(TimingSource::Wallclock);
  rt.set_policy_model(model);
  rt.set_mode(Mode::Tune);
}

/// Record with the forced-policy wall-clock protocol (one seq and one omp
/// run of the deck at every training size), train, and deploy.
Trained record_train_deploy(const AppSpec& spec) {
  auto& rt = Runtime::instance();
  rt.reset();
  rt.set_timing_source(TimingSource::Wallclock);
  rt.set_mode(Mode::Record);
  for (const raja::PolicyType policy :
       {raja::PolicyType::seq_segit_seq_exec, raja::PolicyType::seq_segit_omp_parallel_for_exec}) {
    TrainingConfig training;
    training.sweep_variants = false;
    training.forced_policy = policy;
    training.chunk_values.clear();
    rt.set_training_config(training);
    for (const int size : spec.app->training_sizes()) {
      spec.app->run(apps::RunConfig{spec.deck.problem, size, spec.deck.train_steps});
    }
  }
  Trained trained = train_policy(rt.records());
  deploy(trained.model);
  return trained;
}

}  // namespace

void run_app_workload(const Options& opts, Outcome& out) {
  AppSpec spec;
  if (opts.workload == "lulesh-sedov") {
    spec.deck = Deck{"sedov", 48, 20, 4};
    spec.app = apps::make_lulesh();
    spec.lulesh = true;
  } else if (opts.workload == "cleverleaf-amr") {
    spec.deck = Deck{"triple_point", 96, 16, 8};
    spec.app = apps::make_cleverleaf();
    spec.lulesh = false;
  } else {
    throw std::invalid_argument("unknown app workload " + opts.workload);
  }
  out.provenance.emplace_back("deck", spec.deck.problem + "@" + std::to_string(spec.deck.size));
  out.provenance.emplace_back("episode_steps", std::to_string(spec.deck.episode_steps));
  out.provenance.emplace_back("seed_use", "none: the deck is deterministic");
  out.provenance.emplace_back("timing_source", "wallclock");

  run_setup(out, [&spec] { return record_train_deploy(spec); });

  // --- the timed phase ------------------------------------------------------
  // Tune episodes interleaved with the Off-mode default (static) and all-seq
  // references, so load changes on the host hit every slot alike. The first
  // static episode's final state is the physics reference for all others;
  // the fixed-policy slots also price each kernel for the per-kernel oracle
  // and give the Fig. 11 reference rows.
  const Slot rotation[] = {Slot::Static, Slot::Tune, Slot::Tune, Slot::Tune,
                           Slot::Seq,    Slot::Tune, Slot::Tune, Slot::Tune};
  Tally tallies[4];
  const auto tally = [&tallies](Slot slot) -> Tally& { return tallies[static_cast<int>(slot)]; };
  const Tally& tuned = tally(Slot::Tune);
  std::vector<double> reference;
  const double start = now_seconds();
  do {
    for (const Slot slot : rotation) run_episode(spec, slot, reference, tally(slot), out);
  } while (now_seconds() - start < opts.seconds || tuned.steps < kMinSteps);

  const Tally& fixed = tally(Slot::Static);
  const Tally& seq = tally(Slot::Seq);
  out.attempted = tuned.steps + fixed.steps + seq.steps;

  // Per-kernel oracle: each kernel's cheaper fixed policy, per step.
  const auto static_k = fixed.kernel_seconds_per_step();
  const auto seq_k = seq.kernel_seconds_per_step();
  double oracle = 0.0;
  double tuned_total = 0.0;
  for (const auto& [loop_id, seconds] : tuned.kernel_seconds_per_step()) {
    tuned_total += seconds;
    const auto s = static_k.find(loop_id);
    const auto q = seq_k.find(loop_id);
    if (s == static_k.end() || q == seq_k.end()) {
      out.fail(1, "kernel " + loop_id + " ran under Tune but not in a reference slot");
      continue;
    }
    oracle += std::min(s->second, q->second);
  }

  const double step_p50 = quantile(tuned.step_seconds, 0.5) * 1e3;
  out.set("step_ms_p50", step_p50, "ms");
  out.set("step_ms_p90", quantile(tuned.step_seconds, 0.9) * 1e3, "ms");
  out.set("launches_per_s", static_cast<double>(tuned.launches) / tuned.wall_seconds, "1/s");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("oracle_ratio", tuned_total / oracle, "ratio");

  // --- per-layer ------------------------------------------------------------
  report_shared_layers(LayerCounts{tuned.pool, tuned.launches, static_cast<double>(tuned.steps),
                                   tuned.blackboard_writes},
                       out);
  out.set("core.uncharged_frac", 1.0 - tuned.charged_seconds / tuned.wall_seconds, "ratio");
  out.set("core.kernels", static_cast<double>(tuned.kernel_step_seconds.size()), "count");
  const double static_p50 = quantile(fixed.step_seconds, 0.5) * 1e3;
  out.set("apps.static_step_ms_p50", static_p50, "ms");
  out.set("apps.seq_step_ms_p50", quantile(seq.step_seconds, 0.5) * 1e3, "ms");
  out.set("apps.speedup_vs_static", static_p50 / step_p50, "ratio");
  // Not exercised by the Tune-mode apps: no Adapt loop, no model timing,
  // no hand-unrolled hooks.
  for (const char* name : {"online.retrains", "online.retrains_failed", "online.drift_fires",
                           "online.explorations", "online.swap_lag_launches",
                           "online.samples_dropped"}) {
    out.set(name, 0.0, "count");
  }
  out.set("sim.cost_ns", 0.0, "ns");
  out.set("core.begin_ns_p50", 0.0, "ns");
  out.set("core.end_ns_p50", 0.0, "ns");

  out.shape.emplace_back("step_samples", static_cast<double>(tuned.steps));

  if (!opts.trace) return;

  // --- traced-only measurements ---------------------------------------------
  out.set("parallel.forkjoin_us_p50", forkjoin_us_p50(2000), "us");
  // The traced run times the same Simulation::run calls as the untraced one
  // and reads counters only between episodes: it adds no per-launch work.
  out.set("trace.overhead_frac", 0.0, "ratio");

  // APOLLO_TELEMETRY on vs off: alternating Tune episodes, with the collector
  // running throughout as it does under the environment switch.
  telemetry::Config config;
  config.trace_file.clear();
  config.decisions_file.clear();
  config.flush_interval_seconds = 0.0;
  telemetry::configure(config);
  telemetry::start_collector();
  Tally off;
  Tally on;
  for (int pair = 0; pair < 8; ++pair) {
    run_episode(spec, Slot::Tune, reference, off, out);
    run_episode(spec, Slot::TuneTelemetry, reference, on, out);
  }
  telemetry::stop_collector();
  out.attempted += off.steps + on.steps;
  const double telemetry_overhead = median(on.step_seconds) / median(off.step_seconds) - 1.0;
  out.set("telemetry.on_overhead_frac", telemetry_overhead, "ratio");
}

}  // namespace perfbench
