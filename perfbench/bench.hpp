#pragma once

// Shared pieces of the repository benchmark (see perfbench/README.md): run
// options, the metric report a workload fills in, and small measurement
// helpers. Everything here observes the library from outside — timers around
// calls into public functions and reads of public counters; nothing is traced
// inside src/.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/tuner_model.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/record.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;        ///< CPUs this process may run on
  unsigned team = 1;         ///< fork-join pool team (caller included)
  unsigned app_threads = 1;  ///< application threads (adapt-storm)
};

/// One named measurement with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: operation counts (the run is correct
/// when none failed), every metric it measured (end-to-end and per-layer;
/// main prints the subset the run's --trace selects), and report lines.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Workload-shape fields (printed as one JSON line before the result).
  std::vector<std::pair<std::string, double>> shape;
  /// Extra provenance (deck, model hash, ...), printed with the run's.
  std::vector<std::pair<std::string, std::string>> provenance;
  /// Human-readable notes on why a check failed.
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(std::int64_t count, std::string why) {
    failed += count;
    errors.push_back(std::move(why));
  }
};

[[nodiscard]] inline double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// An evenly thinned sample of a stream in a buffer allocated and touched
/// once: every stride-th value is kept, and when the buffer is full every
/// other kept value is dropped and the stride doubles. Its memory does not
/// grow with the stream, so a faster program does not read as a larger one.
class Thinned {
public:
  /// `capacity` must be even and at least 2.
  explicit Thinned(std::size_t capacity) : kept_(capacity) {}

  void add(double value) {
    if (seen_++ % stride_ != 0) return;
    if (size_ == kept_.size()) {
      // The value at hand sits at index capacity*stride, a multiple of the
      // doubled stride, so it is still kept.
      for (std::size_t i = 0; i < size_ / 2; ++i) kept_[i] = kept_[2 * i];
      size_ /= 2;
      stride_ *= 2;
    }
    kept_[size_++] = value;
  }

  [[nodiscard]] std::vector<double> values() const {
    return {kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(size_)};
  }

private:
  std::vector<double> kept_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
};

/// ThreadPool::stats() now, minus `since`.
[[nodiscard]] apollo::par::PoolStats pool_since(const apollo::par::PoolStats& since);

/// Counts a workload takes around its measured launches.
struct LayerCounts {
  apollo::par::PoolStats pool{};        ///< pool activity (see pool_since)
  std::int64_t launches = 0;            ///< apollo::forall launches
  double steps = 0.0;                   ///< steps those launches make up
  std::uint64_t blackboard_writes = 0;  ///< Blackboard::generation() advance
};

/// Set the per-layer metrics and workload-shape fields every workload
/// shares: parallel.pool_launch_share/pool_launches/wakeups/park_share,
/// perf.blackboard_writes_per_step and apps.steps/launches_per_step from
/// `counts`; core.launches; and, from Runtime::stats() and the inline caches
/// of every kernel it lists, core.decide_ns_p50/p99, core.decisions and
/// core.inline_cache_hit_ratio/hits/misses.
void report_shared_layers(const LayerCounts& counts, Outcome& out);

/// A policy model trained in set-up, with what training it took.
struct Trained {
  apollo::TunerModel model;
  double train_s = 0.0;     ///< Trainer::train alone
  std::size_t records = 0;  ///< training records it saw
};

/// Train a policy model on `records`, timing Trainer::train.
[[nodiscard]] Trained train_policy(const std::vector<apollo::perf::SampleRecord>& records);

/// Run `setup` (record, train, deploy) kSetupReps times and report setup_s
/// (the median), the deployed model's hash and the ml.* per-layer metrics.
void run_setup(Outcome& out, const std::function<Trained()>& setup);

/// Quantile q in [0, 1] of `values` (copied and sorted; 0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Stable 64-bit FNV-1a hash of a model's serialized text, as 16 hex digits.
[[nodiscard]] std::string model_hash(const apollo::TunerModel& model);

/// Round trip of an empty-body fork-join region over 1000 iterations on the
/// global pool, p50 over `reps` launches, in microseconds.
[[nodiscard]] double forkjoin_us_p50(int reps);

/// The workloads. Each trains its models kSetupReps times in set-up and then
/// measures for opts.seconds.
void run_app_workload(const Options& opts, Outcome& out);
void run_adapt_storm(const Options& opts, Outcome& out);

/// Set-up repetitions per run: setup_s is their median.
inline constexpr int kSetupReps = 9;

}  // namespace perfbench
