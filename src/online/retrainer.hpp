#pragma once

// Background model retraining. One request at a time: the adaptation loop
// hands over a snapshot of the sample buffer, the Retrainer collapses it into
// one weighted record per distinct launch (collapse_window), runs the same
// offline Trainer pipeline (group, label, fit) on its own ThreadPool
// background lane, and delivers the resulting models to a publish callback
// (normally ModelRegistry::publish). apollo::forall never blocks: while a
// retrain is in flight further requests are refused cheaply and the caller
// simply tries again later with fresher samples.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/trainer.hpp"
#include "core/tuner_model.hpp"
#include "ml/decision_tree.hpp"
#include "online/sample_buffer.hpp"
#include "parallel/thread_pool.hpp"
#include "perf/record.hpp"

namespace apollo::online {

/// Collapse a window of samples (oldest first) into one weighted record per
/// group of identical launches: same kernel, launch shape, blackboard
/// snapshot (by identity) and executed variant. Each record's
/// measure:runtime is the exact sum of its group's runtimes, summed in
/// window order, and measure:count its size when above 1, so the Trainer
/// labels the collapsed window exactly as it would the raw one. Records come
/// out in order of their group's last appearance. Only the collapsed records
/// are materialized.
[[nodiscard]] std::vector<perf::SampleRecord> collapse_window(const std::vector<Sample>& window);

class Retrainer {
public:
  struct Result {
    std::optional<TunerModel> policy;
    std::optional<TunerModel> chunk;
  };
  /// Called on the background thread after a successful retrain. Must be
  /// thread-safe (ModelRegistry::publish is).
  using PublishFn = std::function<void(Result)>;

  explicit Retrainer(ml::TreeParams params = {});
  ~Retrainer();

  void set_publisher(PublishFn publisher) { publisher_ = std::move(publisher); }
  void set_tree_params(const ml::TreeParams& params) { params_ = params; }

  /// Which parameters to (re)fit. Policy is always fitted; chunk is fitted
  /// only when enabled AND the samples contain usable sweep data. Team size
  /// is tuned offline only (Record's thread_values sweep).
  void set_train_chunk(bool enabled) noexcept { train_chunk_ = enabled; }

  /// Kick off a background retrain over `samples` (a window copied out by
  /// SampleBuffer::snapshot_shared; the window is collapsed and materialized
  /// on the background thread). Returns false (and does nothing) when a
  /// retrain is already in flight.
  bool request(std::vector<Sample> samples);

  /// Convenience overload for already-materialized records (tests, tools).
  bool request(std::vector<perf::SampleRecord> samples);

  [[nodiscard]] bool busy() const noexcept { return busy_.load(std::memory_order_acquire); }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }
  /// Wall-clock duration of the most recent retrain, collapsing the window
  /// included (0 until one completes). Feeds the duty-cycle throttle in
  /// OnlineTuner::maybe_retrain.
  [[nodiscard]] double last_duration_seconds() const noexcept {
    return last_duration_.load(std::memory_order_relaxed);
  }
  /// Message of the last failed retrain ("" when none). For diagnostics.
  [[nodiscard]] std::string last_error() const;

  /// Block until no retrain is in flight (tests and orderly shutdown).
  void wait_idle();

private:
  void run(std::vector<perf::SampleRecord> samples, std::chrono::steady_clock::time_point started);

  ml::TreeParams params_;
  PublishFn publisher_;
  bool train_chunk_ = false;
  std::atomic<bool> busy_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<double> last_duration_{0.0};
  mutable std::mutex error_mutex_;
  std::string last_error_;
  /// Dedicated pool: destroying the Retrainer joins any in-flight retrain,
  /// so a publish can never touch freed registry state. Declared last so it
  /// is destroyed first. A team of one spawns no fork-join workers — the
  /// only thread here is the async background lane the retrain runs on.
  par::ThreadPool pool_{1};
};

}  // namespace apollo::online
