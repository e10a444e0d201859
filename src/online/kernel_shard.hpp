#pragma once

// One kernel's lock and the state it guards. The shard is embedded in the
// kernel's KernelContext, and its mutex is the kernel's only mutex, so
// launches of different kernels never share a lock, and launches of one
// kernel contend only with each other. It guards:
//
//   - the kernel's evidence table (EvidenceTable): every tuned launch that
//     reaches it and every ground-truth probe updates it exactly once, and
//     quality accounting, drift detection and the explorer's cost guard all
//     read it;
//   - the kernel's quality totals (KernelQuality, scored with telemetry on);
//   - the owning context's dispatch counts (telemetry on);
//   - the Mode::Adapt state: drift detector, sample-stride tick, exploration
//     draw counter, and launch, exploration and veto counts.
//
// No code calls into the OnlineTuner while holding the mutex. The draw
// counter and the incarnation tag are atomics, so an Adapt launch whose draw
// yields no candidate takes the lock only once, to observe its runtime.
// Contexts are never destroyed, so the OnlineTuner may keep pointers to
// every shard it has touched.
//
// Only OnlineTuner reads or writes the Adapt state. A shard is tagged with
// the tuner configuration ("incarnation") that last used it; a shard carrying
// a stale tag is reset on its next use, its evidence table included, so
// reconfiguring or recreating the tuner needs no walk over every kernel.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "online/drift_detector.hpp"
#include "online/evidence_table.hpp"

namespace apollo::online {

class KernelShard {
public:
  /// `loop_id` must outlive the shard (it is the owning context's name);
  /// `stream` seeds the kernel's exploration draws (Explorer::draw).
  KernelShard(const std::string& loop_id, std::uint64_t stream) noexcept
      : loop_id_(loop_id), stream_(stream) {}
  KernelShard(const KernelShard&) = delete;
  KernelShard& operator=(const KernelShard&) = delete;

  [[nodiscard]] const std::string& loop_id() const noexcept { return loop_id_; }

  /// The kernel's one mutex.
  [[nodiscard]] std::mutex& mutex() noexcept { return mutex_; }

  /// Fold one finished launch into the evidence table and return its
  /// bucket's best. With `score` (a model-chosen launch, telemetry on), the
  /// launch is also scored into the quality totals; explored launches
  /// refresh evidence only. Requires mutex().
  BestVariant observe_locked(std::uint64_t bucket, std::uint64_t variant, double seconds,
                             bool score) {
    const BestVariant best = evidence_.observe(bucket, variant, seconds);
    if (score) quality_.score(variant, seconds, best);
    return best;
  }
  /// Fold one ground-truth probe (`variant` timed for this launch's bucket
  /// but not executed) into the table and count it. Requires mutex().
  void probe_locked(std::uint64_t bucket, std::uint64_t variant, double seconds) {
    evidence_.observe(bucket, variant, seconds);
    quality_.probes += 1;
  }

  /// Requires mutex().
  [[nodiscard]] const EvidenceTable& evidence_locked() const noexcept { return evidence_; }
  [[nodiscard]] KernelQuality& quality_locked() noexcept { return quality_; }
  /// Forget the evidence and the quality totals. Requires mutex().
  void clear_evidence_locked() noexcept {
    evidence_.clear();
    quality_ = KernelQuality{};
  }

private:
  friend class OnlineTuner;

  // Launches of one kernel from different threads pass these fields from
  // core to core, so the layout keeps what every Adapt launch touches in
  // four cache lines and apart from what it only reads: the first line
  // holds the mutex and the table's bucket cache (written on a bucket
  // change), the second only fields a launch reads (begin() checks the
  // incarnation and the stream without the lock), the third and fourth the
  // detector and the counters. The quality totals, written only with
  // telemetry on, come last.
  std::mutex mutex_;
  EvidenceTable evidence_;  ///< mutex_
  const std::string& loop_id_;
  const std::uint64_t stream_;
  /// Configuration that last reset the shard (0 = never used). Stored under
  /// mutex_ after the reset, so a reader that sees it current sees the reset.
  std::atomic<std::uint64_t> incarnation_{0};
  DriftDetector detector_;  ///< mutex_
  /// Exploration draws taken; a launch claims its index without the lock.
  std::atomic<std::uint64_t> draws_{0};
  std::uint64_t record_tick_ = 0;          ///< mutex_
  std::uint64_t launches_ = 0;             ///< mutex_
  std::uint64_t explorations_ = 0;         ///< mutex_
  std::uint64_t vetoes_ = 0;               ///< mutex_
  /// Launches not yet added to the tuner's retrain-cadence count.
  std::uint64_t cadence_unflushed_ = 0;    ///< mutex_
  KernelQuality quality_;                  ///< mutex_
};

}  // namespace apollo::online
