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
//   - the Mode::Adapt state: drift detector, and launch, exploration and
//     veto counts.
//
// Mode::Adapt launches reach that state through lanes: one per thread slot
// (par::thread_slot), each behind its own mutex, which up to kThreadSlots
// live threads only their owner takes. A lane holds its thread's
// sample-stride tick and up to kLaneBatch finished launches; when it fills,
// the batch is folded in launch order, under the kernel's mutex, into the
// evidence table, the drift detector and the launch counts. So a predicted
// or explored Adapt launch takes the kernel's mutex on one launch in
// kLaneBatch, and readers of the folded state fold every lane first
// (OnlineTuner::fold_lanes). Two per-kernel words stay shared by every
// launch: the exploration draw counter here and the context's noise-id
// counter, so a kernel's n-th draw and n-th noise sample do not depend on
// which thread takes them.
//
// No code calls into the OnlineTuner while holding the mutex. Contexts are
// never destroyed, so the OnlineTuner may keep pointers to every shard it
// has touched.
//
// Only OnlineTuner reads or writes the Adapt state. A shard, and each of its
// lanes, is tagged with the tuner configuration ("incarnation") that last
// used it; one carrying a stale tag is reset on its next use, the shard's
// evidence table included, so reconfiguring or recreating the tuner needs no
// walk over every kernel or lane.

#include <atomic>
#include <cstdint>
#include <memory>
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
      : stream_(stream), loop_id_(loop_id) {}
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

  /// Finished launches a lane holds before it folds them into the shard.
  static constexpr std::uint32_t kLaneBatch = 16;

  /// One finished Adapt launch waiting in a lane.
  struct LaneLaunch {
    std::uint64_t bucket = 0;
    std::uint64_t variant = 0;
    double seconds = 0.0;
    bool explored = false;
    bool score = false;  ///< score its quality (telemetry on)
  };
  /// One thread slot's share of the kernel's Adapt bookkeeping, on its own
  /// cache lines.
  struct alignas(64) Lane {
    std::mutex mutex;
    std::uint64_t incarnation = 0;   ///< mutex; configuration that last reset it
    std::uint64_t record_tick = 0;   ///< mutex; predicted launches seen
    std::uint32_t pending = 0;       ///< mutex; launches not yet folded
    LaneLaunch launches[kLaneBatch];  ///< mutex
  };

  // Launches of one kernel from different threads pass these fields from
  // core to core, so the layout keeps them apart by how a launch uses them.
  // The mutex and the evidence table come first (the table's bucket cache,
  // which a fold writes on a bucket change, shares the mutex's line), then
  // the fields every Adapt launch only reads: begin() and end() check the
  // incarnation and find their lane without the lock. The draw counter,
  // which every Adapt launch writes, starts a line of its own, followed by
  // the detector and the counters folds write. The quality totals, written
  // only with telemetry on, come last.
  std::mutex mutex_;
  EvidenceTable evidence_;  ///< mutex_
  const std::uint64_t stream_;
  /// Configuration that last reset the shard (0 = never used). Stored under
  /// mutex_ after the reset, so a reader that sees it current sees the reset
  /// and the lanes.
  std::atomic<std::uint64_t> incarnation_{0};
  /// One lane per thread slot, allocated when the shard is first attached
  /// (a kernel never launched in Mode::Adapt carries none). Set once under
  /// mutex_ before the first incarnation store; read after seeing the shard
  /// current, or through the tuner's list of attached shards.
  std::unique_ptr<Lane[]> lanes_;
  /// Exploration draws taken; a launch claims its index without the lock.
  alignas(64) std::atomic<std::uint64_t> draws_{0};
  DriftDetector detector_;  ///< mutex_
  const std::string& loop_id_;
  std::uint64_t launches_ = 0;             ///< mutex_
  std::uint64_t explorations_ = 0;         ///< mutex_
  std::uint64_t vetoes_ = 0;               ///< mutex_
  KernelQuality quality_;                  ///< mutex_
};

}  // namespace apollo::online
