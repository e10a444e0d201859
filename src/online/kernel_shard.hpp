#pragma once

// One kernel's share of the Mode::Adapt bookkeeping: its drift detector, its
// sample-stride tick, its exploration draw counter, and its launch,
// exploration and veto counts. The shard is embedded in the kernel's
// KernelContext and guarded by its own mutex, so Adapt launches of different
// kernels never share a lock or a counter, and launches of one kernel contend
// only with each other. The draw counter and the incarnation tag are atomics,
// so a launch whose draw yields no candidate takes the lock only once, to
// observe its runtime. Contexts are never destroyed, so the OnlineTuner may
// keep pointers to every shard it has touched.
//
// Only OnlineTuner reads or writes the state. A shard is tagged with the
// tuner configuration ("incarnation") that last used it; a shard carrying a
// stale tag is reset on its next use, so reconfiguring or recreating the
// tuner needs no walk over every kernel.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "online/drift_detector.hpp"

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

private:
  friend class OnlineTuner;

  const std::string& loop_id_;
  const std::uint64_t stream_;

  std::mutex mutex_;
  /// Configuration that last reset the shard (0 = never used). Stored under
  /// mutex_ after the reset, so a reader that sees it current sees the reset.
  std::atomic<std::uint64_t> incarnation_{0};
  std::optional<DriftDetector> detector_;  ///< mutex_
  /// Exploration draws taken; a launch claims its index without the lock.
  std::atomic<std::uint64_t> draws_{0};
  std::uint64_t record_tick_ = 0;          ///< mutex_
  std::uint64_t launches_ = 0;             ///< mutex_
  std::uint64_t explorations_ = 0;         ///< mutex_
  std::uint64_t vetoes_ = 0;               ///< mutex_
  /// Launches not yet added to the tuner's retrain-cadence count.
  std::uint64_t cadence_unflushed_ = 0;    ///< mutex_
};

}  // namespace apollo::online
