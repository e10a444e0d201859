#pragma once

// Versioned model store with atomic hot-swap. The background Retrainer
// publishes a new immutable ModelSnapshot under a mutex; readers (the
// Runtime's begin hook, on the application thread) grab the current
// shared_ptr and keep predicting from a consistent model set even while the
// next version is being published. The version counter is an atomic so the
// hot path can detect "nothing changed" with a single relaxed load.
//
// Optional persistence writes every published version to a model directory
// (v000042.policy.model, v000042.chunk.model and a LATEST pointer file), so
// a crashed process restarts from its last good models instead of the
// factory ones — the paper's retrain-without-recompile property extended
// across process lifetimes.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/tuner_model.hpp"

namespace apollo::online {

/// One immutable published generation of tuning models.
struct ModelSnapshot {
  std::uint64_t version = 0;
  std::optional<TunerModel> policy;
  std::optional<TunerModel> chunk;

  [[nodiscard]] bool empty() const noexcept { return !policy && !chunk; }
};

class ModelRegistry {
public:
  ModelRegistry() = default;

  /// Enable persistence: every publish is also written to `dir` (created on
  /// demand). Pass "" to disable.
  void set_persist_dir(std::string dir);
  [[nodiscard]] std::string persist_dir() const;

  /// Monotonically increasing; 0 until the first publish. Safe to poll from
  /// any thread without taking the registry lock.
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }

  /// The current snapshot (nullptr before the first publish). The returned
  /// pointer stays valid and immutable regardless of later publishes.
  [[nodiscard]] std::shared_ptr<const ModelSnapshot> current() const;

  /// Publish a new generation and return its version. Parameters that are
  /// nullopt carry forward from the previous snapshot, so a policy-only
  /// retrain does not discard a still-deployed chunk model. A model fitted
  /// for another parameter than its slot, or with a label its parameter
  /// cannot name, throws std::invalid_argument and publishes nothing.
  std::uint64_t publish(std::optional<TunerModel> policy,
                        std::optional<TunerModel> chunk = std::nullopt);

  /// Restore the newest persisted generation from the persist dir. Returns
  /// the restored version, or 0 when the dir holds none. The restored
  /// snapshot keeps its persisted version number so a restarted process
  /// continues the sequence instead of re-publishing version 1. A persisted
  /// model publish would reject throws std::invalid_argument.
  std::uint64_t load_latest();

private:
  void persist_locked(const ModelSnapshot& snapshot) const;

  mutable std::mutex mutex_;
  std::shared_ptr<const ModelSnapshot> current_;
  std::atomic<std::uint64_t> version_{0};
  std::string dir_;
};

}  // namespace apollo::online
