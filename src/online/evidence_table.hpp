#pragma once

// One kernel's measured evidence: a decayed runtime per (feature bucket,
// executed variant), fed by every tuned launch and every ground-truth probe
// of the kernel. Apollo labels each launch shape with its fastest variant
// and judges the tuner against that oracle (§III-B, Fig. 11); this table is
// the live form of that oracle, and everything that asks "which variant is
// best here, and by how much?" reads it:
//
//   - quality accounting scores each model-chosen launch against the
//     bucket's best (KernelQuality below);
//   - drift detection feeds the chosen launch's relative regret against the
//     same best into its window (DriftDetector);
//   - the explorer's cost guard vetoes a candidate whose baseline is far
//     above the bucket's best (OnlineTuner::maybe_explore).
//
// Thread-safety: externally synchronized. The table lives in the kernel's
// online::KernelShard, under that kernel's one mutex.

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace apollo::online {

/// A bucket's fastest known variant: its decayed runtime and its key.
struct BestVariant {
  double seconds = -1.0;
  std::uint64_t variant = 0;
};

class EvidenceTable {
public:
  /// EWMA weight of each new measurement.
  static constexpr double kAlpha = 0.25;

  /// Fold one measured runtime into (bucket, variant)'s decayed runtime and
  /// return the bucket's best afterwards. Ties go to the first-seen variant.
  BestVariant observe(std::uint64_t bucket, std::uint64_t variant, double seconds);

  /// One variant's decayed runtime in a bucket (< 0 when unseen).
  [[nodiscard]] double baseline(std::uint64_t bucket, std::uint64_t variant) const;
  /// The bucket's best decayed runtime (< 0 when the bucket is empty).
  [[nodiscard]] double best(std::uint64_t bucket) const;

  void clear() noexcept;

private:
  struct Entry {
    std::uint64_t variant = 0;
    double seconds = 0.0;
  };
  /// A bucket sees a handful of variants, in first-seen order: a linear scan
  /// beats a nested hash map at that size.
  using Bucket = std::vector<Entry>;

  using Map = std::unordered_map<std::uint64_t, Bucket>;

  [[nodiscard]] const Bucket* find(std::uint64_t bucket) const;

  /// One-entry bucket cache: steady phases launch the same sizes, so the
  /// per-launch hash lookup is almost always an integer compare. Map nodes
  /// never move, so the pointer survives rehashing. The only field a launch
  /// writes, declared first (see KernelShard's layout).
  Map::value_type* last_ = nullptr;
  Map buckets_;
};

/// Model-quality totals for one kernel, scored from its evidence table.
struct KernelQuality {
  std::uint64_t launches = 0;     ///< model-chosen launches scored
  std::uint64_t agreements = 0;   ///< ... whose variant was the bucket's best
  std::uint64_t probes = 0;       ///< ground-truth probes of this kernel
  double regret_seconds = 0.0;    ///< cumulative observed - best-known seconds
  double predicted_seconds = 0.0; ///< calibration sample sums
  double observed_seconds = 0.0;
  std::uint64_t calibration_samples = 0;

  /// Score one model-chosen launch of `variant` that ran `seconds`, against
  /// the best its own observe returned.
  void score(std::uint64_t variant, double seconds, const BestVariant& best) noexcept {
    launches += 1;
    if (best.variant == variant) agreements += 1;
    if (seconds > best.seconds) regret_seconds += seconds - best.seconds;
  }
  /// Feed one predicted-vs-observed pair (introspection-sampled launches).
  void calibrate(double predicted, double observed) noexcept {
    predicted_seconds += predicted;
    observed_seconds += observed;
    calibration_samples += 1;
  }

  /// Share of scored launches that matched the best-known variant (1 when
  /// nothing has been scored: no evidence of a better choice).
  [[nodiscard]] double accuracy() const noexcept {
    return launches > 0 ? static_cast<double>(agreements) / static_cast<double>(launches) : 1.0;
  }
  /// Predicted/observed runtime ratio over calibration samples (0 = none).
  [[nodiscard]] double calibration() const noexcept {
    return observed_seconds > 0.0 ? predicted_seconds / observed_seconds : 0.0;
  }
};

}  // namespace apollo::online
