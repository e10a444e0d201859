#pragma once

// Online model-quality accounting: "how good are the tuner's decisions,
// right now, in seconds?" The paper evaluates model accuracy and speedup
// offline (Table II, Fig. 11); a deployed tuner needs the same answers live.
// Per kernel, the accountant tracks:
//
//   accuracy     — the fraction of model-chosen launches whose executed
//                  variant matches the best-known variant for that launch's
//                  feature bucket;
//   regret       — cumulative seconds lost versus the best-known variant
//                  (observed minus best baseline, summed), the live analogue
//                  of the paper's speedup-vs-oracle comparison;
//   calibration  — ratio of predicted (machine-model) to observed runtime
//                  over the introspection-sampled launches.
//
// "Best known" comes from decayed per-(bucket, variant) runtime baselines fed
// by every tuned launch plus budgeted *ground-truth probes*: every Nth tuned
// launch (counted process-wide by the Runtime) additionally times one
// alternative variant (round-robin), so buckets
// keep fresh evidence for variants the model never picks. Probe measurements
// are shared with the online-adaptation loop — they land in the SampleBuffer
// as retraining data and refresh the DriftDetector baselines — so the same
// budget buys quality accounting, drift evidence, and training coverage.
//
// Thread-safety: externally synchronized. The Runtime drives the accountant
// under its stats mutex; standalone users (tests, replay) are single-threaded.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace apollo::telemetry {

struct QualityConfig {
  /// EWMA weight for per-(bucket, variant) runtime baselines.
  double baseline_alpha = 0.25;
};

/// Aggregate quality counters for one kernel.
struct KernelQuality {
  std::uint64_t launches = 0;     ///< model-chosen launches scored
  std::uint64_t agreements = 0;   ///< ... whose variant matched the best known
  std::uint64_t probes = 0;       ///< ground-truth probes charged to this kernel
  double regret_seconds = 0.0;    ///< cumulative observed - best-known seconds
  double predicted_seconds = 0.0; ///< calibration sample sums
  double observed_seconds = 0.0;
  std::uint64_t calibration_samples = 0;

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

class QualityAccountant {
public:
  explicit QualityAccountant(QualityConfig config = {});

  /// Replace the configuration; existing baselines and counters are kept.
  void configure(QualityConfig config);
  [[nodiscard]] const QualityConfig& config() const noexcept { return config_; }

  /// Score one finished tuned launch. `chosen` is false for launches whose
  /// executed variant was substituted (exploration): those refresh the
  /// baseline evidence but are not the model's decision to score. Returns the
  /// regret seconds charged (0 for unscored or best-choice launches).
  double observe_choice(const std::string& kernel, std::uint64_t bucket, std::uint64_t variant,
                        double seconds, bool chosen);

  /// Record a ground-truth probe: `variant` was *not* executed for the
  /// application, but its runtime was measured for this launch's bucket.
  void record_probe(const std::string& kernel, std::uint64_t bucket, std::uint64_t variant,
                    double seconds);

  /// Feed one predicted-vs-observed pair (introspection-sampled launches).
  void observe_calibration(const std::string& kernel, double predicted_seconds,
                           double observed_seconds);

  /// Best-known decayed runtime in one kernel's bucket (< 0 when empty), and
  /// one variant's baseline (< 0 when unseen). For tests and replay.
  [[nodiscard]] double baseline(const std::string& kernel, std::uint64_t bucket,
                                std::uint64_t variant) const;
  [[nodiscard]] double best_baseline(const std::string& kernel, std::uint64_t bucket) const;

  [[nodiscard]] const KernelQuality* kernel(const std::string& loop_id) const;
  /// Copy of every kernel's counters, sorted by kernel name.
  [[nodiscard]] std::vector<std::pair<std::string, KernelQuality>> snapshot() const;

  [[nodiscard]] std::uint64_t total_probes() const noexcept { return total_probes_; }
  [[nodiscard]] double total_regret_seconds() const noexcept { return total_regret_; }

  void clear();

private:
  struct Ewma {
    double value = 0.0;
    bool seeded = false;
  };
  /// Per-bucket variant baselines: tiny linear-scanned vector — a bucket sees
  /// a handful of variants, and a scan beats a nested hash map at that size.
  struct Bucket {
    std::vector<std::pair<std::uint64_t, Ewma>> variants;
  };
  struct KernelState {
    KernelQuality totals;
    std::unordered_map<std::uint64_t, Bucket> buckets;
    /// One-entry bucket cache: steady phases launch the same sizes, so the
    /// per-launch hash lookup is almost always an integer compare.
    std::uint64_t last_bucket_key = 0;
    Bucket* last_bucket = nullptr;
  };

  Ewma& ewma_for(Bucket& bucket, std::uint64_t variant);
  void update_baseline(Bucket& bucket, std::uint64_t variant, double seconds);
  KernelState& state_for(const std::string& kernel);
  Bucket& bucket_for(KernelState& state, std::uint64_t bucket_key);

  QualityConfig config_;
  std::map<std::string, KernelState> kernels_;
  /// One-entry lookup cache: launch streams repeat the same kernel, so the
  /// per-launch map lookup is almost always a single string compare. Mutable
  /// so the const accessors share it. Node-based map: addresses are stable.
  mutable const std::string* last_key_ = nullptr;
  mutable KernelState* last_state_ = nullptr;
  std::uint64_t total_probes_ = 0;
  double total_regret_ = 0.0;
};

}  // namespace apollo::telemetry
