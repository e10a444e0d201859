#pragma once

// Prometheus-style metrics as values. Nothing here keeps a number: every
// apollo_* series is rendered at export time, into a MetricsSnapshot, from
// the object that already owns it (Runtime::render_metrics), and the
// snapshot is written in the text exposition format. The histogram types
// below are what owners keep their distributions in; their updates are
// relaxed atomics, so threads sharing one are counted exactly.
//
// parse_sample_line reads one line of that format back (apollo_top), and
// rejects a damaged line instead of misreading it.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace apollo::telemetry {

/// Fixed-bucket histogram. Buckets are cumulative-upper-bound style at export
/// time ("le"); internally each atomic slot counts one [lo, hi) interval plus
/// an overflow slot. Copyable (relaxed snapshot) so it can live inside
/// value-semantic stats structs.
class Histogram {
public:
  Histogram() = default;  ///< no buckets; observe() still tracks count/sum
  explicit Histogram(std::vector<double> upper_bounds);
  Histogram(const Histogram& other);
  Histogram& operator=(const Histogram& other);

  void observe(double value) noexcept;

  /// Add `other`'s events into this histogram (relaxed reads of `other`, so
  /// it may be observed concurrently). Buckets merge only when the bounds
  /// match; count and sum always do.
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Events in bucket `i` (bounds().size() = overflow bucket).
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Estimated value at quantile q in [0, 1], interpolated linearly inside
  /// the containing bucket. 0 when empty; clamped to the last finite bound
  /// for observations in the overflow bucket.
  [[nodiscard]] double quantile(double q) const noexcept;

  void reset() noexcept;

private:
  friend class DurationCounts;

  std::vector<double> bounds_;  ///< ascending upper bounds (finite)
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// `n` bounds starting at `first`, each `factor` times the previous.
[[nodiscard]] std::vector<double> exponential_bounds(double first, double factor, int n);
/// Number of duration_bounds().
inline constexpr std::size_t kDurationBounds = 36;
/// Shared bounds for second-valued durations: 1 ns .. ~34 s, powers of two.
[[nodiscard]] const std::vector<double>& duration_bounds();

/// The counts of a duration_bounds() histogram without a copy of the bounds:
/// small enough to keep one per thread stripe of a per-kernel statistic.
/// Updates are relaxed atomics, so threads sharing one are counted exactly.
class DurationCounts {
public:
  void observe(double seconds) noexcept;
  /// Add these counts into `out` (count and sum always; buckets when `out`
  /// is built on duration_bounds()).
  void add_to(Histogram& out) const noexcept;
  void reset() noexcept;

private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<std::uint64_t> buckets_[kDurationBounds + 1]{};  ///< last = overflow
};

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram };

/// One series' value at export time. Counters keep their exact integer
/// value; histograms carry bounds + per-bucket counts.
struct SeriesSnapshot {
  std::string name;
  std::string labels;  ///< rendered label body (label_pair, comma-joined; "" for unlabeled)
  std::string help;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
  std::vector<double> hist_bounds;           ///< ascending finite upper bounds
  std::vector<std::uint64_t> hist_buckets;   ///< hist_bounds.size() + 1 (overflow last)
};

/// The series of one export, added in any order. A family's `help` is that
/// of its first-added series.
struct MetricsSnapshot {
  std::vector<SeriesSnapshot> series;

  void add_counter(std::string_view name, std::string_view help, std::string labels,
                   std::uint64_t value);
  void add_gauge(std::string_view name, std::string_view help, std::string labels, double value);
  /// Copies `hist`'s count, sum and buckets (relaxed reads).
  void add_histogram(std::string_view name, std::string_view help, std::string labels,
                     const Histogram& hist);

  /// Prometheus text exposition: families sorted by name, series by labels.
  void write(std::ostream& out) const;
  [[nodiscard]] std::string text() const;

private:
  SeriesSnapshot& add(std::string_view name, std::string_view help, std::string labels,
                      MetricKind kind);
};

/// `key="value"` with the value escaped for the exposition (backslash,
/// double quote and newline), ready to join into SeriesSnapshot::labels.
[[nodiscard]] std::string label_pair(std::string_view key, std::string_view value);

/// One sample line of a text exposition.
struct MetricSample {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;  ///< line order, unescaped
  double value = 0.0;

  /// The value of label `key` ("" when absent).
  [[nodiscard]] std::string_view label(std::string_view key) const noexcept;
};

/// Parse one sample line, `name{key="value",...} value` with the label set
/// optional. nullopt for a comment or blank line, and for a damaged one: a
/// name that is not a metric name, a label that is not `key="value"` (valid
/// key, escaped value, one comma between labels, none after the last), a
/// repeated key, a missing value, or a value followed by anything.
[[nodiscard]] std::optional<MetricSample> parse_sample_line(std::string_view line);

/// The exposition line of `sample`; parse_sample_line reads it back.
[[nodiscard]] std::string format_sample_line(const MetricSample& sample);

/// Write `text` to `path` atomically (temp file + rename), so a reader
/// tailing the path never sees a torn file. Throws std::runtime_error on I/O
/// failure. Every live export file goes through here.
void write_file_atomically(const std::string& path, std::string_view text);

}  // namespace apollo::telemetry
