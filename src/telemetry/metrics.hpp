#pragma once

// Prometheus-style metrics: counters, gauges, and fixed-bucket histograms,
// collected in a process-wide registry and exported in the text exposition
// format (to a file, or to stdout at exit). Updates are single atomic
// operations — contention-free on the hot path — and call sites cache the
// returned handle so the registry lookup (name + label hash under a mutex)
// is paid once per series, not per event.
//
// Handles returned by the registry stay valid for the process lifetime:
// series are never removed. zero() resets values in place for tests and
// benchmarks without invalidating cached pointers.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace apollo::telemetry {

class Counter {
public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept { value_.fetch_add(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

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

/// One series' values frozen at snapshot time. Counters keep their exact
/// integer value; histograms carry bounds + per-bucket counts.
struct SeriesSnapshot {
  std::string name;
  std::string labels;  ///< pre-rendered label body ("" for unlabeled)
  std::string help;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::uint64_t hist_count = 0;
  double hist_sum = 0.0;
  std::vector<double> hist_bounds;           ///< ascending finite upper bounds
  std::vector<std::uint64_t> hist_buckets;   ///< hist_bounds.size() + 1 (overflow last)
};

/// A value-semantic copy of a registry's series, sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<SeriesSnapshot> series;

  /// Prometheus text exposition, same format as MetricsRegistry::write.
  void write(std::ostream& out) const;
};

/// Write `text` to `path` atomically (temp file + rename), so a reader
/// tailing the path never sees a torn file. Throws std::runtime_error on I/O
/// failure. Every live export file goes through here.
void write_file_atomically(const std::string& path, std::string_view text);

class MetricsRegistry {
public:
  static MetricsRegistry& instance();

  /// A standalone registry keeps its series apart from the process-wide one;
  /// production code uses instance().
  MetricsRegistry() = default;

  /// Find-or-create a series. `labels` is the pre-rendered label body, e.g.
  /// `kernel="lulesh:foo",variant="omp"` ("" for an unlabeled series); the
  /// registry treats it as an opaque key. `help` is kept from the first call
  /// that creates the family. A name registered as one kind throws
  /// std::logic_error when requested as another.
  Counter& counter(std::string_view name, std::string_view help, std::string_view labels = "");
  Gauge& gauge(std::string_view name, std::string_view help, std::string_view labels = "");
  Histogram& histogram(std::string_view name, std::string_view help,
                       const std::vector<double>& upper_bounds, std::string_view labels = "");

  /// Prometheus text exposition of every series (families sorted by name).
  [[nodiscard]] std::string expose() const;
  void write(std::ostream& out) const;
  /// Atomic file export (write_file_atomically).
  void write_file(const std::string& path) const;

  /// Freeze every series' current value (relaxed loads; a snapshot taken
  /// concurrently with updates sees each value at some point in the update
  /// order). The snapshot owns its strings.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Reset every value in place. Handles stay valid.
  void zero();

  [[nodiscard]] std::size_t series_count() const;

private:
  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricKind kind = MetricKind::Counter;
    std::string help;
    std::map<std::string, Series> series;  ///< keyed by label body
  };

  Family& family_locked(std::string_view name, std::string_view help, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Family> families_;
};

}  // namespace apollo::telemetry
