#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace apollo::telemetry {

Histogram::Histogram(std::vector<double> upper_bounds) : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0, std::memory_order_relaxed);
}

Histogram::Histogram(const Histogram& other) { *this = other; }

Histogram& Histogram::operator=(const Histogram& other) {
  if (this == &other) return *this;
  bounds_ = other.bounds_;
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(other.buckets_ ? other.buckets_[i].load(std::memory_order_relaxed) : 0,
                      std::memory_order_relaxed);
  }
  count_.store(other.count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  sum_.store(other.sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return *this;
}

void Histogram::observe(double value) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  if (!buckets_) return;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(1,
                                                                     std::memory_order_relaxed);
}

void Histogram::merge(const Histogram& other) noexcept {
  count_.fetch_add(other.count(), std::memory_order_relaxed);
  sum_.fetch_add(other.sum(), std::memory_order_relaxed);
  if (!buckets_ || !other.buckets_ || bounds_ != other.bounds_) return;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].fetch_add(other.bucket(i), std::memory_order_relaxed);
  }
}

double Histogram::quantile(double q) const noexcept {
  const std::uint64_t total = count();
  if (total == 0 || bounds_.empty() || !buckets_) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double target = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    const std::uint64_t in_bucket = buckets_[i].load(std::memory_order_relaxed);
    if (in_bucket == 0) continue;
    if (static_cast<double>(cumulative + in_bucket) >= target) {
      if (i == bounds_.size()) return bounds_.back();  // overflow bucket: clamp
      const double lo = i == 0 ? 0.0 : bounds_[i - 1];
      const double hi = bounds_[i];
      const double within = (target - static_cast<double>(cumulative)) /
                            static_cast<double>(in_bucket);
      return lo + (hi - lo) * std::min(1.0, std::max(0.0, within));
    }
    cumulative += in_bucket;
  }
  return bounds_.back();
}

void Histogram::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  if (!buckets_) return;
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0, std::memory_order_relaxed);
}

std::vector<double> exponential_bounds(double first, double factor, int n) {
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(n));
  double bound = first;
  for (int i = 0; i < n; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

const std::vector<double>& duration_bounds() {
  static const std::vector<double> bounds =
      exponential_bounds(1e-9, 2.0, static_cast<int>(kDurationBounds));
  return bounds;
}

void DurationCounts::observe(double seconds) noexcept {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(seconds, std::memory_order_relaxed);
  const auto& bounds = duration_bounds();
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), seconds);
  buckets_[static_cast<std::size_t>(it - bounds.begin())].fetch_add(1,
                                                                    std::memory_order_relaxed);
}

void DurationCounts::add_to(Histogram& out) const noexcept {
  out.count_.fetch_add(count_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  out.sum_.fetch_add(sum_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  if (!out.buckets_ || out.bounds_ != duration_bounds()) return;
  for (std::size_t i = 0; i <= kDurationBounds; ++i) {
    out.buckets_[i].fetch_add(buckets_[i].load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
  }
}

void DurationCounts::reset() noexcept {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::Family& MetricsRegistry::family_locked(std::string_view name,
                                                        std::string_view help, MetricKind kind) {
  auto it = families_.find(std::string(name));
  if (it == families_.end()) {
    Family family;
    family.kind = kind;
    family.help = std::string(help);
    it = families_.emplace(std::string(name), std::move(family)).first;
  } else if (it->second.kind != kind) {
    throw std::logic_error("MetricsRegistry: kind mismatch for metric " + std::string(name));
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  std::string_view labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series = family_locked(name, help, MetricKind::Counter).series[std::string(labels)];
  if (!series.counter) series.counter = std::make_unique<Counter>();
  return *series.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              std::string_view labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series = family_locked(name, help, MetricKind::Gauge).series[std::string(labels)];
  if (!series.gauge) series.gauge = std::make_unique<Gauge>();
  return *series.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                      const std::vector<double>& upper_bounds,
                                      std::string_view labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Series& series = family_locked(name, help, MetricKind::Histogram).series[std::string(labels)];
  if (!series.histogram) series.histogram = std::make_unique<Histogram>(upper_bounds);
  return *series.histogram;
}

namespace {

std::string format_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// `name{labels}` or `name{labels,extra}` with empty pieces elided.
std::string series_name(const std::string& name, const std::string& labels,
                        const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return name;
  std::string out = name + "{" + labels;
  if (!labels.empty() && !extra.empty()) out += ",";
  out += extra + "}";
  return out;
}

}  // namespace

void MetricsSnapshot::write(std::ostream& out) const {
  const std::string* last_name = nullptr;
  for (const auto& s : series) {
    if (last_name == nullptr || *last_name != s.name) {
      if (!s.help.empty()) out << "# HELP " << s.name << " " << s.help << "\n";
      out << "# TYPE " << s.name << " "
          << (s.kind == MetricKind::Counter ? "counter"
              : s.kind == MetricKind::Gauge ? "gauge"
                                            : "histogram")
          << "\n";
      last_name = &s.name;
    }
    switch (s.kind) {
      case MetricKind::Counter:
        out << series_name(s.name, s.labels) << " " << s.counter_value << "\n";
        break;
      case MetricKind::Gauge:
        out << series_name(s.name, s.labels) << " " << format_number(s.gauge_value) << "\n";
        break;
      case MetricKind::Histogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < s.hist_bounds.size(); ++i) {
          if (i < s.hist_buckets.size()) cumulative += s.hist_buckets[i];
          out << series_name(s.name + "_bucket", s.labels,
                             "le=\"" + format_number(s.hist_bounds[i]) + "\"")
              << " " << cumulative << "\n";
        }
        out << series_name(s.name + "_bucket", s.labels, "le=\"+Inf\"") << " " << s.hist_count
            << "\n";
        out << series_name(s.name + "_sum", s.labels) << " " << format_number(s.hist_sum) << "\n";
        out << series_name(s.name + "_count", s.labels) << " " << s.hist_count << "\n";
        break;
      }
    }
  }
}

void write_file_atomically(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("telemetry: cannot open " + tmp);
    out << text;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("telemetry: cannot rename " + tmp + " to " + path);
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, family] : families_) {
    for (const auto& [labels, series] : family.series) {
      SeriesSnapshot s;
      s.name = name;
      s.labels = labels;
      s.help = family.help;
      s.kind = family.kind;
      switch (family.kind) {
        case MetricKind::Counter:
          s.counter_value = series.counter->value();
          break;
        case MetricKind::Gauge:
          s.gauge_value = series.gauge->value();
          break;
        case MetricKind::Histogram: {
          const Histogram& hist = *series.histogram;
          s.hist_bounds = hist.bounds();
          s.hist_buckets.reserve(s.hist_bounds.size() + 1);
          for (std::size_t i = 0; i <= s.hist_bounds.size(); ++i) {
            s.hist_buckets.push_back(hist.bucket(i));
          }
          s.hist_count = hist.count();
          s.hist_sum = hist.sum();
          break;
        }
      }
      // families_/series maps iterate sorted, so out.series stays sorted.
      out.series.push_back(std::move(s));
    }
  }
  return out;
}

void MetricsRegistry::write(std::ostream& out) const { snapshot().write(out); }

std::string MetricsRegistry::expose() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

void MetricsRegistry::write_file(const std::string& path) const {
  write_file_atomically(path, expose());
}

void MetricsRegistry::zero() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, family] : families_) {
    (void)name;
    for (auto& [labels, series] : family.series) {
      (void)labels;
      if (series.counter) series.counter->reset();
      if (series.gauge) series.gauge->reset();
      if (series.histogram) series.histogram->reset();
    }
  }
}

std::size_t MetricsRegistry::series_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t count = 0;
  for (const auto& [name, family] : families_) {
    (void)name;
    count += family.series.size();
  }
  return count;
}

}  // namespace apollo::telemetry
