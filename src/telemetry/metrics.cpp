#include "telemetry/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
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
  // Never destroyed: ~Runtime runs the exit export, which renders duration
  // histograms, after function-local statics built later are gone.
  static const auto* bounds =
      new std::vector<double>(exponential_bounds(1e-9, 2.0, static_cast<int>(kDurationBounds)));
  return *bounds;
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

/// Length of the name (metric name with `colon`, else label name) that
/// starts `text`; 0 when none does.
std::size_t name_length(std::string_view text, bool colon) {
  std::size_t n = 0;
  for (const char c : text) {
    const bool letter = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (!letter && !(colon && c == ':') && (n == 0 || c < '0' || c > '9')) break;
    ++n;
  }
  return n;
}

}  // namespace

void MetricsSnapshot::add_counter(std::string_view name, std::string_view help,
                                  std::string labels, std::uint64_t value) {
  add(name, help, std::move(labels), MetricKind::Counter).counter_value = value;
}

void MetricsSnapshot::add_gauge(std::string_view name, std::string_view help, std::string labels,
                                double value) {
  add(name, help, std::move(labels), MetricKind::Gauge).gauge_value = value;
}

void MetricsSnapshot::add_histogram(std::string_view name, std::string_view help,
                                    std::string labels, const Histogram& hist) {
  SeriesSnapshot& s = add(name, help, std::move(labels), MetricKind::Histogram);
  s.hist_bounds = hist.bounds();
  for (std::size_t i = 0; !s.hist_bounds.empty() && i <= s.hist_bounds.size(); ++i) {
    s.hist_buckets.push_back(hist.bucket(i));  // a histogram without bounds has no buckets
  }
  s.hist_count = hist.count();
  s.hist_sum = hist.sum();
}

SeriesSnapshot& MetricsSnapshot::add(std::string_view name, std::string_view help,
                                     std::string labels, MetricKind kind) {
  SeriesSnapshot& s = series.emplace_back();
  s.name = std::string(name);
  s.labels = std::move(labels);
  s.help = std::string(help);
  s.kind = kind;
  return s;
}

void MetricsSnapshot::write(std::ostream& out) const {
  std::map<std::string_view, std::string_view> help;  ///< first-added series' help
  std::vector<const SeriesSnapshot*> sorted;
  sorted.reserve(series.size());
  for (const auto& s : series) {
    help.emplace(s.name, s.help);
    sorted.push_back(&s);
  }
  std::stable_sort(sorted.begin(), sorted.end(), [](const auto* a, const auto* b) {
    return a->name != b->name ? a->name < b->name : a->labels < b->labels;
  });
  const std::string* last_name = nullptr;
  for (const SeriesSnapshot* series_ptr : sorted) {
    const SeriesSnapshot& s = *series_ptr;
    if (last_name == nullptr || *last_name != s.name) {
      if (const std::string_view text = help[s.name]; !text.empty()) {
        out << "# HELP " << s.name << " " << text << "\n";
      }
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

std::string MetricsSnapshot::text() const {
  std::ostringstream out;
  write(out);
  return out.str();
}

std::string label_pair(std::string_view key, std::string_view value) {
  std::string out(key);
  out += "=\"";
  for (const char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string_view MetricSample::label(std::string_view key) const noexcept {
  for (const auto& [k, v] : labels) {
    if (k == key) return v;
  }
  return {};
}

std::optional<MetricSample> parse_sample_line(std::string_view line) {
  MetricSample sample;
  std::size_t pos = name_length(line, /*colon=*/true);
  if (pos == 0) return std::nullopt;  // comment, blank, or no metric name
  sample.name = std::string(line.substr(0, pos));
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      if (!sample.labels.empty()) {
        if (line[pos] != ',') return std::nullopt;
        ++pos;
      }
      const std::size_t key_length = name_length(line.substr(pos), /*colon=*/false);
      if (key_length == 0) return std::nullopt;
      std::string key(line.substr(pos, key_length));
      pos += key_length;
      if (line.substr(pos, 2) != "=\"") return std::nullopt;
      pos += 2;
      std::string value;
      while (pos < line.size() && line[pos] != '"') {
        char c = line[pos++];
        if (c == '\\') {
          c = pos < line.size() ? line[pos++] : '\0';
          if (c != '\\' && c != '"' && c != 'n') return std::nullopt;
          if (c == 'n') c = '\n';
        }
        value += c;
      }
      if (pos++ >= line.size()) return std::nullopt;  // unterminated value
      for (const auto& label : sample.labels) {
        if (label.first == key) return std::nullopt;
      }
      sample.labels.emplace_back(std::move(key), std::move(value));
    }
    if (pos >= line.size()) return std::nullopt;
    ++pos;  // '}'
  }
  // At least one blank, then a value that runs to the end of the line.
  const std::size_t value_start = line.find_first_not_of(" \t", pos);
  if (value_start == pos || value_start == std::string_view::npos) return std::nullopt;
  const char* first = line.data() + value_start;
  const char* last = line.data() + line.size();
  const auto [end, error] = std::from_chars(first, last, sample.value);
  if (error != std::errc{} || end != last) return std::nullopt;
  return sample;
}

std::string format_sample_line(const MetricSample& sample) {
  std::string labels;
  for (const auto& [key, value] : sample.labels) {
    if (!labels.empty()) labels += ',';
    labels += label_pair(key, value);
  }
  return series_name(sample.name, labels) + " " + format_number(sample.value);
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

}  // namespace apollo::telemetry
