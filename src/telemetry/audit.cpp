#include "telemetry/audit.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "telemetry/metrics.hpp"  // write_file_atomically

namespace apollo::telemetry {

namespace fs = std::filesystem;

namespace {

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// Consume `c` at line[pos].
bool skip(const std::string& line, std::size_t& pos, char c) {
  if (line[pos] != c) return false;
  ++pos;
  return true;
}

/// Read the JSON string literal at line[pos] (its opening quote), undoing
/// json_escape, and move pos past the closing quote. nullopt when the
/// literal is unterminated.
std::optional<std::string> read_string(const std::string& line, std::size_t& pos) {
  if (!skip(line, pos, '"')) return std::nullopt;
  std::string out;
  for (; pos < line.size(); ++pos) {
    char c = line[pos];
    if (c == '"') {
      ++pos;
      return out;
    }
    if (c == '\\') {
      if (++pos == line.size()) break;
      switch (line[pos]) {
        case 'n': c = '\n'; break;
        case 'r': c = '\r'; break;
        case 't': c = '\t'; break;
        case 'u':  // \u00XX: the control characters json_escape spells out
          if (pos + 4 >= line.size()) return std::nullopt;
          c = static_cast<char>(std::strtol(line.substr(pos + 1, 4).c_str(), nullptr, 16));
          pos += 4;
          break;
        default: c = line[pos];
      }
    }
    out += c;
  }
  return std::nullopt;
}

/// Read the number at line[pos] and move pos to the delimiter after it. A
/// number must end at `,`, `}` or `]` (optionally after whitespace), so
/// `0n5` is rejected rather than read as 0.
std::optional<double> read_number(const std::string& line, std::size_t& pos) {
  const char* start = line.c_str() + pos;
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  if (end == start) return std::nullopt;
  const std::size_t after =
      line.find_first_not_of(" \t", pos + static_cast<std::size_t>(end - start));
  constexpr std::string_view kDelimiters = ",}]";
  if (after == std::string::npos || kDelimiters.find(line[after]) == kDelimiters.npos) {
    return std::nullopt;
  }
  pos = after;
  return value;
}

/// Position just past `"key":`, or npos.
std::size_t value_at(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  return at == std::string::npos ? at : at + needle.size();
}

std::optional<std::string> string_field(const std::string& line, const std::string& key) {
  std::size_t pos = value_at(line, key);
  if (pos == std::string::npos) return std::nullopt;
  return read_string(line, pos);
}

std::optional<double> number_field(const std::string& line, const std::string& key) {
  std::size_t pos = value_at(line, key);
  if (pos == std::string::npos) return std::nullopt;
  return read_number(line, pos);
}

/// Parse the array value of `"key":[...]`, calling `element(pos)` at each
/// element's first character; it must move pos past the element. False
/// unless the array is present, every element parses and the closing ']' is
/// there.
template <typename Element>
bool array_field(const std::string& line, const std::string& key, Element element) {
  std::size_t pos = value_at(line, key);
  if (pos == std::string::npos || !skip(line, pos, '[')) return false;
  for (bool first = true; !skip(line, pos, ']'); first = false) {
    if (pos == line.size() || (!first && !skip(line, pos, ',')) || !element(pos)) return false;
  }
  return true;
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_json_line(const AuditRecord& record) {
  std::ostringstream out;
  out << "{\"type\":\"" << (record.kind == AuditRecord::Kind::Decision ? "decision" : "probe")
      << "\",\"ts_ns\":" << record.ts_ns << ",\"kernel\":\"" << json_escape(record.kernel)
      << "\",\"bucket\":" << record.bucket << ",\"gen\":" << record.model_version
      << ",\"policy\":\"" << json_escape(record.policy) << "\",\"chunk\":" << record.chunk
      << ",\"seconds\":" << json_number(record.seconds);
  if (record.kind == AuditRecord::Kind::Decision) {
    out << ",\"label\":\"" << json_escape(record.label) << "\",\"explored\":"
        << (record.explored ? "true" : "false") << ",\"features\":[";
    bool first = true;
    for (const auto& [name, value] : record.features) {
      if (!first) out << ",";
      first = false;
      out << "[\"" << json_escape(name) << "\"," << json_number(value) << "]";
    }
    out << "]";
  }
  if (record.sampled) {
    out << ",\"tree_path\":[";
    for (std::size_t i = 0; i < record.tree_path.size(); ++i) {
      out << (i > 0 ? "," : "") << record.tree_path[i];
    }
    out << "],\"predicted_seconds\":" << json_number(record.predicted_seconds);
  }
  out << "}";
  return out.str();
}

std::optional<AuditRecord> parse_audit_line(const std::string& line) {
  // A torn line (a writer cut mid-append) lacks at least its closing brace.
  if (line.empty() || line.back() != '}') return std::nullopt;
  const auto type = string_field(line, "type");
  if (!type || (*type != "decision" && *type != "probe")) return std::nullopt;
  const auto kernel = string_field(line, "kernel");
  const auto policy = string_field(line, "policy");
  const auto ts = number_field(line, "ts_ns");
  const auto bucket = number_field(line, "bucket");
  const auto gen = number_field(line, "gen");
  const auto chunk = number_field(line, "chunk");
  const auto seconds = number_field(line, "seconds");
  if (!kernel || !policy || !ts || !bucket || !gen || !chunk || !seconds) return std::nullopt;

  AuditRecord record;
  record.kind = *type == "decision" ? AuditRecord::Kind::Decision : AuditRecord::Kind::Probe;
  record.ts_ns = static_cast<std::uint64_t>(*ts);
  record.kernel = *kernel;
  record.bucket = static_cast<std::uint64_t>(*bucket);
  record.model_version = static_cast<std::uint64_t>(*gen);
  record.policy = *policy;
  record.chunk = static_cast<std::int64_t>(*chunk);
  record.seconds = *seconds;
  // The introspection sample is optional; its absence is the unsampled line
  // shape. Keys this parser does not know (such as the hardware-counter
  // block older writers appended) are ignored.
  if (value_at(line, "tree_path") != std::string::npos) {
    const bool path_ok = array_field(line, "tree_path", [&](std::size_t& pos) {
      const auto node = read_number(line, pos);
      if (node) record.tree_path.push_back(static_cast<int>(*node));
      return node.has_value();
    });
    const auto predicted = number_field(line, "predicted_seconds");
    if (!path_ok || !predicted) return std::nullopt;
    record.sampled = true;
    record.predicted_seconds = *predicted;
  }
  if (record.kind == AuditRecord::Kind::Decision) {
    const auto label = string_field(line, "label");
    if (!label) return std::nullopt;
    record.label = *label;
    record.explored = line.find("\"explored\":true") != std::string::npos;
    // Each feature is a ["name",value] pair.
    const bool features_ok = array_field(line, "features", [&](std::size_t& pos) {
      auto name = skip(line, pos, '[') ? read_string(line, pos) : std::nullopt;
      const auto value = name && skip(line, pos, ',') ? read_number(line, pos) : std::nullopt;
      if (!value || !skip(line, pos, ']')) return false;
      record.features.emplace_back(std::move(*name), *value);
      return true;
    });
    if (!features_ok) return std::nullopt;
  }
  return record;
}

std::optional<std::vector<std::string>> read_complete_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) break;  // partial trailing line: writer mid-append
    if (nl > start) lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

AuditLog& AuditLog::instance() {
  static AuditLog log;
  return log;
}

std::string AuditLog::segment_path(std::uint64_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, ".%06llu.jsonl", static_cast<unsigned long long>(index));
  return stem_ + buf;
}

std::vector<std::pair<std::uint64_t, std::string>> AuditLog::existing_segments_locked() const {
  std::vector<std::pair<std::uint64_t, std::string>> found;
  if (stem_.empty()) return found;
  const fs::path stem(stem_);
  const fs::path dir = stem.has_parent_path() ? stem.parent_path() : fs::path(".");
  const std::string prefix = stem.filename().string() + ".";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != prefix.size() + 12 || name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - 6, 6, ".jsonl") != 0) {
      continue;
    }
    const std::string digits = name.substr(prefix.size(), 6);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    found.emplace_back(std::strtoull(digits.c_str(), nullptr, 10), entry.path().string());
  }
  std::sort(found.begin(), found.end());
  return found;
}

void AuditLog::open_segment_locked() {
  const std::string path = segment_path(segment_index_);
  const fs::path parent = fs::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    fs::create_directories(parent, ec);
  }
  file_ = std::fopen(path.c_str(), "ab");
  segment_written_ = 0;
  if (file_ != nullptr) {
    // "ab" leaves the reported position at 0 until the first write; seek so
    // an append to an existing segment counts its current size.
    std::fseek(file_, 0, SEEK_END);
    const long at = std::ftell(file_);
    if (at > 0) segment_written_ = static_cast<std::size_t>(at);
  }
}

void AuditLog::configure(AuditConfig config) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    flush_locked();
    std::fclose(file_);
    file_ = nullptr;
  }
  config_ = std::move(config);
  stem_ = config_.base_path;
  if (stem_.size() > 6 && stem_.compare(stem_.size() - 6, 6, ".jsonl") == 0) {
    stem_.resize(stem_.size() - 6);
  }
  if (config_.base_path.empty()) {
    enabled_.store(false, std::memory_order_relaxed);
    return;
  }
  const auto existing = existing_segments_locked();
  segment_index_ = existing.empty() ? 1 : existing.back().first + 1;
  open_segment_locked();
  enabled_.store(file_ != nullptr, std::memory_order_relaxed);
}

AuditConfig AuditLog::config() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return config_;
}

void AuditLog::flush_locked() {
  if (buffer_.empty() || file_ == nullptr) return;
  std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
  std::fflush(file_);
  segment_written_ += buffer_.size();
  buffer_.clear();
}

void AuditLog::rotate_locked() {
  flush_locked();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  ++segment_index_;
  open_segment_locked();
  rotated_.fetch_add(1, std::memory_order_relaxed);
  // Trim oldest segments past the cap.
  auto existing = existing_segments_locked();
  while (existing.size() > config_.max_segments) {
    std::error_code ec;
    fs::remove(existing.front().second, ec);
    existing.erase(existing.begin());
  }
}

void AuditLog::append(const AuditRecord& record) {
  if (record.sampled) {
    const std::lock_guard<std::mutex> lock(tail_mutex_);
    std::deque<AuditRecord>& kept = tail_[record.kernel];
    if (kept.size() == kTailPerKernel) kept.pop_front();
    kept.push_back(record);
  }
  if (!audit_enabled()) return;
  std::string line = to_json_line(record);
  line += '\n';
  const std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  buffer_ += line;
  appended_.fetch_add(1, std::memory_order_relaxed);
  if (segment_written_ + buffer_.size() >= config_.segment_bytes) {
    rotate_locked();
  } else if (buffer_.size() >= config_.flush_bytes) {
    flush_locked();
  }
}

std::vector<AuditRecord> AuditLog::tail() const {
  const std::lock_guard<std::mutex> lock(tail_mutex_);
  std::vector<AuditRecord> out;
  for (const auto& [kernel, kept] : tail_) out.insert(out.end(), kept.begin(), kept.end());
  return out;
}

void AuditLog::write_tail(const std::string& path) const {
  std::string lines;
  for (const AuditRecord& record : tail()) lines += to_json_line(record) + '\n';
  write_file_atomically(path, lines);
}

void AuditLog::flush() {
  const std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
}

void AuditLog::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  flush_locked();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  enabled_.store(false, std::memory_order_relaxed);
}

std::vector<std::string> AuditLog::segment_paths() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> paths;
  for (const auto& [index, path] : existing_segments_locked()) {
    (void)index;
    paths.push_back(path);
  }
  return paths;
}

void AuditLog::reset_for_testing() {
  const std::lock_guard<std::mutex> lock(mutex_);
  buffer_.clear();
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  config_ = AuditConfig{};
  stem_.clear();
  segment_index_ = 0;
  segment_written_ = 0;
  enabled_.store(false, std::memory_order_relaxed);
  appended_.store(0, std::memory_order_relaxed);
  rotated_.store(0, std::memory_order_relaxed);
  const std::lock_guard<std::mutex> tail_lock(tail_mutex_);
  tail_.clear();
}

}  // namespace apollo::telemetry
