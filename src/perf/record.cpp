#include "perf/record.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace apollo::perf {

namespace {

/// Index of the first `c` at or after `from` that no backslash escapes, or
/// text.size() when there is none.
std::size_t find_unescaped(const std::string& text, char c, std::size_t from = 0) {
  std::size_t i = from;
  while (i < text.size() && text[i] != c) i += text[i] == '\\' ? 2 : 1;
  return std::min(i, text.size());
}

}  // namespace

std::string escape_cell(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '|': out += "\\p"; break;
      case '=': out += "\\e"; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string unescape_cell(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (i + 1 >= escaped.size()) {
      throw std::runtime_error("perf: dangling escape in '" + escaped + "'");
    }
    switch (escaped[++i]) {
      case '\\': out += '\\'; break;
      case 'p': out += '|'; break;
      case 'e': out += '='; break;
      case 'n': out += '\n'; break;
      default: throw std::runtime_error("perf: unknown escape in '" + escaped + "'");
    }
  }
  return out;
}

std::string encode_record(const SampleRecord& record) {
  std::string line;
  bool first = true;
  for (const auto& [key, value] : record) {
    if (!first) line += '|';
    first = false;
    line += escape_cell(key);
    line += '=';
    line += escape_cell(value.encode());
  }
  return line;
}

SampleRecord decode_record(const std::string& line) {
  SampleRecord record;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t end = find_unescaped(line, '|', pos);
    const std::string cell = line.substr(pos, end - pos);
    if (!cell.empty()) {
      // The encoder escapes every '=' inside a key or value, so a cell holds
      // exactly one unescaped '='; a second one, like a repeated key, can
      // only come from a damaged line.
      const std::size_t eq = find_unescaped(cell, '=');
      if (eq == cell.size()) throw std::runtime_error("perf: record cell missing '=': " + cell);
      if (find_unescaped(cell, '=', eq + 1) != cell.size()) {
        throw std::runtime_error("perf: record cell with a second '=': " + cell);
      }
      const std::string key = unescape_cell(cell.substr(0, eq));
      if (!record.try_emplace(key, Value::decode(unescape_cell(cell.substr(eq + 1)))).second) {
        throw std::runtime_error("perf: record repeats key '" + key + "'");
      }
    }
    if (end >= line.size()) break;
    pos = end + 1;
  }
  return record;
}

void write_records(std::ostream& out, const std::vector<SampleRecord>& records) {
  for (const auto& record : records) {
    out << encode_record(record) << '\n';
  }
}

std::vector<SampleRecord> read_records(std::istream& in) {
  std::vector<SampleRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    records.push_back(decode_record(line));
  }
  return records;
}

void append_records_file(const std::string& path, const std::vector<SampleRecord>& records) {
  std::ofstream out(path, std::ios::app);
  if (!out) throw std::runtime_error("perf: cannot open record file for append: " + path);
  write_records(out, records);
  if (!out) throw std::runtime_error("perf: write failed: " + path);
}

std::vector<SampleRecord> read_records_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("perf: cannot open record file: " + path);
  return read_records(in);
}

}  // namespace apollo::perf
