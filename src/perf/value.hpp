#pragma once

// Typed attribute values for the perf (mini-Caliper) substrate.
//
// Caliper stores annotations as attribute/value pairs with a small set of
// scalar types. We mirror that with a compact variant over int64, double and
// string, plus lossless round-tripping through text so training records can
// be written to disk and re-read by the model-generation pipeline.

#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>
#include <variant>

namespace apollo::perf {

/// A typed attribute value: integer, real or string.
class Value {
public:
  Value() : data_(std::int64_t{0}) {}
  Value(std::int64_t v) : data_(v) {}            // NOLINT(google-explicit-constructor)
  Value(int v) : data_(std::int64_t{v}) {}       // NOLINT(google-explicit-constructor)
  Value(std::size_t v) : data_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Value(double v) : data_(v) {}                  // NOLINT(google-explicit-constructor)
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_int() const noexcept { return std::holds_alternative<std::int64_t>(data_); }
  [[nodiscard]] bool is_real() const noexcept { return std::holds_alternative<double>(data_); }
  [[nodiscard]] bool is_string() const noexcept { return std::holds_alternative<std::string>(data_); }

  [[nodiscard]] std::int64_t as_int() const { return std::get<std::int64_t>(data_); }
  [[nodiscard]] double as_real() const { return std::get<double>(data_); }
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(data_); }

  /// Numeric view: ints and reals convert; strings throw.
  [[nodiscard]] double as_number() const {
    if (is_int()) return static_cast<double>(as_int());
    if (is_real()) return as_real();
    throw std::runtime_error("perf::Value: string value used as number");
  }

  /// Text form used by record files: `i:<n>`, `r:<x>` or `s:<text>`.
  /// Reals print with max_digits10 so round-trips are lossless.
  [[nodiscard]] std::string encode() const {
    if (is_int()) return "i:" + std::to_string(as_int());
    if (is_real()) {
      char buffer[32];
      std::snprintf(buffer, sizeof(buffer), "%.17g", as_real());
      return std::string("r:") + buffer;
    }
    return "s:" + as_string();
  }

  /// Inverse of encode(). A number must fill its whole body, with no
  /// leading space or '+' (the encoder writes neither); anything else throws
  /// std::runtime_error naming the text.
  static Value decode(const std::string& text) {
    if (text.size() >= 2 && text[1] == ':') {
      const std::string body = text.substr(2);
      const char* const last = body.c_str() + body.size();
      switch (text[0]) {
        case 'i': {
          std::int64_t value = 0;
          const auto [end, error] = std::from_chars(body.c_str(), last, value);
          if (error != std::errc{} || end != last) {
            throw std::runtime_error("perf::Value: malformed integer '" + body + "'");
          }
          return Value(value);
        }
        case 'r': {
          // strtod, not stod: stod throws out_of_range for subnormals.
          char* end = nullptr;
          const double value = std::strtod(body.c_str(), &end);
          if (body.empty() || std::isspace(static_cast<unsigned char>(body[0])) ||
              body[0] == '+' || end != last) {
            throw std::runtime_error("perf::Value: malformed real '" + body + "'");
          }
          return Value(value);
        }
        case 's': return Value(body);
        default: break;
      }
    }
    throw std::runtime_error("perf::Value: malformed encoded value '" + text + "'");
  }

  friend bool operator==(const Value& a, const Value& b) { return a.data_ == b.data_; }

private:
  std::variant<std::int64_t, double, std::string> data_;
};

}  // namespace apollo::perf
