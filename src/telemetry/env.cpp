#include "telemetry/env.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace apollo::telemetry {

namespace {

void warn(const char* name, const char* value, const char* expected) {
  std::fprintf(stderr, "apollo: ignoring %s=\"%s\" (%s); using the default\n", name, value,
               expected);
}

}  // namespace

std::int64_t env_int64(const char* name, std::int64_t fallback, std::int64_t min_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE) {
    warn(name, value, "expected an integer");
    return fallback;
  }
  if (parsed < min_value) {
    warn(name, value, min_value > 0 ? "expected a positive integer" : "value below minimum");
    return fallback;
  }
  return static_cast<std::int64_t>(parsed);
}

std::size_t env_size(const char* name, std::size_t fallback, std::size_t min_value) {
  return static_cast<std::size_t>(env_int64(name, static_cast<std::int64_t>(fallback),
                                            static_cast<std::int64_t>(min_value)));
}

double env_double(const char* name, double fallback, double min_value) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || errno == ERANGE || !std::isfinite(parsed)) {
    warn(name, value, "expected a finite number");
    return fallback;
  }
  if (parsed < min_value) {
    warn(name, value, "value below minimum");
    return fallback;
  }
  return parsed;
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::string(value) : fallback;
}

}  // namespace apollo::telemetry
