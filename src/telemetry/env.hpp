#pragma once

// Hardened environment-variable parsing for the runtime's numeric knobs
// (APOLLO_SAMPLE_CAPACITY, APOLLO_INTROSPECT_STRIDE, APOLLO_PROBE_STRIDE,
// ...). A production tuner must not silently misconfigure itself: a typo'd
// value ("1e6", "64k", "-3", "") is rejected with a one-line stderr warning
// and the documented default is kept, instead of atoll() quietly yielding 0
// and e.g. shrinking the sample buffer to nothing.

#include <cstddef>
#include <cstdint>
#include <string>

namespace apollo::telemetry {

/// Integer in [min_value, max]. Unset -> fallback. Set but non-numeric,
/// trailing junk, out of range, or < min_value -> warn on stderr + fallback.
[[nodiscard]] std::int64_t env_int64(const char* name, std::int64_t fallback,
                                     std::int64_t min_value = 1);

/// Size-typed convenience over env_int64 (same validation and warning).
[[nodiscard]] std::size_t env_size(const char* name, std::size_t fallback,
                                   std::size_t min_value = 1);

/// Finite double >= min_value, same rejection rules.
[[nodiscard]] double env_double(const char* name, double fallback, double min_value = 0.0);

/// String value ("" when unset).
[[nodiscard]] std::string env_string(const char* name, const std::string& fallback = "");

}  // namespace apollo::telemetry
