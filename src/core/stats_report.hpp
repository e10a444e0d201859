#pragma once

// Reporting helpers for RunStats: a sorted per-kernel table for humans and a
// CSV export for downstream analysis (the paper's workflow feeds recorded
// performance data into external tooling; this is the stats-side analogue).

#include <iosfwd>
#include <string>

#include "core/runtime.hpp"

namespace apollo {

/// Human-readable table, most expensive kernel first.
[[nodiscard]] std::string format_stats(const RunStats& stats);

/// Human-readable model-quality table from Runtime::quality_snapshot():
/// per-kernel accuracy, regret, probes, and calibration. Empty string when
/// nothing has been scored (telemetry off or no tuned launches).
[[nodiscard]] std::string format_quality(
    const std::vector<std::pair<std::string, online::KernelQuality>>& quality);

/// CSV with header: loop_id,invocations,seconds,percent.
void write_stats_csv(std::ostream& out, const RunStats& stats);
void write_stats_csv_file(const std::string& path, const RunStats& stats);

}  // namespace apollo
