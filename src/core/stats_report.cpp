#include "core/stats_report.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

namespace apollo {

namespace {

std::vector<std::pair<std::string, KernelStats>> sorted_kernels(const RunStats& stats) {
  std::vector<std::pair<std::string, KernelStats>> kernels(stats.per_kernel.begin(),
                                                           stats.per_kernel.end());
  std::stable_sort(kernels.begin(), kernels.end(),
                   [](const auto& a, const auto& b) { return a.second.seconds > b.second.seconds; });
  return kernels;
}

}  // namespace

std::string format_stats(const RunStats& stats) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "total: " << stats.total_seconds * 1e3 << " ms over " << stats.invocations
      << " kernel launches\n";
  // Decision latency as a distribution, not a mean: tuning cost is dominated
  // by its tail (a mean hides the first-launch compilation of features).
  if (stats.decision_latency.count() > 0) {
    out << "decision latency: p50 " << stats.decision_latency.quantile(0.50) * 1e6 << " us, p95 "
        << stats.decision_latency.quantile(0.95) * 1e6 << " us, p99 "
        << stats.decision_latency.quantile(0.99) * 1e6 << " us over "
        << stats.decision_latency.count() << " decisions\n";
  }
  for (const auto& [loop_id, kernel] : sorted_kernels(stats)) {
    const double share =
        stats.total_seconds > 0 ? kernel.seconds / stats.total_seconds * 100.0 : 0.0;
    out << "  " << loop_id << "  " << kernel.seconds * 1e3 << " ms  (" << kernel.invocations
        << " launches, " << share << "%";
    if (kernel.launch_seconds.count() > 0) {
      out << ", p50 " << kernel.launch_seconds.quantile(0.50) * 1e3 << " ms, p95 "
          << kernel.launch_seconds.quantile(0.95) * 1e3 << " ms, p99 "
          << kernel.launch_seconds.quantile(0.99) * 1e3 << " ms";
    }
    out << ")\n";
  }
  return out.str();
}

std::string format_quality(
    const std::vector<std::pair<std::string, online::KernelQuality>>& quality) {
  bool any = false;
  for (const auto& [loop_id, q] : quality) {
    if (q.launches > 0 || q.probes > 0) any = true;
  }
  if (!any) return "";
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "model quality (vs best-known variant):\n";
  for (const auto& [loop_id, q] : quality) {
    if (q.launches == 0 && q.probes == 0) continue;
    out << "  " << loop_id << "  accuracy " << q.accuracy() * 100.0 << "% (" << q.agreements
        << "/" << q.launches << "), regret " << q.regret_seconds * 1e3 << " ms, probes "
        << q.probes;
    if (q.calibration_samples > 0) {
      out << ", calibration " << q.calibration() << " (" << q.calibration_samples << " samples)";
    }
    out << "\n";
  }
  return out.str();
}

void write_stats_csv(std::ostream& out, const RunStats& stats) {
  out << "loop_id,invocations,seconds,percent,p50_seconds,p95_seconds,p99_seconds\n";
  out.precision(9);
  for (const auto& [loop_id, kernel] : sorted_kernels(stats)) {
    const double share =
        stats.total_seconds > 0 ? kernel.seconds / stats.total_seconds * 100.0 : 0.0;
    out << loop_id << ',' << kernel.invocations << ',' << kernel.seconds << ',' << share << ','
        << kernel.launch_seconds.quantile(0.50) << ',' << kernel.launch_seconds.quantile(0.95)
        << ',' << kernel.launch_seconds.quantile(0.99) << '\n';
  }
}

void write_stats_csv_file(const std::string& path, const RunStats& stats) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_stats_csv_file: cannot open " + path);
  write_stats_csv(out, stats);
}

}  // namespace apollo
