// apollo_perfbench: the repository benchmark's binary (see perfbench/README.md).
//
//   apollo_perfbench --workload <lulesh-sedov|cleverleaf-amr|adapt-storm>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --metrics <name,name,...> [--source-hash <hex>]
//
// Prints a provenance line, a workload-shape line, and last a result line
// {"correct", "attempted", "failed", "metrics"} holding the metrics named by
// --metrics (perfbench/run.py passes BENCHMARK.json's end-to-end list with
// --trace 0 and its per-layer list with --trace 1). Exit status 0 when the
// run completed (the result says whether its outputs were correct), 2 on a
// usage or internal error, or when a named metric was not measured.

#include <sched.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "telemetry/build_info.hpp"

extern char** environ;

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "apollo_perfbench: %s\nusage: apollo_perfbench --workload "
               "<lulesh-sedov|cleverleaf-amr|adapt-storm> --seed <n> --seconds <s> "
               "--trace <0|1> --metrics <name,...> [--source-hash <hex>]\n",
               why);
  std::exit(2);
}

unsigned cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The processor brand string, from CPUID (x86) so no file outside the
/// checkout is read.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                &regs[4 * leaf + 3]);
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  std::string text(brand);
  const auto first = text.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : text.substr(first);
#else
  return "unknown";
#endif
}

/// Every APOLLO_* / RAJA_* knob is cleared so the run measures the library's
/// defaults; the pool team is then set explicitly. Must run before the
/// Runtime and the global pool are first touched (both read the environment
/// once, at construction).
void pin_environment(unsigned team) {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text(*entry);
    if (text.rfind("APOLLO_", 0) == 0 || text.rfind("RAJA_", 0) == 0) {
      names.push_back(text.substr(0, text.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("APOLLO_NUM_THREADS", std::to_string(team).c_str(), 1);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string source_hash = "unknown";
  std::vector<std::string> metric_names;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0.0) || opts.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--metrics") {
      std::istringstream names(value);
      for (std::string name; std::getline(names, name, ',');) {
        if (!name.empty()) metric_names.push_back(name);
      }
    } else if (flag == "--source-hash") {
      source_hash = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (metric_names.empty()) usage("--metrics is required");
  const bool is_app = opts.workload == "lulesh-sedov" || opts.workload == "cleverleaf-amr";
  if (!is_app && opts.workload != "adapt-storm") usage("unknown workload");

  // One core is left to the rest of the machine: fork-join teams that
  // occupy every core measure the host's background load more than the
  // library (p50 spread grows about tenfold at a full team).
  opts.nproc = cpus_available();
  opts.team = std::max(1u, opts.nproc - 1);
  opts.app_threads = is_app ? 1 : opts.team;
  pin_environment(opts.team);

  Outcome out;
  try {
    if (is_app) {
      perfbench::run_app_workload(opts, out);
    } else {
      perfbench::run_adapt_storm(opts, out);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "apollo_perfbench: %s\n", error.what());
    return 2;
  }

  // Provenance and workload shape: one JSON object per line.
  const apollo::BuildInfo& build = apollo::build_info();
  std::string provenance = "{\"provenance\": {";
  const std::vector<std::pair<std::string, std::string>> fields = {
      {"workload", opts.workload},
      {"seed", std::to_string(opts.seed)},
      {"seconds", json_number(opts.seconds)},
      {"trace", opts.trace ? "1" : "0"},
      {"nproc", std::to_string(opts.nproc)},
      {"cpu_model", cpu_model()},
      {"build_type", build.build_type},
      {"compiler", build.compiler},
      {"git_commit", build.git_sha},
      {"source_hash", source_hash},
      {"pool_team", std::to_string(opts.team)},
      {"app_threads", std::to_string(opts.app_threads)},
  };
  bool first = true;
  for (const auto& list : {fields, out.provenance}) {
    for (const auto& [key, value] : list) {
      provenance += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
      first = false;
    }
  }
  std::printf("%s}}\n", provenance.c_str());
  std::string shape = "{\"shape\": {\"workload\": " + json_string(opts.workload);
  for (const auto& [key, value] : out.shape) {
    shape += ", " + json_string(key) + ": " + json_number(value);
  }
  std::printf("%s}}\n", shape.c_str());

  std::string metrics;
  for (const std::string& name : metric_names) {
    const auto found = out.metrics.find(name);
    if (found == out.metrics.end()) {
      std::fprintf(stderr, "apollo_perfbench: workload did not measure %s\n", name.c_str());
      return 2;
    }
    const perfbench::Metric& metric = found->second;
    if (!std::isfinite(metric.value)) out.fail(1, name + " is not finite");
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) + ": {\"value\": " +
               json_number(std::isfinite(metric.value) ? metric.value : 0.0) +
               ", \"unit\": " + json_string(metric.unit) + "}";
  }
  for (const std::string& error : out.errors) std::fprintf(stderr, "check: %s\n", error.c_str());
  const bool correct = out.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
