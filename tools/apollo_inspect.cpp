// apollo-inspect: examine Apollo artifacts from the command line.
//
//   apollo_inspect records <file>   summary of a training-record file
//                                   (samples, kernels, parameter coverage,
//                                    iteration-count distribution)
//   apollo_inspect model <file>     dump a deployable model (tree text,
//                                   dictionaries, labels)
//   apollo_inspect export <in> <out.csv>
//                                   flatten a record file to CSV for
//                                   external (pandas-style) analysis

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "core/features.hpp"
#include "core/tuner_model.hpp"
#include "telemetry/build_info.hpp"
#include "perf/csv_export.hpp"
#include "perf/record.hpp"

using namespace apollo;

namespace {

int inspect_records(const std::string& path) {
  const auto records = perf::read_records_file(path);
  std::printf("records: %zu samples\n", records.size());

  std::map<std::string, std::int64_t> per_kernel;
  std::map<std::string, std::int64_t> per_policy;
  std::map<std::int64_t, std::int64_t> per_chunk;
  std::int64_t min_indices = INT64_MAX, max_indices = 0;
  std::map<std::string, std::int64_t> problems;

  for (const auto& record : records) {
    if (auto it = record.find(features::kLoopId); it != record.end()) {
      per_kernel[it->second.as_string()]++;
    }
    if (auto it = record.find(features::kParamPolicy); it != record.end()) {
      per_policy[it->second.as_string()]++;
    }
    if (auto it = record.find(features::kParamChunk); it != record.end()) {
      per_chunk[it->second.as_int()]++;
    }
    if (auto it = record.find(features::kNumIndices); it != record.end()) {
      min_indices = std::min(min_indices, it->second.as_int());
      max_indices = std::max(max_indices, it->second.as_int());
    }
    if (auto it = record.find(features::kProblemName); it != record.end()) {
      problems[it->second.as_string()]++;
    }
  }

  std::printf("kernels: %zu distinct\n", per_kernel.size());
  for (const auto& [id, count] : per_kernel) {
    std::printf("  %-44s %" PRId64 "\n", id.c_str(), count);
  }
  std::printf("policies:");
  for (const auto& [policy, count] : per_policy) {
    std::printf(" %s=%" PRId64, policy.c_str(), count);
  }
  std::printf("\nchunk values:");
  for (const auto& [chunk, count] : per_chunk) std::printf(" %" PRId64, chunk);
  std::printf("\nnum_indices range: [%" PRId64 ", %" PRId64 "]\n",
              min_indices == INT64_MAX ? 0 : min_indices, max_indices);
  if (!problems.empty()) {
    std::printf("input decks:");
    for (const auto& [name, count] : problems) std::printf(" %s", name.c_str());
    std::printf("\n");
  }
  return 0;
}

int inspect_model(const std::string& path) {
  const TunerModel model = TunerModel::load_file(path);
  std::printf("parameter: %s\n", tuned_parameter_name(model.parameter()));
  std::printf("labels:");
  for (std::size_t l = 0; l < model.num_labels(); ++l) {
    std::printf(" %s", model.label_name(static_cast<int>(l)).c_str());
  }
  std::printf("\nfeatures (%zu):", model.tree().feature_names().size());
  for (const auto& name : model.tree().feature_names()) std::printf(" %s", name.c_str());
  std::printf("\ndepth: %d, nodes: %zu\n", model.tree().depth(), model.tree().node_count());
  if (!model.dictionaries().empty()) {
    std::printf("categorical dictionaries:\n");
    for (const auto& [feature, categories] : model.dictionaries()) {
      std::printf("  %s:", feature.c_str());
      for (const auto& category : categories) std::printf(" %s", category.c_str());
      std::printf("\n");
    }
  }
  std::printf("tree:\n%s", model.tree().to_text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", apollo::build_info_string().c_str());
    return 0;
  }
  if (argc < 3) {
    std::fprintf(stderr, "usage: apollo_inspect records|model <file> | export <in> <out.csv>\n");
    return 2;
  }
  try {
    if (std::strcmp(argv[1], "records") == 0 && argc == 3) return inspect_records(argv[2]);
    if (std::strcmp(argv[1], "model") == 0 && argc == 3) return inspect_model(argv[2]);
    if (std::strcmp(argv[1], "export") == 0 && argc == 4) {
      const auto records = perf::read_records_file(argv[2]);
      perf::write_records_csv_file(argv[3], records);
      std::printf("%zu records -> %s\n", records.size(), argv[3]);
      return 0;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "apollo_inspect: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand: %s\n", argv[1]);
  return 2;
}
