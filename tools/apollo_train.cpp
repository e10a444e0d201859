// apollo-train: the offline model-generation step as a standalone tool
// (the paper's Python package, as a CLI). Reads a training-record file
// produced by a Record-mode run, trains a decision-tree model, reports
// cross-validated accuracy and feature importances, and writes the
// deployable model file — optionally also the generated C++ tuner source.
//
// Usage:
//   apollo_train <records> <output.model>
//       [--parameter policy|chunk_size] [--max-depth N] [--top-features K]
//       [--folds N] [--per-kernel] [--codegen out.cpp] [--quiet]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/model_set.hpp"
#include "core/trainer.hpp"
#include "ml/codegen.hpp"
#include "ml/cross_validation.hpp"
#include "telemetry/build_info.hpp"

using namespace apollo;

namespace {

struct Options {
  std::string records_path;
  std::string model_path;
  TunedParameter parameter = TunedParameter::Policy;
  int max_depth = 25;
  int top_features = 0;  // 0 = all
  int folds = 10;
  bool per_kernel = false;
  bool quiet = false;
  std::string codegen_path;
};

void usage() {
  std::fprintf(stderr,
               "usage: apollo_train <records> <output.model>\n"
               "  [--parameter policy|chunk_size] [--max-depth N] [--top-features K]\n"
               "  [--folds N] [--per-kernel] [--codegen out.cpp] [--quiet]\n");
}

bool parse(int argc, char** argv, Options& options) {
  if (argc < 3) return false;
  options.records_path = argv[1];
  options.model_path = argv[2];
  for (int a = 3; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--parameter") {
      const char* value = next();
      if (value == nullptr) return false;
      options.parameter = std::strcmp(value, "chunk_size") == 0 ? TunedParameter::ChunkSize
                                                                : TunedParameter::Policy;
    } else if (arg == "--max-depth") {
      const char* value = next();
      if (value == nullptr) return false;
      options.max_depth = std::atoi(value);
    } else if (arg == "--top-features") {
      const char* value = next();
      if (value == nullptr) return false;
      options.top_features = std::atoi(value);
    } else if (arg == "--folds") {
      const char* value = next();
      if (value == nullptr) return false;
      options.folds = std::atoi(value);
    } else if (arg == "--per-kernel") {
      options.per_kernel = true;
    } else if (arg == "--quiet") {
      options.quiet = true;
    } else if (arg == "--codegen") {
      const char* value = next();
      if (value == nullptr) return false;
      options.codegen_path = value;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", build_info_string().c_str());
    return 0;
  }
  Options options;
  if (!parse(argc, argv, options)) {
    usage();
    return 2;
  }

  try {
    auto records = perf::read_records_file(options.records_path);
    if (!options.quiet) std::printf("read %zu samples from %s\n", records.size(), options.records_path.c_str());

    ml::TreeParams params;
    params.max_depth = options.max_depth;

    if (options.per_kernel) {
      const ModelSet set = ModelSet::train_per_kernel(records, options.parameter, params);
      set.save_file(options.model_path);
      if (!options.quiet) {
        std::printf("trained per-kernel model set: %zu kernel models, %zu total nodes -> %s\n",
                    set.size(), set.total_nodes(), options.model_path.c_str());
      }
      return 0;
    }

    LabeledData data = Trainer::build_labeled_data(records, options.parameter);
    if (options.top_features > 0) {
      // Rank by importance of a model over everything, then re-encode.
      const ml::DecisionTree full = ml::DecisionTree::fit(data.dataset, params);
      const auto importances = full.feature_importances();
      std::vector<std::size_t> order(importances.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return importances[a] > importances[b];
      });
      std::vector<std::string> keep;
      for (int f = 0; f < options.top_features && f < static_cast<int>(order.size()); ++f) {
        keep.push_back(data.dataset.feature_names()[order[static_cast<std::size_t>(f)]]);
      }
      data.dataset = data.dataset.select_features(keep);
    }

    const TunerModel model = Trainer::train(data, options.parameter, params);
    model.save_file(options.model_path);

    if (!options.quiet) {
      std::printf("trained %s model: depth=%d nodes=%zu rows=%zu -> %s\n",
                  tuned_parameter_name(options.parameter), model.tree().depth(),
                  model.tree().node_count(), data.dataset.num_rows(),
                  options.model_path.c_str());
      if (data.dataset.num_rows() >= static_cast<std::size_t>(options.folds)) {
        const auto cv = ml::cross_validate(data.dataset, params, options.folds, 42);
        std::printf("%d-fold cross-validated accuracy: %.1f%% (min %.1f%%, max %.1f%%)\n",
                    options.folds, cv.mean_accuracy * 100, cv.min_accuracy * 100,
                    cv.max_accuracy * 100);
      }
      const auto importances = model.tree().feature_importances();
      std::printf("top feature importances:\n");
      std::vector<std::size_t> order(importances.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return importances[a] > importances[b];
      });
      for (std::size_t f = 0; f < 5 && f < order.size(); ++f) {
        if (importances[order[f]] <= 0) break;
        std::printf("  %-20s %.3f\n", model.tree().feature_names()[order[f]].c_str(),
                    importances[order[f]]);
      }
    }

    if (!options.codegen_path.empty()) {
      std::ofstream out(options.codegen_path);
      if (!out) throw std::runtime_error("cannot open " + options.codegen_path);
      out << ml::generate_cpp(model.tree(), "apollo_generated_model");
      if (!options.quiet) std::printf("generated C++ tuner -> %s\n", options.codegen_path.c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "apollo_train: %s\n", error.what());
    return 1;
  }
  return 0;
}
