// apollo-replay: offline what-if replay of a decision audit log.
//
// Reads the rotating audit segments a run wrote with APOLLO_AUDIT_FILE set
// (decision records carry the exact feature vector the live policy model
// saw; probe records carry ground-truth timings of non-executed variants)
// and re-evaluates one or more candidate `.model` files against them:
//
//   - determinism: with --expect-match GEN, the FIRST --model is claimed to
//     be the one that was live as generation GEN; its replayed prediction
//     must equal the recorded label bit-for-bit on every record that
//     generation wrote — a failure means the model file and the live model
//     diverged. Replay evaluates DecisionTree::predict, the same evaluator
//     the runtime runs. Other models report their match rate
//     informationally;
//   - accuracy: predictions are scored against the best-known policy per
//     (kernel, feature-bucket), estimated from every observed runtime in the
//     log (decisions, explorations, and probes), via ml::ConfusionMatrix;
//   - regret: the estimated seconds/launch lost by each model's choices
//     versus that best-known policy.
//
// This is the CI model-regression gate: replay the same log through the
// previous and the candidate model and compare, with --min-accuracy as the
// hard floor. Candidate models must come from the same training pipeline as
// the recording model so categorical feature encodings line up.
//
// Usage:
//   apollo_replay LOG.jsonl... --model FILE [--model FILE]...
//                 [--expect-match GEN] [--min-accuracy X] [--confusion]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/tuner_model.hpp"
#include "ml/confusion.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/build_info.hpp"

namespace {

using apollo::telemetry::AuditRecord;

/// Ground truth for one (kernel, bucket): mean observed seconds per policy.
struct BucketTruth {
  std::map<std::string, std::pair<double, std::uint64_t>> policy_seconds;  // sum, count

  void add(const std::string& policy, double seconds) {
    auto& [sum, count] = policy_seconds[policy];
    sum += seconds;
    count += 1;
  }
  [[nodiscard]] double mean(const std::string& policy) const {
    const auto it = policy_seconds.find(policy);
    if (it == policy_seconds.end() || it->second.second == 0) return -1.0;
    return it->second.first / static_cast<double>(it->second.second);
  }
  /// The best-known policy, only meaningful with evidence for >= 2 policies.
  [[nodiscard]] std::string best() const {
    std::string best_policy;
    double best_mean = -1.0;
    for (const auto& [policy, acc] : policy_seconds) {
      const double m = acc.first / static_cast<double>(acc.second);
      if (best_mean < 0.0 || m < best_mean) {
        best_mean = m;
        best_policy = policy;
      }
    }
    return best_policy;
  }
  [[nodiscard]] bool scorable() const { return policy_seconds.size() >= 2; }
};

struct ModelReport {
  std::string path;
  std::uint64_t replayed = 0;        ///< decision records evaluated
  std::uint64_t gen_records = 0;     ///< records matching --expect-match's generation
  std::uint64_t gen_matches = 0;     ///< ... whose replayed label equals the recorded one
  std::uint64_t scored = 0;          ///< records with ground truth (>= 2 policies seen)
  std::uint64_t correct = 0;
  double regret_seconds = 0.0;       ///< estimated seconds lost vs best-known policy
  apollo::ml::ConfusionMatrix confusion{0};
  std::vector<std::string> labels;

  [[nodiscard]] double accuracy() const {
    return scored > 0 ? static_cast<double>(correct) / static_cast<double>(scored) : 0.0;
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: apollo_replay LOG.jsonl... --model FILE [--model FILE]...\n"
               "                     [--expect-match GEN] [--min-accuracy X]\n"
               "                     [--confusion] [--version]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> log_paths;
  std::vector<std::string> model_paths;
  long long expect_gen = -1;
  double min_accuracy = -1.0;
  bool show_confusion = false;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--version") {
      std::printf("%s\n", apollo::build_info_string().c_str());
      return 0;
    } else if (arg == "--model") {
      const char* v = next();
      if (v == nullptr) return usage();
      model_paths.emplace_back(v);
    } else if (arg == "--expect-match") {
      const char* v = next();
      if (v == nullptr) return usage();
      expect_gen = std::atoll(v);
    } else if (arg == "--min-accuracy") {
      const char* v = next();
      if (v == nullptr) return usage();
      min_accuracy = std::atof(v);
    } else if (arg == "--confusion") {
      show_confusion = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      log_paths.push_back(arg);
    }
  }
  if (log_paths.empty() || model_paths.empty()) return usage();

  // Load every complete line from every segment (a live writer's partial
  // trailing line is skipped, not misparsed), oldest segment first.
  std::vector<AuditRecord> records;
  std::uint64_t malformed = 0;
  for (const auto& path : log_paths) {
    const auto lines = apollo::telemetry::read_complete_lines(path);
    if (!lines) {
      std::fprintf(stderr, "apollo_replay: cannot read %s\n", path.c_str());
      return 2;
    }
    for (const auto& line : *lines) {
      if (auto record = apollo::telemetry::parse_audit_line(line)) {
        records.push_back(std::move(*record));
      } else {
        ++malformed;
      }
    }
  }
  if (records.empty()) {
    std::fprintf(stderr, "apollo_replay: no audit records in %zu file(s)\n", log_paths.size());
    return 2;
  }

  // Pass 1 — ground truth: every observed runtime in the log (model-chosen
  // launches, explorations, and probes) feeds the per-(kernel, bucket)
  // policy baselines the replayed predictions are scored against.
  std::map<std::pair<std::string, std::uint64_t>, BucketTruth> truth;
  std::uint64_t decisions = 0;
  std::uint64_t probes = 0;
  for (const auto& record : records) {
    truth[{record.kernel, record.bucket}].add(record.policy, record.seconds);
    if (record.kind == AuditRecord::Kind::Decision) {
      ++decisions;
    } else {
      ++probes;
    }
  }

  // Pass 2 — replay each candidate model over the decision records.
  std::vector<ModelReport> reports;
  for (const auto& model_path : model_paths) {
    apollo::TunerModel model;
    try {
      model = apollo::TunerModel::load_file(model_path);
    } catch (const std::exception& error) {
      std::fprintf(stderr, "apollo_replay: %s: %s\n", model_path.c_str(), error.what());
      return 2;
    }

    ModelReport report;
    report.path = model_path;
    // Confusion-matrix label space: the model's own labels plus any policy
    // the log proves best that the model cannot even name.
    report.labels.assign(model.tree().label_names().begin(), model.tree().label_names().end());
    for (const auto& [key, bucket_truth] : truth) {
      (void)key;
      if (!bucket_truth.scorable()) continue;
      const std::string best = bucket_truth.best();
      if (std::find(report.labels.begin(), report.labels.end(), best) == report.labels.end()) {
        report.labels.push_back(best);
      }
    }
    report.confusion = apollo::ml::ConfusionMatrix(report.labels.size());
    const auto label_index = [&](const std::string& name) {
      const auto it = std::find(report.labels.begin(), report.labels.end(), name);
      return static_cast<int>(it - report.labels.begin());
    };

    const auto& feature_names = model.tree().feature_names();
    std::vector<double> feature_buffer(feature_names.size());
    for (const auto& record : records) {
      if (record.kind != AuditRecord::Kind::Decision) continue;
      // Rebuild the feature vector in this model's feature order from the
      // recorded (name, value) pairs; features this model wants but the
      // recording model never resolved evaluate as missing (-1).
      for (std::size_t f = 0; f < feature_names.size(); ++f) {
        double value = -1.0;
        for (const auto& [name, recorded] : record.features) {
          if (name == feature_names[f]) {
            value = recorded;
            break;
          }
        }
        feature_buffer[f] = value;
      }
      const int predicted = model.tree().predict(feature_buffer.data());
      const std::string& predicted_label = model.label_name(predicted);
      ++report.replayed;

      if (expect_gen >= 0 && record.model_version == static_cast<std::uint64_t>(expect_gen) &&
          !record.label.empty()) {
        ++report.gen_records;
        if (predicted_label == record.label) ++report.gen_matches;
      }

      const auto truth_it = truth.find({record.kernel, record.bucket});
      if (truth_it == truth.end() || !truth_it->second.scorable()) continue;
      const std::string best = truth_it->second.best();
      ++report.scored;
      if (predicted_label == best) ++report.correct;
      report.confusion.add(label_index(best), label_index(predicted_label));
      const double predicted_mean = truth_it->second.mean(predicted_label);
      const double best_mean = truth_it->second.mean(best);
      if (predicted_mean >= 0.0 && predicted_mean > best_mean) {
        report.regret_seconds += predicted_mean - best_mean;
      }
    }
    reports.push_back(std::move(report));
  }

  std::printf("apollo_replay — %s\n", apollo::build_info_string().c_str());
  std::printf("replayed %llu decision + %llu probe records from %zu file(s)",
              static_cast<unsigned long long>(decisions),
              static_cast<unsigned long long>(probes), log_paths.size());
  if (malformed > 0) {
    std::printf(" (%llu malformed lines skipped)", static_cast<unsigned long long>(malformed));
  }
  std::printf("\n\n");

  bool determinism_failed = false;
  const ModelReport* best_report = nullptr;
  for (const auto& report : reports) {
    std::printf("model %s\n", report.path.c_str());
    std::printf("  accuracy %5.1f%% (%llu/%llu scored of %llu), est. regret %.3f ms\n",
                report.accuracy() * 100.0, static_cast<unsigned long long>(report.correct),
                static_cast<unsigned long long>(report.scored),
                static_cast<unsigned long long>(report.replayed),
                report.regret_seconds * 1e3);
    if (expect_gen >= 0) {
      std::printf("  gen %lld replay match: %llu/%llu recorded labels reproduced\n", expect_gen,
                  static_cast<unsigned long long>(report.gen_matches),
                  static_cast<unsigned long long>(report.gen_records));
      // Only the first model claims to BE that generation.
      if (&report == &reports.front() && report.gen_records > 0 &&
          report.gen_matches != report.gen_records) {
        determinism_failed = true;
      }
    }
    if (show_confusion && report.scored > 0) {
      std::printf("%s", report.confusion.to_text(report.labels).c_str());
    }
    if (best_report == nullptr || report.accuracy() > best_report->accuracy()) {
      best_report = &report;
    }
  }
  if (reports.size() > 1 && best_report != nullptr && best_report != &reports.front()) {
    const ModelReport& baseline = reports.front();
    std::printf("\nbest model: %s (accuracy %+0.1f%%, regret %+0.3f ms vs %s)\n",
                best_report->path.c_str(),
                (best_report->accuracy() - baseline.accuracy()) * 100.0,
                (best_report->regret_seconds - baseline.regret_seconds) * 1e3,
                baseline.path.c_str());
  }

  if (determinism_failed) {
    std::fprintf(stderr,
                 "apollo_replay: FAIL — replayed predictions diverge from the recorded "
                 "generation-%lld decisions\n",
                 expect_gen);
    return 1;
  }
  if (min_accuracy >= 0.0 && best_report != nullptr && best_report->accuracy() < min_accuracy) {
    std::fprintf(stderr, "apollo_replay: FAIL — best model accuracy %.3f below floor %.3f\n",
                 best_report->accuracy(), min_accuracy);
    return 1;
  }
  return 0;
}
