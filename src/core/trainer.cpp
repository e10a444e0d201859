#include "core/trainer.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <stdexcept>

#include "core/features.hpp"

namespace apollo {

namespace {

/// Mean-runtime accumulator per (row, label).
struct RuntimeAccumulator {
  double sum = 0.0;
  std::int64_t count = 0;
  [[nodiscard]] double mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

std::string record_param_value(const perf::SampleRecord& record, TunedParameter parameter) {
  switch (parameter) {
    case TunedParameter::Policy: return record.at(features::kParamPolicy).as_string();
    case TunedParameter::ChunkSize:
      return std::to_string(record.at(features::kParamChunk).as_int());
    case TunedParameter::Threads:
      return std::to_string(record.at(features::kParamThreads).as_int());
  }
  return {};
}

}  // namespace

double LabeledData::total_runtime_oracle() const {
  double total = 0.0;
  for (std::size_t r = 0; r < runtimes.size(); ++r) {
    double best = std::numeric_limits<double>::max();
    for (const auto& [label, seconds] : runtimes[r]) best = std::min(best, seconds);
    total += best * static_cast<double>(row_counts[r]);
  }
  return total;
}

double LabeledData::total_runtime_static(int label) const {
  double total = 0.0;
  for (std::size_t r = 0; r < runtimes.size(); ++r) {
    auto it = runtimes[r].find(label);
    if (it == runtimes[r].end()) {
      throw std::invalid_argument("LabeledData: static label missing for a row");
    }
    total += it->second * static_cast<double>(row_counts[r]);
  }
  return total;
}

double LabeledData::total_runtime_predicted(const std::vector<int>& predictions) const {
  if (predictions.size() != runtimes.size()) {
    throw std::invalid_argument("LabeledData: prediction count mismatch");
  }
  double total = 0.0;
  for (std::size_t r = 0; r < runtimes.size(); ++r) {
    auto it = runtimes[r].find(predictions[r]);
    if (it == runtimes[r].end()) {
      // The model picked a value never measured for this launch; charge the
      // worst observed value (pessimistic but defined).
      double worst = 0.0;
      for (const auto& [label, seconds] : runtimes[r]) worst = std::max(worst, seconds);
      total += worst * static_cast<double>(row_counts[r]);
    } else {
      total += it->second * static_cast<double>(row_counts[r]);
    }
  }
  return total;
}

LabeledData Trainer::build_labeled_data(const std::vector<perf::SampleRecord>& records,
                                        TunedParameter parameter) {
  // Chunk-size models only make sense over OpenMP executions.
  std::vector<const perf::SampleRecord*> usable;
  usable.reserve(records.size());
  for (const auto& record : records) {
    if (!record.count(features::kMeasureRuntime)) continue;
    const auto policy_it = record.find(features::kParamPolicy);
    const auto chunk_it = record.find(features::kParamChunk);
    const auto threads_it = record.find(features::kParamThreads);
    const bool is_omp = policy_it == record.end() || policy_it->second.as_string() == "omp";
    const bool default_chunk = chunk_it == record.end() || chunk_it->second.as_int() <= 0;
    const bool default_team = threads_it == record.end() || threads_it->second.as_int() <= 0;
    switch (parameter) {
      case TunedParameter::Policy:
        // Policy labels compare seq against OpenMP at the *default* schedule
        // and team size; sweep samples of the other parameters are excluded.
        if (policy_it == record.end() || !default_chunk) continue;
        if (policy_it->second.as_string() == "omp" && !default_team) {
          continue;  // explicit team-size sample, not the default
        }
        break;
      case TunedParameter::ChunkSize:
        // Chunk models choose among the explicit values (paper: 1..1024) on
        // OpenMP executions at the default team; the default-schedule sample
        // is not a label.
        if (default_chunk || !is_omp || !default_team) continue;
        break;
      case TunedParameter::Threads:
        // Team-size models: OpenMP at the default schedule, explicit teams.
        if (default_team || !is_omp || !default_chunk) continue;
        break;
    }
    usable.push_back(&record);
  }
  if (usable.empty()) throw std::invalid_argument("Trainer: no usable training records");

  // Feature schema: union of non-meta keys, sorted for stability.
  std::set<std::string> key_set;
  for (const auto* record : usable) {
    for (const auto& [key, value] : *record) {
      if (!features::is_meta_key(key)) key_set.insert(key);
    }
  }
  const std::vector<std::string> feature_keys(key_set.begin(), key_set.end());

  // Categorical dictionaries: every feature that ever carries a string.
  LabeledData data;
  for (const auto& key : feature_keys) {
    std::set<std::string> categories;
    bool is_categorical = false;
    for (const auto* record : usable) {
      auto it = record->find(key);
      if (it != record->end() && it->second.is_string()) {
        is_categorical = true;
        categories.insert(it->second.as_string());
      }
    }
    if (is_categorical) {
      data.dictionaries[key] = std::vector<std::string>(categories.begin(), categories.end());
    }
  }

  // Label vocabulary (sorted: "omp"<"seq" lexicographically for policy;
  // numeric ascending for chunk sizes).
  std::vector<std::string> label_values;
  {
    std::set<std::string> values;
    for (const auto* record : usable) values.insert(record_param_value(*record, parameter));
    label_values.assign(values.begin(), values.end());
    if (parameter != TunedParameter::Policy) {  // numeric label vocabularies
      std::sort(label_values.begin(), label_values.end(),
                [](const std::string& a, const std::string& b) { return std::stoll(a) < std::stoll(b); });
    }
  }
  const auto label_index = [&](const std::string& value) {
    auto it = std::find(label_values.begin(), label_values.end(), value);
    return static_cast<int>(it - label_values.begin());
  };

  const auto encode = [&](const std::string& key, const perf::SampleRecord& record) -> double {
    auto it = record.find(key);
    if (it == record.end()) return -1.0;
    if (!it->second.is_string()) return it->second.as_number();
    const auto& categories = data.dictionaries.at(key);
    auto cat = std::find(categories.begin(), categories.end(), it->second.as_string());
    return static_cast<double>(cat - categories.begin());
  };

  // Group samples by encoded feature vector.
  std::map<std::vector<double>, std::size_t> group_of;
  std::vector<std::map<int, RuntimeAccumulator>> accumulators;
  std::vector<std::vector<double>> group_features;
  std::vector<std::string> group_loop_ids;
  std::vector<std::int64_t> group_counts;

  for (const auto* record : usable) {
    std::vector<double> row;
    row.reserve(feature_keys.size());
    for (const auto& key : feature_keys) row.push_back(encode(key, *record));

    auto [it, inserted] = group_of.try_emplace(row, accumulators.size());
    if (inserted) {
      accumulators.emplace_back();
      group_features.push_back(row);
      auto loop_it = record->find(features::kLoopId);
      group_loop_ids.push_back(loop_it != record->end() ? loop_it->second.as_string() : "");
      group_counts.push_back(0);
    }
    const std::size_t group = it->second;
    auto& acc = accumulators[group][label_index(record_param_value(*record, parameter))];
    // A weighted record carries its launches' runtime sum and count; a unit
    // record is the count-1 case.
    const auto count_it = record->find(features::kMeasureCount);
    acc.sum += record->at(features::kMeasureRuntime).as_number();
    acc.count += count_it != record->end() ? count_it->second.as_int() : 1;
  }

  // Each group contributed `count` samples across parameter variants; the
  // number of *launches* it represents is the max samples seen for any one
  // variant (a full sweep measures each variant once per launch).
  data.dataset = ml::Dataset(feature_keys, label_values);
  data.runtimes.reserve(accumulators.size());
  for (std::size_t g = 0; g < accumulators.size(); ++g) {
    int best_label = -1;
    double best_runtime = std::numeric_limits<double>::max();
    std::map<int, double> means;
    std::int64_t launches = 1;
    for (const auto& [label, acc] : accumulators[g]) {
      const double mean = acc.mean();
      means[label] = mean;
      launches = std::max(launches, acc.count);
      if (mean < best_runtime) {
        best_runtime = mean;
        best_label = label;
      }
    }
    data.dataset.add_row(group_features[g], best_label);
    data.runtimes.push_back(std::move(means));
    data.row_loop_ids.push_back(group_loop_ids[g]);
    data.row_counts.push_back(launches);
  }
  return data;
}

TunerModel Trainer::train(const LabeledData& data, TunedParameter parameter,
                          const ml::TreeParams& params) {
  ml::DecisionTree tree = ml::DecisionTree::fit(data.dataset, params);
  return TunerModel(parameter, std::move(tree), data.dictionaries);
}

TunerModel Trainer::train(const std::vector<perf::SampleRecord>& records, TunedParameter parameter,
                          const ml::TreeParams& params) {
  return train(build_labeled_data(records, parameter), parameter, params);
}

}  // namespace apollo
