#pragma once

// A deployable tuning model: the trained decision tree plus everything needed
// to evaluate it at a kernel launch — the categorical-feature dictionaries
// fixed at training time and the meaning of each class label. Models persist
// to a single text file, so retraining never requires recompiling the
// application (§III-C).

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ml/decision_tree.hpp"
#include "perf/value.hpp"

namespace apollo {

/// Which execution parameter the model selects. Policy and ChunkSize are the
/// paper's two; Threads (OpenMP team size) is the "larger number of tuning
/// parameters" extension its conclusion anticipates.
enum class TunedParameter : std::uint8_t { Policy, ChunkSize, Threads };

[[nodiscard]] const char* tuned_parameter_name(TunedParameter p) noexcept;

class TunerModel {
public:
  /// Resolves a feature name to its raw (pre-encoding) runtime value, or
  /// nullopt when the producer doesn't know it.
  using Resolver = std::function<std::optional<perf::Value>(const std::string& name)>;

  TunerModel() = default;
  TunerModel(TunedParameter parameter, ml::DecisionTree tree,
             std::map<std::string, std::vector<std::string>> dictionaries);

  [[nodiscard]] TunedParameter parameter() const noexcept { return parameter_; }
  [[nodiscard]] const ml::DecisionTree& tree() const noexcept { return tree_; }
  [[nodiscard]] const std::map<std::string, std::vector<std::string>>& dictionaries() const noexcept {
    return dictionaries_;
  }

  /// Encode one raw value for the named feature: numbers pass through,
  /// strings map through the training dictionary (-1 when unseen/missing).
  [[nodiscard]] double encode(const std::string& feature, const std::optional<perf::Value>& value) const;

  /// Evaluate the tree: resolve exactly the features the tree uses.
  [[nodiscard]] int predict(const Resolver& resolve) const;

  /// The label string for a class index (e.g. "seq"/"omp" or "128").
  [[nodiscard]] const std::string& label_name(int label) const;
  [[nodiscard]] std::size_t num_labels() const noexcept { return tree_.label_names().size(); }

  /// The value each class label selects, indexed like label_name(): the
  /// raja::PolicyType id for a policy model ("seq" or "omp"), the chunk or
  /// team size otherwise (a non-negative decimal integer that fits
  /// ModelParams' field). Throws std::invalid_argument naming the first
  /// label the model's parameter cannot name. load() and
  /// CompiledModel::compile both call it, so no launch parses a label.
  [[nodiscard]] std::vector<std::int64_t> label_values() const;

  void save(std::ostream& out) const;
  static TunerModel load(std::istream& in);
  void save_file(const std::string& path) const;
  static TunerModel load_file(const std::string& path);

private:
  TunedParameter parameter_ = TunedParameter::Policy;
  ml::DecisionTree tree_;
  /// feature name -> ordered category strings (index == encoded code).
  std::map<std::string, std::vector<std::string>> dictionaries_;
};

}  // namespace apollo
