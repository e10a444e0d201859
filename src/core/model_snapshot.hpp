#pragma once

// Immutable compiled-model snapshots. A TunerModel is compiled once — feature
// names resolved to fixed sources, categorical encodings to hash lookups,
// class labels to the values they select — into a CompiledModel; a
// ModelSnapshot groups the policy/chunk/threads models of one generation
// behind shared_ptrs. Snapshots are never mutated after publication: the
// Runtime swaps a pointer to hand every application thread a consistent
// model set with zero locks on the decision path (the same RCU pattern
// online::ModelRegistry uses for uncompiled models).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/tuner_model.hpp"
#include "instr/mix.hpp"

namespace raja {
class IndexSet;
}

namespace apollo {

class KernelHandle;

/// One feature of a loaded model, pre-resolved so tune-time evaluation does
/// no string matching: the source is fixed and categorical encodings are
/// hash lookups. Built once when a model is compiled.
struct CompiledFeature {
  enum class Source : std::uint8_t {
    Func, FuncSize, IndexType, LoopId, NumIndices, NumSegments, Stride, Mnemonic, App
  };
  Source source = Source::App;
  instr::Mnemonic mnemonic = instr::Mnemonic::count_;
  std::string key;  ///< blackboard attribute name (App source)
  /// Categorical codes, looked up by string_view without building a string.
  struct TextHash : std::hash<std::string_view> {
    using is_transparent = void;
  };
  std::unordered_map<std::string, double, TextHash, std::equal_to<>> dictionary;
};

/// A TunerModel plus its pre-resolved feature plan and label table, built
/// here at publish time so a tuned launch does no string work. Immutable
/// after compile().
class CompiledModel {
public:
  /// Throws std::invalid_argument when a class label names no value of the
  /// model's parameter (see TunerModel::label_values).
  [[nodiscard]] static CompiledModel compile(TunerModel model);

  /// Evaluate the model on this launch. `scratch` is the caller's feature
  /// buffer (typically thread-local); after the call it holds exactly the
  /// vector the tree saw, in feature_names() order.
  [[nodiscard]] int predict(const KernelHandle& kernel, const raja::IndexSet& iset,
                            std::vector<double>& scratch) const;

  /// Resolve this launch's feature vector into `scratch` without predicting.
  void resolve_features(const KernelHandle& kernel, const raja::IndexSet& iset,
                        std::vector<double>& scratch) const;

  /// The value class `label` selects: a raja::PolicyType id for a policy
  /// model, the chunk or team size otherwise.
  [[nodiscard]] std::int64_t label_value(int label) const noexcept {
    return label_values_[static_cast<std::size_t>(label)];
  }

  [[nodiscard]] const TunerModel& model() const noexcept { return model_; }
  [[nodiscard]] const std::vector<CompiledFeature>& features() const noexcept {
    return features_;
  }

private:
  TunerModel model_;
  std::vector<CompiledFeature> features_;
  std::vector<std::int64_t> label_values_;  ///< indexed by class label
};

/// One published generation of compiled tuning models. `version` is the
/// online ModelRegistry generation this snapshot was compiled from (0 for
/// offline-loaded models). Members are shared so a policy-only reload reuses
/// the previous generation's chunk/threads compilations.
struct ModelSnapshot {
  std::uint64_t version = 0;
  std::shared_ptr<const CompiledModel> policy;
  std::shared_ptr<const CompiledModel> chunk;
  std::shared_ptr<const CompiledModel> threads;

  [[nodiscard]] bool empty() const noexcept { return !policy && !chunk && !threads; }
};

}  // namespace apollo
