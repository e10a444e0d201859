#pragma once

// The model-generation pipeline (the paper's Python package, natively):
// read training records, group samples by unique feature vector, label each
// group with the parameter value whose mean measured runtime is lowest
// (§III-B), and fit a decision tree. The intermediate LabeledData keeps the
// per-group runtime table so experiment harnesses can also price the oracle
// ("best possible") and any static choice on exactly the same samples.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/tuner_model.hpp"
#include "ml/dataset.hpp"
#include "perf/record.hpp"

namespace apollo {

struct LabeledData {
  ml::Dataset dataset;  ///< one row per unique feature vector; label = argmin runtime

  /// Per row: label index -> mean measured runtime over the samples mapping
  /// to that row (seconds). Every trained label appears for every row when
  /// training data came from a full parameter sweep.
  std::vector<std::map<int, double>> runtimes;

  /// Categorical encodings fixed at training time (feature -> categories).
  std::map<std::string, std::vector<std::string>> dictionaries;

  /// Provenance per row: originating loop_id and number of samples merged.
  std::vector<std::string> row_loop_ids;
  std::vector<std::int64_t> row_counts;

  /// Mean runtime over all rows (weighted by row_counts) under: the tree's
  /// predictions, a fixed label, or the per-row oracle. Used by Figs. 2/6/7.
  [[nodiscard]] double total_runtime_oracle() const;
  [[nodiscard]] double total_runtime_static(int label) const;
  [[nodiscard]] double total_runtime_predicted(const std::vector<int>& predictions) const;
};

class Trainer {
public:
  /// Build the labeled dataset for one tuned parameter from the records that
  /// vary that parameter alone: Policy reads records at the default chunk
  /// (OpenMP ones also at the default team); ChunkSize reads OpenMP records
  /// with an explicit chunk at the default team; Threads reads OpenMP records
  /// with an explicit team at the default chunk.
  [[nodiscard]] static LabeledData build_labeled_data(
      const std::vector<perf::SampleRecord>& records, TunedParameter parameter);

  /// Fit a model on previously labeled data.
  [[nodiscard]] static TunerModel train(const LabeledData& data, TunedParameter parameter,
                                        const ml::TreeParams& params = {});

  /// records -> model in one step.
  [[nodiscard]] static TunerModel train(const std::vector<perf::SampleRecord>& records,
                                        TunedParameter parameter,
                                        const ml::TreeParams& params = {});
};

}  // namespace apollo
