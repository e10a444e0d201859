#pragma once

// Canonical feature names (Table I) and helpers shared between the recorder
// (which writes raw attribute records) and the tuner (which resolves the same
// names to numeric values at prediction time).

#include <string>
#include <string_view>
#include <vector>

#include "instr/mix.hpp"
#include "perf/record.hpp"

namespace apollo::features {

// Kernel features (derived from forall arguments / the kernel handle).
inline constexpr const char* kFunc = "func";
inline constexpr const char* kFuncSize = "func_size";
inline constexpr const char* kIndexType = "index_type";
inline constexpr const char* kLoopId = "loop_id";
inline constexpr const char* kNumIndices = "num_indices";
inline constexpr const char* kNumSegments = "num_segments";
inline constexpr const char* kStride = "stride";

// Application features published on the blackboard by the app driver.
inline constexpr const char* kTimestep = "timestep";
inline constexpr const char* kProblemSize = "problem_size";
inline constexpr const char* kProblemName = "problem_name";
inline constexpr const char* kPatchId = "patch_id";

// Record keys that are *not* features: the parameter values used for the run
// and the measurement.
inline constexpr const char* kParamPolicy = "param:policy";
inline constexpr const char* kParamChunk = "param:chunk_size";
inline constexpr const char* kParamThreads = "param:threads";
inline constexpr const char* kMeasureRuntime = "measure:runtime";
/// Launches a weighted record stands for (absent = 1). A record carrying it
/// is a collapsed group of identical launches (online::Retrainer): its
/// measure:runtime is the exact sum of their runtimes, and the Trainer
/// accumulates it as that many unit samples.
inline constexpr const char* kMeasureCount = "measure:count";
/// Kernel bytes-per-iteration, carried as sample metadata (not a model
/// feature) so an offline consumer of a records file can rebuild the
/// launch's machine-model CostQuery without the live KernelHandle.
inline constexpr const char* kMeasureBytesPerIter = "measure:bytes_per_iter";

/// True for record keys that describe the sample rather than the launch.
[[nodiscard]] inline bool is_meta_key(const std::string& key) {
  return key.rfind("param:", 0) == 0 || key.rfind("measure:", 0) == 0;
}

/// All kernel + instruction feature names, in canonical order.
[[nodiscard]] std::vector<std::string> kernel_feature_names();

/// The application feature names used by the bundled proxy apps.
[[nodiscard]] std::vector<std::string> app_feature_names();

/// Populate `record` with the kernel and instruction features for a launch,
/// from its index set's scalars (length, segment count, stride, type name).
/// Launch records are materialized after the fact (online::Sample), when the
/// IndexSet is no longer available.
void fill_kernel_features(perf::SampleRecord& record, const std::string& loop_id,
                          const std::string& func, const instr::InstructionMix& mix,
                          std::int64_t num_indices, std::int64_t num_segments,
                          std::int64_t stride, std::string_view index_type);

}  // namespace apollo::features
