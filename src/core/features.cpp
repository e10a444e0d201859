#include "core/features.hpp"

namespace apollo::features {

std::vector<std::string> kernel_feature_names() {
  std::vector<std::string> names = {kFunc,       kFuncSize,    kIndexType, kLoopId,
                                    kNumIndices, kNumSegments, kStride};
  for (std::size_t m = 0; m < instr::kMnemonicCount; ++m) {
    names.emplace_back(instr::mnemonic_name(static_cast<instr::Mnemonic>(m)));
  }
  return names;
}

std::vector<std::string> app_feature_names() {
  return {kTimestep, kProblemSize, kProblemName, kPatchId};
}

void fill_kernel_features(perf::SampleRecord& record, const std::string& loop_id,
                          const std::string& func, const instr::InstructionMix& mix,
                          std::int64_t num_indices, std::int64_t num_segments,
                          std::int64_t stride, std::string_view index_type) {
  record[kFunc] = func;
  record[kFuncSize] = mix.total();
  record[kIndexType] = std::string(index_type);
  record[kLoopId] = loop_id;
  record[kNumIndices] = num_indices;
  record[kNumSegments] = num_segments;
  record[kStride] = stride;
  for (std::size_t m = 0; m < instr::kMnemonicCount; ++m) {
    const auto mnemonic = static_cast<instr::Mnemonic>(m);
    record[instr::mnemonic_name(mnemonic)] = mix.count(mnemonic);
  }
}

}  // namespace apollo::features
