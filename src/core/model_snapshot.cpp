#include "core/model_snapshot.hpp"

#include "core/features.hpp"
#include "core/kernel.hpp"
#include "perf/blackboard.hpp"
#include "raja/index_set.hpp"

namespace apollo {

CompiledModel CompiledModel::compile(TunerModel model) {
  using Source = CompiledFeature::Source;
  CompiledModel compiled;
  compiled.label_values_ = model.label_values();
  compiled.features_.reserve(model.tree().feature_names().size());
  for (const auto& name : model.tree().feature_names()) {
    CompiledFeature feature;
    if (name == features::kFunc) {
      feature.source = Source::Func;
    } else if (name == features::kFuncSize) {
      feature.source = Source::FuncSize;
    } else if (name == features::kIndexType) {
      feature.source = Source::IndexType;
    } else if (name == features::kLoopId) {
      feature.source = Source::LoopId;
    } else if (name == features::kNumIndices) {
      feature.source = Source::NumIndices;
    } else if (name == features::kNumSegments) {
      feature.source = Source::NumSegments;
    } else if (name == features::kStride) {
      feature.source = Source::Stride;
    } else {
      feature.source = Source::App;
      feature.key = name;
      for (std::size_t m = 0; m < instr::kMnemonicCount; ++m) {
        const auto mnemonic = static_cast<instr::Mnemonic>(m);
        if (name == instr::mnemonic_name(mnemonic)) {
          feature.source = Source::Mnemonic;
          feature.mnemonic = mnemonic;
          break;
        }
      }
    }
    auto dict_it = model.dictionaries().find(name);
    if (dict_it != model.dictionaries().end()) {
      for (std::size_t code = 0; code < dict_it->second.size(); ++code) {
        feature.dictionary.emplace(dict_it->second[code], static_cast<double>(code));
      }
    }
    compiled.features_.push_back(std::move(feature));
  }
  compiled.model_ = std::move(model);
  return compiled;
}

void CompiledModel::resolve_features(const KernelHandle& kernel, const raja::IndexSet& iset,
                                     std::vector<double>& scratch) const {
  using Source = CompiledFeature::Source;
  scratch.resize(features_.size());
  auto& board = perf::Blackboard::instance();
  for (std::size_t f = 0; f < features_.size(); ++f) {
    const CompiledFeature& feature = features_[f];
    double value = -1.0;
    const auto categorical = [&](std::string_view text) {
      auto it = feature.dictionary.find(text);
      return it != feature.dictionary.end() ? it->second : -1.0;
    };
    switch (feature.source) {
      case Source::Func: value = categorical(kernel.func()); break;
      case Source::FuncSize: value = static_cast<double>(kernel.mix().total()); break;
      case Source::IndexType: value = categorical(iset.type_name()); break;
      case Source::LoopId: value = categorical(kernel.loop_id()); break;
      case Source::NumIndices: value = static_cast<double>(iset.getLength()); break;
      case Source::NumSegments: value = static_cast<double>(iset.getNumSegments()); break;
      case Source::Stride: value = static_cast<double>(iset.stride()); break;
      case Source::Mnemonic:
        value = static_cast<double>(kernel.mix().count(feature.mnemonic));
        break;
      case Source::App: {
        const auto attr = board.get(feature.key);
        if (attr) value = attr->is_string() ? categorical(attr->as_string()) : attr->as_number();
        break;
      }
    }
    scratch[f] = value;
  }
}

int CompiledModel::predict(const KernelHandle& kernel, const raja::IndexSet& iset,
                           std::vector<double>& scratch) const {
  resolve_features(kernel, iset, scratch);
  return model_.tree().predict(scratch.data());
}

}  // namespace apollo
