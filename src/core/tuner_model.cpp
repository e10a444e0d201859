#include "core/tuner_model.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "perf/record.hpp"
#include "raja/policy.hpp"

namespace apollo {

namespace {

/// The one label parser: the value `label` selects for `parameter`, or
/// nullopt when the parameter cannot name it.
std::optional<std::int64_t> parse_label(TunedParameter parameter, const std::string& label) {
  if (parameter == TunedParameter::Policy) {
    for (int p = 0; p < raja::kNumPolicyTypes; ++p) {
      if (label == raja::policy_name(static_cast<raja::PolicyType>(p))) return p;
    }
    return std::nullopt;
  }
  const bool digits = !label.empty() && std::all_of(label.begin(), label.end(), [](char c) {
    return c >= '0' && c <= '9';
  });
  if (!digits) return std::nullopt;
  std::int64_t value = 0;
  if (std::from_chars(label.data(), label.data() + label.size(), value).ec != std::errc{}) {
    return std::nullopt;  // out of range
  }
  if (parameter == TunedParameter::Threads && value > std::numeric_limits<unsigned>::max()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

const char* tuned_parameter_name(TunedParameter p) noexcept {
  switch (p) {
    case TunedParameter::Policy: return "policy";
    case TunedParameter::ChunkSize: return "chunk_size";
    case TunedParameter::Threads: return "threads";
  }
  return "?";
}

TunerModel::TunerModel(TunedParameter parameter, ml::DecisionTree tree,
                       std::map<std::string, std::vector<std::string>> dictionaries)
    : parameter_(parameter), tree_(std::move(tree)), dictionaries_(std::move(dictionaries)) {}

double TunerModel::encode(const std::string& feature, const std::optional<perf::Value>& value) const {
  if (!value) return -1.0;
  if (!value->is_string()) return value->as_number();
  auto dict_it = dictionaries_.find(feature);
  if (dict_it == dictionaries_.end()) return -1.0;
  const auto& categories = dict_it->second;
  auto cat_it = std::find(categories.begin(), categories.end(), value->as_string());
  if (cat_it == categories.end()) return -1.0;
  return static_cast<double>(cat_it - categories.begin());
}

int TunerModel::predict(const Resolver& resolve) const {
  const auto& names = tree_.feature_names();
  std::vector<double> features(names.size(), -1.0);
  for (std::size_t f = 0; f < names.size(); ++f) {
    features[f] = encode(names[f], resolve(names[f]));
  }
  return tree_.predict(features.data());
}

const std::string& TunerModel::label_name(int label) const {
  return tree_.label_names().at(static_cast<std::size_t>(label));
}

std::vector<std::int64_t> TunerModel::label_values() const {
  std::vector<std::int64_t> values;
  values.reserve(num_labels());
  for (const auto& label : tree_.label_names()) {
    const auto value = parse_label(parameter_, label);
    if (!value) {
      throw std::invalid_argument(
          std::string(tuned_parameter_name(parameter_)) + " label '" + label + "' " +
          (parameter_ == TunedParameter::Policy ? "is neither seq nor omp"
                                                : "is not a non-negative integer in range"));
    }
    values.push_back(*value);
  }
  return values;
}

void TunerModel::save(std::ostream& out) const {
  out << "apollo-model 1\n";
  out << "parameter " << tuned_parameter_name(parameter_) << '\n';
  out << "dicts " << dictionaries_.size() << '\n';
  for (const auto& [feature, categories] : dictionaries_) {
    out << perf::escape_cell(feature);
    for (const auto& category : categories) out << '|' << perf::escape_cell(category);
    out << '\n';
  }
  tree_.save(out);
}

TunerModel TunerModel::load(std::istream& in) {
  std::string magic;
  int version = 0;
  in >> magic >> version;
  if (magic != "apollo-model" || version != 1) {
    throw std::runtime_error("TunerModel::load: bad header");
  }
  TunerModel model;
  std::string keyword, parameter;
  in >> keyword >> parameter;
  if (!in || keyword != "parameter") {
    throw std::runtime_error("TunerModel::load: expected parameter");
  }
  if (parameter == "policy") {
    model.parameter_ = TunedParameter::Policy;
  } else if (parameter == "chunk_size") {
    model.parameter_ = TunedParameter::ChunkSize;
  } else if (parameter == "threads") {
    model.parameter_ = TunedParameter::Threads;
  } else {
    throw std::runtime_error("TunerModel::load: unknown parameter tag '" + parameter + "'");
  }

  long long dict_count = 0;
  in >> keyword >> dict_count;
  if (!in || keyword != "dicts") throw std::runtime_error("TunerModel::load: expected dicts");
  if (dict_count < 0 || dict_count > (1ll << 20)) {
    throw std::runtime_error("TunerModel::load: invalid dict count " +
                             std::to_string(dict_count));
  }
  std::string line;
  std::getline(in, line);  // consume end of the dicts header line
  for (long long d = 0; d < dict_count; ++d) {
    if (!std::getline(in, line)) throw std::runtime_error("TunerModel::load: truncated dicts");
    std::vector<std::string> cells;
    std::size_t pos = 0;
    while (pos <= line.size()) {
      std::size_t end = pos;
      while (end < line.size() && line[end] != '|') {
        if (line[end] == '\\') ++end;
        ++end;
      }
      cells.push_back(perf::unescape_cell(line.substr(pos, end - pos)));
      if (end >= line.size()) break;
      pos = end + 1;
    }
    if (cells.empty()) throw std::runtime_error("TunerModel::load: empty dict line");
    std::vector<std::string> categories(cells.begin() + 1, cells.end());
    model.dictionaries_[cells[0]] = std::move(categories);
  }
  model.tree_ = ml::DecisionTree::load(in);
  try {
    (void)model.label_values();
  } catch (const std::invalid_argument& error) {
    throw std::runtime_error(std::string("TunerModel::load: ") + error.what());
  }
  return model;
}

void TunerModel::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("TunerModel::save_file: cannot open " + path);
  save(out);
}

TunerModel TunerModel::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("TunerModel::load_file: cannot open " + path);
  return load(in);
}

}  // namespace apollo
