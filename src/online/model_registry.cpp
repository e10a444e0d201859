#include "online/model_registry.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "telemetry/telemetry.hpp"

namespace apollo::online {

namespace fs = std::filesystem;

namespace {

std::string version_file_name(std::uint64_t version, const char* parameter) {
  char name[64];
  std::snprintf(name, sizeof(name), "v%06llu.%s.model",
                static_cast<unsigned long long>(version), parameter);
  return name;
}

std::optional<TunerModel> load_if_present(const fs::path& path) {
  if (!fs::exists(path)) return std::nullopt;
  return TunerModel::load_file(path.string());
}

/// Throws std::invalid_argument unless each model sits in the slot of the
/// parameter it was fitted for and every label names a value of that
/// parameter: a generation the registry holds must compile at the next Adapt
/// launch.
void validate(const ModelSnapshot& snapshot) {
  const auto check = [](const std::optional<TunerModel>& model, TunedParameter slot) {
    if (!model) return;
    if (model->parameter() != slot) {
      throw std::invalid_argument(std::string("ModelRegistry: ") +
                                  tuned_parameter_name(model->parameter()) + " model in the " +
                                  tuned_parameter_name(slot) + " slot");
    }
    (void)model->label_values();
  };
  check(snapshot.policy, TunedParameter::Policy);
  check(snapshot.chunk, TunedParameter::ChunkSize);
}

}  // namespace

void ModelRegistry::set_persist_dir(std::string dir) {
  std::lock_guard lock(mutex_);
  dir_ = std::move(dir);
  if (!dir_.empty()) fs::create_directories(dir_);
}

std::string ModelRegistry::persist_dir() const {
  std::lock_guard lock(mutex_);
  return dir_;
}

std::shared_ptr<const ModelSnapshot> ModelRegistry::current() const {
  std::lock_guard lock(mutex_);
  return current_;
}

std::uint64_t ModelRegistry::publish(std::optional<TunerModel> policy,
                                     std::optional<TunerModel> chunk) {
  std::lock_guard lock(mutex_);
  auto next = std::make_shared<ModelSnapshot>();
  next->version = (current_ ? current_->version : 0) + 1;
  next->policy = policy ? std::move(policy) : (current_ ? current_->policy : std::nullopt);
  next->chunk = chunk ? std::move(chunk) : (current_ ? current_->chunk : std::nullopt);
  validate(*next);
  if (!dir_.empty()) persist_locked(*next);
  current_ = std::move(next);
  version_.store(current_->version, std::memory_order_release);
  if (telemetry::enabled()) {
    telemetry::MetricsRegistry::instance()
        .gauge("apollo_model_registry_version", "Latest model generation published.")
        .set(static_cast<double>(current_->version));
  }
  return current_->version;
}

void ModelRegistry::persist_locked(const ModelSnapshot& snapshot) const {
  const fs::path dir(dir_);
  if (snapshot.policy) {
    snapshot.policy->save_file((dir / version_file_name(snapshot.version, "policy")).string());
  }
  if (snapshot.chunk) {
    snapshot.chunk->save_file((dir / version_file_name(snapshot.version, "chunk")).string());
  }
  // The LATEST pointer is written to a temp file and renamed so a crash
  // mid-write leaves the previous generation installed, never a torn file.
  const fs::path marker = dir / "LATEST";
  const fs::path tmp = dir / "LATEST.tmp";
  {
    std::ofstream out(tmp);
    if (!out) throw std::runtime_error("ModelRegistry: cannot write " + tmp.string());
    out << snapshot.version << '\n';
  }
  fs::rename(tmp, marker);
}

std::uint64_t ModelRegistry::load_latest() {
  std::lock_guard lock(mutex_);
  if (dir_.empty()) return 0;
  const fs::path marker = fs::path(dir_) / "LATEST";
  std::ifstream in(marker);
  if (!in) return 0;
  std::uint64_t version = 0;
  in >> version;
  if (version == 0) return 0;

  auto snapshot = std::make_shared<ModelSnapshot>();
  snapshot->version = version;
  const fs::path dir(dir_);
  snapshot->policy = load_if_present(dir / version_file_name(version, "policy"));
  snapshot->chunk = load_if_present(dir / version_file_name(version, "chunk"));
  validate(*snapshot);
  if (snapshot->empty()) return 0;
  current_ = std::move(snapshot);
  version_.store(version, std::memory_order_release);
  return version;
}

}  // namespace apollo::online
