#include "telemetry/quality.hpp"

#include <algorithm>

namespace apollo::telemetry {

QualityAccountant::QualityAccountant(QualityConfig config) : config_(config) {}

void QualityAccountant::configure(QualityConfig config) { config_ = config; }

QualityAccountant::Ewma& QualityAccountant::ewma_for(Bucket& bucket, std::uint64_t variant) {
  for (auto& [key, ewma] : bucket.variants) {
    if (key == variant) return ewma;
  }
  bucket.variants.emplace_back(variant, Ewma{});
  return bucket.variants.back().second;
}

void QualityAccountant::update_baseline(Bucket& bucket, std::uint64_t variant, double seconds) {
  Ewma& ewma = ewma_for(bucket, variant);
  if (!ewma.seeded) {
    ewma.value = seconds;
    ewma.seeded = true;
  } else {
    ewma.value += config_.baseline_alpha * (seconds - ewma.value);
  }
}

QualityAccountant::KernelState& QualityAccountant::state_for(const std::string& kernel) {
  if (last_state_ != nullptr && kernel == *last_key_) return *last_state_;
  const auto it = kernels_.try_emplace(kernel).first;
  last_key_ = &it->first;
  last_state_ = &it->second;
  return it->second;
}

QualityAccountant::Bucket& QualityAccountant::bucket_for(KernelState& state,
                                                         std::uint64_t bucket_key) {
  if (state.last_bucket != nullptr && state.last_bucket_key == bucket_key) {
    return *state.last_bucket;
  }
  Bucket& bucket = state.buckets[bucket_key];  // node-based: address is stable
  state.last_bucket_key = bucket_key;
  state.last_bucket = &bucket;
  return bucket;
}

double QualityAccountant::observe_choice(const std::string& kernel, std::uint64_t bucket_key,
                                         std::uint64_t variant, double seconds, bool chosen) {
  KernelState& state = state_for(kernel);
  Bucket& bucket = bucket_for(state, bucket_key);
  update_baseline(bucket, variant, seconds);
  if (!chosen) return 0.0;

  // Score against the freshest evidence, including this launch's own update:
  // a launch on the (currently) best variant scores as an agreement with
  // zero regret; regret is how far the observed runtime sits above the
  // best-known baseline for comparable launches.
  double best = -1.0;
  std::uint64_t best_variant = variant;
  for (const auto& [key, ewma] : bucket.variants) {
    if (ewma.seeded && (best < 0.0 || ewma.value < best)) {
      best = ewma.value;
      best_variant = key;
    }
  }
  state.totals.launches += 1;
  if (best_variant == variant) state.totals.agreements += 1;
  const double regret = best >= 0.0 && seconds > best ? seconds - best : 0.0;
  state.totals.regret_seconds += regret;
  total_regret_ += regret;
  return regret;
}

void QualityAccountant::record_probe(const std::string& kernel, std::uint64_t bucket_key,
                                     std::uint64_t variant, double seconds) {
  KernelState& state = state_for(kernel);
  update_baseline(bucket_for(state, bucket_key), variant, seconds);
  state.totals.probes += 1;
  total_probes_ += 1;
}

void QualityAccountant::observe_calibration(const std::string& kernel, double predicted_seconds,
                                            double observed_seconds) {
  KernelState& state = state_for(kernel);
  state.totals.predicted_seconds += predicted_seconds;
  state.totals.observed_seconds += observed_seconds;
  state.totals.calibration_samples += 1;
}

double QualityAccountant::baseline(const std::string& kernel, std::uint64_t bucket_key,
                                   std::uint64_t variant) const {
  const auto kernel_it = kernels_.find(kernel);
  if (kernel_it == kernels_.end()) return -1.0;
  const auto bucket_it = kernel_it->second.buckets.find(bucket_key);
  if (bucket_it == kernel_it->second.buckets.end()) return -1.0;
  for (const auto& [key, ewma] : bucket_it->second.variants) {
    if (key == variant) return ewma.seeded ? ewma.value : -1.0;
  }
  return -1.0;
}

double QualityAccountant::best_baseline(const std::string& kernel, std::uint64_t bucket_key) const {
  const auto kernel_it = kernels_.find(kernel);
  if (kernel_it == kernels_.end()) return -1.0;
  const auto bucket_it = kernel_it->second.buckets.find(bucket_key);
  if (bucket_it == kernel_it->second.buckets.end()) return -1.0;
  double best = -1.0;
  for (const auto& [key, ewma] : bucket_it->second.variants) {
    (void)key;
    if (ewma.seeded && (best < 0.0 || ewma.value < best)) best = ewma.value;
  }
  return best;
}

const KernelQuality* QualityAccountant::kernel(const std::string& loop_id) const {
  if (last_state_ != nullptr && loop_id == *last_key_) return &last_state_->totals;
  auto& self = *const_cast<QualityAccountant*>(this);  // cache fill only
  const auto it = self.kernels_.find(loop_id);
  if (it == self.kernels_.end()) return nullptr;
  last_key_ = &it->first;
  last_state_ = &it->second;
  return &it->second.totals;
}

std::vector<std::pair<std::string, KernelQuality>> QualityAccountant::snapshot() const {
  std::vector<std::pair<std::string, KernelQuality>> out;
  out.reserve(kernels_.size());
  for (const auto& [name, state] : kernels_) {
    out.emplace_back(name, state.totals);
  }
  return out;
}

void QualityAccountant::clear() {
  kernels_.clear();
  last_key_ = nullptr;
  last_state_ = nullptr;
  total_probes_ = 0;
  total_regret_ = 0.0;
}

}  // namespace apollo::telemetry
