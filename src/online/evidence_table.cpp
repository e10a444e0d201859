#include "online/evidence_table.hpp"

#include <algorithm>

namespace apollo::online {

BestVariant EvidenceTable::observe(std::uint64_t bucket_key, std::uint64_t variant,
                                   double seconds) {
  if (last_ == nullptr || last_->first != bucket_key) {
    last_ = &*buckets_.try_emplace(bucket_key).first;
  }
  Bucket& bucket = last_->second;
  const auto entry = std::find_if(bucket.begin(), bucket.end(),
                                  [variant](const Entry& e) { return e.variant == variant; });
  if (entry == bucket.end()) {
    bucket.push_back({variant, seconds});
  } else {
    entry->seconds += kAlpha * (seconds - entry->seconds);
  }
  BestVariant best{bucket.front().seconds, bucket.front().variant};
  for (const Entry& e : bucket) {
    if (e.seconds < best.seconds) best = {e.seconds, e.variant};
  }
  return best;
}

const EvidenceTable::Bucket* EvidenceTable::find(std::uint64_t bucket) const {
  const auto it = buckets_.find(bucket);
  return it == buckets_.end() ? nullptr : &it->second;
}

double EvidenceTable::baseline(std::uint64_t bucket, std::uint64_t variant) const {
  if (const Bucket* entries = find(bucket)) {
    for (const Entry& e : *entries) {
      if (e.variant == variant) return e.seconds;
    }
  }
  return -1.0;
}

double EvidenceTable::best(std::uint64_t bucket) const {
  const Bucket* entries = find(bucket);
  if (entries == nullptr || entries->empty()) return -1.0;
  double best = entries->front().seconds;
  for (const Entry& e : *entries) best = std::min(best, e.seconds);
  return best;
}

void EvidenceTable::clear() noexcept {
  buckets_.clear();
  last_ = nullptr;
}

}  // namespace apollo::online
