#pragma once

// IndexSet: an ordered collection of segments describing a kernel's iteration
// space. The Apollo kernel features `num_indices`, `num_segments`, `stride`
// and `index_type` (Table I) are all derived from this object.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <variant>
#include <vector>

#include "raja/segments.hpp"

namespace raja {

/// The Table I `index_type` feature as a one-byte code; index_type_name
/// gives the string a record stores.
enum class IndexType : std::uint8_t { empty, range, strided, list, mixed };

[[nodiscard]] constexpr std::string_view index_type_name(IndexType type) noexcept {
  constexpr std::string_view kNames[] = {"empty", "range", "strided", "list", "mixed"};
  return kNames[static_cast<std::size_t>(type)];
}

class IndexSet {
public:
  using Segment = std::variant<RangeSegment, StridedSegment, ListSegment>;

  IndexSet() = default;

  /// Convenience: a single contiguous range [0, n) or [begin, end).
  static IndexSet range(Index begin, Index end) {
    IndexSet iset;
    iset.push_back(RangeSegment{begin, end});
    return iset;
  }

  void push_back(RangeSegment segment) { segments_.emplace_back(segment); }
  void push_back(StridedSegment segment) { segments_.emplace_back(segment); }
  void push_back(ListSegment segment) { segments_.emplace_back(std::move(segment)); }

  [[nodiscard]] std::size_t getNumSegments() const noexcept { return segments_.size(); }
  [[nodiscard]] const Segment& segment(std::size_t s) const { return segments_[s]; }

  /// Total number of indices across all segments.
  [[nodiscard]] Index getLength() const noexcept {
    Index total = 0;
    for (const Segment& seg : segments_) {
      std::visit([&](const auto& typed) { total += typed.size(); }, seg);
    }
    return total;
  }

  /// Common stride across segments: 1 for pure ranges, the shared stride for
  /// strided segments, 0 when segments disagree or contain index lists.
  [[nodiscard]] Index stride() const noexcept {
    Index common = -1;
    for (const Segment& seg : segments_) {
      Index s = 0;
      if (std::holds_alternative<RangeSegment>(seg)) {
        s = 1;
      } else if (const auto* strided = std::get_if<StridedSegment>(&seg)) {
        s = strided->stride;
      } else {
        return 0;  // list segment: no uniform stride
      }
      if (common == -1) {
        common = s;
      } else if (common != s) {
        return 0;
      }
    }
    return common == -1 ? 1 : common;
  }

  /// Table I `index_type` feature: which kinds of segment the set holds.
  [[nodiscard]] IndexType type() const noexcept {
    bool has_range = false, has_list = false, has_strided = false;
    for (const Segment& seg : segments_) {
      has_range |= std::holds_alternative<RangeSegment>(seg);
      has_strided |= std::holds_alternative<StridedSegment>(seg);
      has_list |= std::holds_alternative<ListSegment>(seg);
    }
    const int kinds = int(has_range) + int(has_list) + int(has_strided);
    if (kinds == 0) return IndexType::empty;
    if (kinds > 1) return IndexType::mixed;
    if (has_range) return IndexType::range;
    if (has_strided) return IndexType::strided;
    return IndexType::list;
  }
  [[nodiscard]] std::string_view type_name() const noexcept { return index_type_name(type()); }

  /// Order-preserving hash of the launch-relevant shape: per-segment kind,
  /// size, and stride. Two index sets with equal signatures resolve every
  /// IndexSet-derived model feature identically, which is what the runtime's
  /// per-site inline cache keys on. (List segments hash their length, not
  /// their contents — the tuning features never read individual indices.)
  [[nodiscard]] std::uint64_t feature_signature() const noexcept {
    std::uint64_t hash = 0x9e3779b97f4a7c15ULL + segments_.size();
    const auto mix = [&hash](std::uint64_t value) {
      hash ^= value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2);
    };
    for (const Segment& entry : segments_) {
      std::visit(
          [&](const auto& seg) {
            using Seg = std::decay_t<decltype(seg)>;
            if constexpr (std::is_same_v<Seg, RangeSegment>) {
              mix(1);
              mix(static_cast<std::uint64_t>(seg.size()));
            } else if constexpr (std::is_same_v<Seg, StridedSegment>) {
              mix(2);
              mix(static_cast<std::uint64_t>(seg.size()));
              mix(static_cast<std::uint64_t>(seg.stride));
            } else {
              mix(3);
              mix(static_cast<std::uint64_t>(seg.size()));
            }
          },
          entry);
    }
    return hash;
  }

  /// Sequential traversal of every index, segment order preserved.
  template <typename Body>
  void for_each_index(Body&& body) const {
    for (const Segment& entry : segments_) {
      std::visit([&](const auto& seg) { seg.for_each(body); }, entry);
    }
  }

private:
  std::vector<Segment> segments_;
};

}  // namespace raja
