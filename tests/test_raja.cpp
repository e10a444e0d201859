// Unit tests for mini-RAJA: segments, IndexSet features, forall backends,
// and the policySwitcher static re-dispatch.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "raja/forall.hpp"
#include "raja/index_set.hpp"
#include "raja/policy_switcher.hpp"
#include "raja/segments.hpp"

using namespace raja;

TEST(Segments, RangeSize) {
  EXPECT_EQ((RangeSegment{3, 10}).size(), 7);
  EXPECT_EQ((RangeSegment{5, 5}).size(), 0);
  EXPECT_EQ((RangeSegment{5, 2}).size(), 0);
}

TEST(Segments, StridedSizeAndIteration) {
  const StridedSegment seg{0, 10, 3};
  EXPECT_EQ(seg.size(), 4);  // 0, 3, 6, 9
  std::vector<Index> seen;
  seg.for_each([&](Index i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<Index>{0, 3, 6, 9}));
}

TEST(Segments, StridedDegenerate) {
  EXPECT_EQ((StridedSegment{0, 10, 0}).size(), 0);
  EXPECT_EQ((StridedSegment{10, 0, 2}).size(), 0);
}

TEST(Segments, ListIteration) {
  const ListSegment seg{{7, 3, 11}};
  EXPECT_EQ(seg.size(), 3);
  std::vector<Index> seen;
  seg.for_each([&](Index i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<Index>{7, 3, 11}));  // order preserved
}

TEST(IndexSet, LengthAcrossSegments) {
  IndexSet iset;
  iset.push_back(RangeSegment{0, 10});
  iset.push_back(ListSegment{{100, 101}});
  iset.push_back(StridedSegment{0, 10, 2});
  EXPECT_EQ(iset.getLength(), 10 + 2 + 5);
  EXPECT_EQ(iset.getNumSegments(), 3u);
}

TEST(IndexSet, TypeName) {
  EXPECT_EQ(IndexSet{}.type_name(), "empty");
  EXPECT_EQ(IndexSet::range(0, 5).type_name(), "range");
  IndexSet lists;
  lists.push_back(ListSegment{{1}});
  EXPECT_EQ(lists.type_name(), "list");
  IndexSet strided;
  strided.push_back(StridedSegment{0, 4, 2});
  EXPECT_EQ(strided.type_name(), "strided");
  IndexSet mixed;
  mixed.push_back(RangeSegment{0, 5});
  mixed.push_back(ListSegment{{9}});
  EXPECT_EQ(mixed.type_name(), "mixed");
}

TEST(IndexSet, Stride) {
  EXPECT_EQ(IndexSet::range(0, 5).stride(), 1);
  IndexSet strided;
  strided.push_back(StridedSegment{0, 20, 4});
  strided.push_back(StridedSegment{100, 120, 4});
  EXPECT_EQ(strided.stride(), 4);
  strided.push_back(StridedSegment{0, 10, 2});
  EXPECT_EQ(strided.stride(), 0);  // disagreement
  IndexSet with_list;
  with_list.push_back(ListSegment{{1, 2}});
  EXPECT_EQ(with_list.stride(), 0);
  EXPECT_EQ(IndexSet{}.stride(), 1);
}

TEST(IndexSet, ForEachIndexOrder) {
  IndexSet iset;
  iset.push_back(RangeSegment{0, 3});
  iset.push_back(ListSegment{{10, 9}});
  std::vector<Index> seen;
  iset.for_each_index([&](Index i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<Index>{0, 1, 2, 10, 9}));
}

namespace {

IndexSet make_mixed_iset() {
  IndexSet iset;
  iset.push_back(RangeSegment{0, 100});
  iset.push_back(StridedSegment{100, 200, 5});
  iset.push_back(ListSegment{{500, 501, 502, 777}});
  return iset;
}

}  // namespace

TEST(Forall, SeqVisitsAll) {
  const IndexSet iset = make_mixed_iset();
  std::vector<int> hits(1000, 0);
  forall(seq_exec{}, iset, [&](Index i) { hits[static_cast<std::size_t>(i)]++; });
  std::int64_t total = std::accumulate(hits.begin(), hits.end(), std::int64_t{0});
  EXPECT_EQ(total, iset.getLength());
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[105], 1);
  EXPECT_EQ(hits[777], 1);
  EXPECT_EQ(hits[101], 0);
}

TEST(Forall, OmpMatchesSeqResults) {
  const IndexSet iset = make_mixed_iset();
  std::vector<double> seq_out(1000, 0.0), omp_out(1000, 0.0);
  forall(seq_exec{}, iset, [&](Index i) { seq_out[static_cast<std::size_t>(i)] = i * 1.5; });
  forall(omp_parallel_for_exec{3, 0}, iset,
         [&](Index i) { omp_out[static_cast<std::size_t>(i)] = i * 1.5; });
  EXPECT_EQ(seq_out, omp_out);
}

TEST(Forall, SegmentParallelMatchesSequential) {
  IndexSet iset;
  for (Index s = 0; s < 12; ++s) {
    iset.push_back(RangeSegment{s * 100, s * 100 + 37});
  }
  iset.push_back(ListSegment{{5000, 5007, 5003}});
  std::vector<double> seq_out(6000, 0.0), par_out(6000, 0.0);
  forall(seq_exec{}, iset, [&](Index i) { seq_out[static_cast<std::size_t>(i)] = i * 2.0; });
  forall(omp_segit_seq_exec{}, iset,
         [&](Index i) { par_out[static_cast<std::size_t>(i)] = i * 2.0; });
  EXPECT_EQ(seq_out, par_out);
}

TEST(Forall, SegmentParallelEmptyIndexSet) {
  int calls = 0;
  forall(omp_segit_seq_exec{}, IndexSet{}, [&](Index) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Forall, TemplateSpellingAndRangeConvenience) {
  std::vector<int> a(50, 0), b(50, 0);
  forall<seq_exec>(IndexSet::range(0, 50), [&](Index i) { a[static_cast<std::size_t>(i)] = 1; });
  forall<omp_parallel_for_exec>(0, 50, [&](Index i) { b[static_cast<std::size_t>(i)] = 1; });
  EXPECT_EQ(a, b);
}

TEST(Forall, RuntimePolicyValue) {
  const IndexSet iset = IndexSet::range(0, 64);
  std::int64_t sum_seq = 0;
  forall(PolicyType::seq_segit_seq_exec, 0, iset, [&](Index i) { sum_seq += i; });
  std::vector<std::int64_t> partial(64, 0);
  forall(PolicyType::seq_segit_omp_parallel_for_exec, 8, iset,
         [&](Index i) { partial[static_cast<std::size_t>(i)] = i; });
  const std::int64_t sum_omp = std::accumulate(partial.begin(), partial.end(), std::int64_t{0});
  EXPECT_EQ(sum_seq, 64 * 63 / 2);
  EXPECT_EQ(sum_omp, sum_seq);
}

TEST(PolicyNames, RoundTrip) {
  EXPECT_STREQ(policy_name(PolicyType::seq_segit_seq_exec), "seq");
  EXPECT_STREQ(policy_name(PolicyType::seq_segit_omp_parallel_for_exec), "omp");
  EXPECT_EQ(policy_from_name("seq"), PolicyType::seq_segit_seq_exec);
  EXPECT_EQ(policy_from_name("omp"), PolicyType::seq_segit_omp_parallel_for_exec);
}

TEST(PolicySwitcher, DispatchesSeq) {
  bool saw_seq = false;
  raja::apollo::policySwitcher(PolicyType::seq_segit_seq_exec, 0, [&](auto exec) {
    saw_seq = std::is_same_v<decltype(exec), seq_exec>;
  });
  EXPECT_TRUE(saw_seq);
}

TEST(PolicySwitcher, DispatchesOmpWithChunk) {
  Index seen_chunk = -1;
  raja::apollo::policySwitcher(PolicyType::seq_segit_omp_parallel_for_exec, 128, [&](auto exec) {
    if constexpr (std::is_same_v<decltype(exec), omp_parallel_for_exec>) {
      seen_chunk = exec.chunk;
    }
  });
  EXPECT_EQ(seen_chunk, 128);
}

TEST(PolicySwitcher, ExecutesKernelThroughDispatch) {
  const IndexSet iset = make_mixed_iset();
  std::vector<int> hits(1000, 0);
  raja::apollo::policySwitcher(PolicyType::seq_segit_omp_parallel_for_exec, 16, [&](auto exec) {
    forall(exec, iset, [&](Index i) { hits[static_cast<std::size_t>(i)]++; });
  });
  const std::int64_t total = std::accumulate(hits.begin(), hits.end(), std::int64_t{0});
  EXPECT_EQ(total, iset.getLength());
}

// --- feature signatures -------------------------------------------------------

TEST(IndexSetSignature, EqualShapesMatchDifferentShapesDiverge) {
  IndexSet a;
  a.push_back(RangeSegment{0, 100});
  a.push_back(StridedSegment{0, 50, 2});
  IndexSet b;
  b.push_back(RangeSegment{500, 600});  // same size, different offsets
  b.push_back(StridedSegment{10, 60, 2});
  EXPECT_EQ(a.feature_signature(), b.feature_signature());
  // Any launch-relevant difference moves the signature.
  IndexSet longer = a;
  longer.push_back(RangeSegment{0, 1});
  EXPECT_NE(a.feature_signature(), longer.feature_signature());
  IndexSet other_stride;
  other_stride.push_back(RangeSegment{0, 100});
  other_stride.push_back(StridedSegment{0, 100, 4});  // same size() = 25? no: size differs too
  EXPECT_NE(a.feature_signature(), other_stride.feature_signature());
  IndexSet as_list;
  as_list.push_back(RangeSegment{0, 100});
  as_list.push_back(ListSegment{{0, 2, 4, 6}});  // kind differs from strided of size 4
  IndexSet as_strided;
  as_strided.push_back(RangeSegment{0, 100});
  as_strided.push_back(StridedSegment{0, 8, 2});  // also 4 indices
  EXPECT_NE(as_list.feature_signature(), as_strided.feature_signature());
}
