// Unit tests for the bounded SampleBuffer: ring wraparound, deferred
// materialization, bounded window copies, producer/consumer safety, and the
// compact by-value Sample that points at its kernel's interned signature.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/features.hpp"
#include "core/kernel.hpp"
#include "online/retrainer.hpp"
#include "online/sample_buffer.hpp"

using apollo::online::Sample;
using apollo::online::SampleBuffer;
namespace features = apollo::features;
namespace instr = apollo::instr;

// Per-kernel constants live in the interned signature, not in each sample.
static_assert(sizeof(Sample) <= 96, "a per-kernel copy crept back into online::Sample");

namespace {

const instr::KernelSignature* buffer_kernel() {
  static const instr::KernelSignature* const kernel = instr::intern_signature(
      {"test:buffer", "BufferKernel", instr::MixBuilder{}.fp(3).load(2).build(), 16});
  return kernel;
}

Sample make_sample(int i) {
  Sample s;
  s.kernel = buffer_kernel();
  s.index_type = raja::IndexType::range;
  s.num_indices = 100 + i;
  s.num_segments = 1;
  s.stride = 1;
  s.policy = raja::PolicyType::seq_segit_seq_exec;
  s.seconds = static_cast<double>(i);
  return s;
}

double seconds_of(const apollo::perf::SampleRecord& record) {
  return record.at(features::kMeasureRuntime).as_real();
}

}  // namespace

TEST(SampleBuffer, GrowsThenWrapsKeepingNewest) {
  SampleBuffer buffer(4);
  for (int i = 0; i < 10; ++i) buffer.push(make_sample(i));
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.total_pushed(), 10u);
  EXPECT_EQ(buffer.dropped(), 6u);

  const auto records = buffer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(seconds_of(records[i]), 6.0 + i);  // oldest first
  }

  // Overwriting the oldest slot in place lets go of its blackboard snapshot.
  const auto app = std::make_shared<const apollo::perf::SampleRecord>();
  Sample with_app = make_sample(10);
  with_app.app = app;
  buffer.push(std::move(with_app));
  EXPECT_EQ(app.use_count(), 2);
  for (int i = 11; i < 15; ++i) buffer.push(make_sample(i));
  EXPECT_EQ(app.use_count(), 1);
}

TEST(SampleBuffer, SnapshotSharedBoundsToNewest) {
  SampleBuffer buffer(8);
  for (int i = 0; i < 6; ++i) buffer.push(make_sample(i));

  const auto newest2 = buffer.snapshot_shared(2);
  ASSERT_EQ(newest2.size(), 2u);
  EXPECT_DOUBLE_EQ(newest2[0].seconds, 4.0);
  EXPECT_DOUBLE_EQ(newest2[1].seconds, 5.0);

  EXPECT_EQ(buffer.snapshot_shared(0).size(), 6u);   // 0 = everything
  EXPECT_EQ(buffer.snapshot_shared(99).size(), 6u);  // clamped to contents
  EXPECT_EQ(buffer.size(), 6u);                      // snapshot is non-destructive
}

TEST(SampleBuffer, SnapshotSharedBoundsAfterWrap) {
  SampleBuffer buffer(4);
  for (int i = 0; i < 7; ++i) buffer.push(make_sample(i));
  const auto newest3 = buffer.snapshot_shared(3);
  ASSERT_EQ(newest3.size(), 3u);
  EXPECT_DOUBLE_EQ(newest3[0].seconds, 4.0);
  EXPECT_DOUBLE_EQ(newest3[2].seconds, 6.0);
}

TEST(SampleBuffer, DrainEmptiesAndPreservesOrder) {
  SampleBuffer buffer(4);
  for (int i = 0; i < 6; ++i) buffer.push(make_sample(i));
  const auto records = buffer.drain();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_DOUBLE_EQ(seconds_of(records.front()), 2.0);
  EXPECT_DOUBLE_EQ(seconds_of(records.back()), 5.0);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.total_pushed(), 6u);  // monotonic across drains
}

TEST(SampleBuffer, SetCapacityKeepsNewest) {
  SampleBuffer buffer(8);
  for (int i = 0; i < 8; ++i) buffer.push(make_sample(i));
  buffer.set_capacity(3);
  const auto records = buffer.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_DOUBLE_EQ(seconds_of(records[0]), 5.0);
  EXPECT_DOUBLE_EQ(seconds_of(records[2]), 7.0);
}

TEST(SampleBuffer, MaterializeBuildsFullRecord) {
  auto app = std::make_shared<const apollo::perf::SampleRecord>(
      apollo::perf::SampleRecord{{features::kTimestep, std::int64_t{42}}});
  Sample s = make_sample(3);
  s.app = app;
  s.chunk = 16;
  s.threads = 4;

  const auto record = s.materialize();
  EXPECT_EQ(record.at(features::kLoopId).as_string(), "test:buffer");
  EXPECT_EQ(record.at(features::kFunc).as_string(), "BufferKernel");
  EXPECT_EQ(record.at(features::kFuncSize).as_int(), 5);
  EXPECT_EQ(record.at("movsd").as_int(), 2);
  EXPECT_EQ(record.at(features::kIndexType).as_string(), "range");
  EXPECT_EQ(record.at(features::kMeasureBytesPerIter).as_int(), 16);
  EXPECT_EQ(record.at(features::kNumIndices).as_int(), 103);
  EXPECT_EQ(record.at(features::kTimestep).as_int(), 42);
  EXPECT_EQ(record.at(features::kParamPolicy).as_string(), raja::policy_name(s.policy));
  EXPECT_EQ(record.at(features::kParamChunk).as_int(), 16);
  EXPECT_EQ(record.at(features::kParamThreads).as_int(), 4);
  EXPECT_DOUBLE_EQ(seconds_of(record), 3.0);

  // threads == 0 (the common case) must not invent a threads parameter.
  EXPECT_EQ(make_sample(0).materialize().count(features::kParamThreads), 0u);
}

TEST(SampleBuffer, DrainConcurrentWithPushesLosesNothing) {
  // Runtime::flush_records' path: one producer keeps pushing while the
  // drainer repeatedly empties the buffer. With capacity above the push
  // count, every sample must come out exactly once, in order.
  constexpr int kPushes = 20000;
  SampleBuffer buffer(kPushes);
  std::vector<apollo::perf::SampleRecord> drained;
  const auto drain = [&] {
    for (auto& record : buffer.drain()) drained.push_back(std::move(record));
  };
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (int i = 0; i < kPushes; ++i) buffer.push(make_sample(i));
    done.store(true);
  });
  while (!done.load() || !buffer.empty()) drain();
  producer.join();
  drain();

  EXPECT_EQ(buffer.total_pushed(), static_cast<std::uint64_t>(kPushes));
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(kPushes));
  for (int i = 0; i < kPushes; ++i) {
    ASSERT_DOUBLE_EQ(seconds_of(drained[static_cast<std::size_t>(i)]), static_cast<double>(i));
  }
}

TEST(SampleBuffer, ConcurrentPushSnapshotDrain) {
  SampleBuffer buffer(64);
  constexpr int kPushes = 4000;

  std::thread producer([&] {
    for (int i = 0; i < kPushes; ++i) buffer.push(make_sample(i));
  });
  std::thread reader([&] {
    for (int i = 0; i < 200; ++i) {
      const auto shared = buffer.snapshot_shared(16);
      for (const auto& sample : shared) EXPECT_GE(sample.seconds, 0.0);
    }
  });
  std::thread drainer([&] {
    for (int i = 0; i < 50; ++i) (void)buffer.drain();
  });
  producer.join();
  reader.join();
  drainer.join();

  EXPECT_EQ(buffer.total_pushed(), static_cast<std::uint64_t>(kPushes));
  EXPECT_LE(buffer.size(), 64u);
}

TEST(SampleBuffer, HandlesSharingALoopIdKeepTheirOwnMix) {
  // Interning keys on the whole signature: one loop id with two mixes is two
  // kernels, and their launches never merge into one training record.
  const apollo::KernelHandle a{"test:shared_id", "Shared", instr::MixBuilder{}.fp(1).build(), 8};
  const apollo::KernelHandle b{"test:shared_id", "Shared", instr::MixBuilder{}.fp(9).build(), 8};
  const apollo::KernelHandle a_again{"test:shared_id", "Shared",
                                     instr::MixBuilder{}.fp(1).build(), 8};
  ASSERT_NE(a.signature(), b.signature());
  EXPECT_EQ(a.signature(), a_again.signature());

  std::vector<Sample> window;
  for (const auto* kernel : {a.signature(), b.signature(), a.signature(), b.signature()}) {
    Sample s = make_sample(0);
    s.kernel = kernel;
    s.seconds = 1.0;
    window.push_back(s);
  }
  EXPECT_EQ(window[0].materialize().at("mulpd").as_int(), 0);
  EXPECT_EQ(window[1].materialize().at("mulpd").as_int(), 4);

  const auto collapsed = apollo::online::collapse_window(window);
  ASSERT_EQ(collapsed.size(), 2u);
  for (const auto& record : collapsed) {
    EXPECT_EQ(record.at(features::kLoopId).as_string(), "test:shared_id");
    EXPECT_EQ(record.at(features::kMeasureCount).as_int(), 2);
    EXPECT_DOUBLE_EQ(seconds_of(record), 2.0);
  }
  EXPECT_EQ(collapsed[0].at(features::kFuncSize).as_int(), 1);  // a's group ends first
  EXPECT_EQ(collapsed[1].at(features::kFuncSize).as_int(), 9);
}
