// Unit tests for the perf (mini-Caliper) substrate: typed values, the
// attribute blackboard, scoped annotations, and record serialization.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "perf/blackboard.hpp"
#include "perf/record.hpp"
#include "perf/timer.hpp"
#include "perf/value.hpp"

namespace perf = apollo::perf;

TEST(Value, IntRoundTrip) {
  const perf::Value v(std::int64_t{-42});
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.as_int(), -42);
  EXPECT_DOUBLE_EQ(v.as_number(), -42.0);
  EXPECT_EQ(perf::Value::decode(v.encode()), v);
}

TEST(Value, RealRoundTrip) {
  const perf::Value v(3.25);
  EXPECT_TRUE(v.is_real());
  EXPECT_DOUBLE_EQ(v.as_real(), 3.25);
  EXPECT_EQ(perf::Value::decode(v.encode()), v);
}

TEST(Value, StringRoundTrip) {
  const perf::Value v(std::string("sedov"));
  EXPECT_TRUE(v.is_string());
  EXPECT_EQ(v.as_string(), "sedov");
  EXPECT_EQ(perf::Value::decode(v.encode()), v);
}

TEST(Value, StringAsNumberThrows) {
  const perf::Value v("text");
  EXPECT_THROW((void)v.as_number(), std::runtime_error);
}

TEST(Value, DecodeMalformedThrows) {
  EXPECT_THROW((void)perf::Value::decode("x:1"), std::runtime_error);
  EXPECT_THROW((void)perf::Value::decode(""), std::runtime_error);
  EXPECT_THROW((void)perf::Value::decode("i"), std::runtime_error);
}

TEST(Value, SizeAndIntConstructorsAreInt) {
  EXPECT_TRUE(perf::Value(std::size_t{7}).is_int());
  EXPECT_TRUE(perf::Value(7).is_int());
  EXPECT_EQ(perf::Value(std::size_t{7}).as_int(), 7);
}

class BlackboardTest : public ::testing::Test {
protected:
  void SetUp() override { perf::Blackboard::instance().clear(); }
  void TearDown() override { perf::Blackboard::instance().clear(); }
};

TEST_F(BlackboardTest, SetGetUnset) {
  auto& board = perf::Blackboard::instance();
  EXPECT_FALSE(board.get("timestep").has_value());
  board.set("timestep", 10);
  ASSERT_TRUE(board.get("timestep").has_value());
  EXPECT_EQ(board.get("timestep")->as_int(), 10);
  board.unset("timestep");
  EXPECT_FALSE(board.get("timestep").has_value());
}

TEST_F(BlackboardTest, SnapshotIsolation) {
  auto& board = perf::Blackboard::instance();
  board.set("a", 1);
  auto snap = board.snapshot();
  board.set("b", 2);
  EXPECT_EQ(snap.size(), 1u);
  EXPECT_EQ(board.snapshot().size(), 2u);
}

TEST_F(BlackboardTest, ScopedAnnotationRestoresPrevious) {
  auto& board = perf::Blackboard::instance();
  board.set("problem_name", "outer");
  {
    perf::ScopedAnnotation inner("problem_name", "inner");
    EXPECT_EQ(board.get("problem_name")->as_string(), "inner");
  }
  EXPECT_EQ(board.get("problem_name")->as_string(), "outer");
}

TEST_F(BlackboardTest, ScopedAnnotationRemovesFresh) {
  auto& board = perf::Blackboard::instance();
  {
    perf::ScopedAnnotation a("fresh", 1);
    EXPECT_TRUE(board.get("fresh").has_value());
  }
  EXPECT_FALSE(board.get("fresh").has_value());
}

TEST_F(BlackboardTest, NestedAnnotations) {
  auto& board = perf::Blackboard::instance();
  perf::ScopedAnnotation a("k", 1);
  {
    perf::ScopedAnnotation b("k", 2);
    {
      perf::ScopedAnnotation c("k", 3);
      EXPECT_EQ(board.get("k")->as_int(), 3);
    }
    EXPECT_EQ(board.get("k")->as_int(), 2);
  }
  EXPECT_EQ(board.get("k")->as_int(), 1);
}

TEST_F(BlackboardTest, ConcurrentAccessIsSafe) {
  auto& board = perf::Blackboard::instance();
  std::thread writer([&] {
    for (int i = 0; i < 2000; ++i) board.set("key" + std::to_string(i % 7), i);
  });
  for (int i = 0; i < 2000; ++i) (void)board.snapshot();
  writer.join();
  EXPECT_EQ(board.snapshot().size(), 7u);
}

TEST(RecordEscape, RoundTripSpecialCharacters) {
  const std::string raw = "a|b=c\\d\ne";
  EXPECT_EQ(perf::unescape_cell(perf::escape_cell(raw)), raw);
}

TEST(RecordEscape, DanglingEscapeThrows) {
  EXPECT_THROW((void)perf::unescape_cell("abc\\"), std::runtime_error);
  EXPECT_THROW((void)perf::unescape_cell("\\q"), std::runtime_error);
}

TEST(Record, EncodeDecodeRoundTrip) {
  perf::SampleRecord record;
  record["num_indices"] = std::int64_t{1024};
  record["measure:runtime"] = 1.5e-6;
  record["problem_name"] = "triple|point=weird";
  const perf::SampleRecord decoded = perf::decode_record(perf::encode_record(record));
  EXPECT_EQ(decoded, record);
}

TEST(Record, StreamRoundTripMultiple) {
  std::vector<perf::SampleRecord> records(3);
  records[0]["a"] = 1;
  records[1]["b"] = 2.5;
  records[2]["c"] = "str";
  std::stringstream stream;
  perf::write_records(stream, records);
  const auto back = perf::read_records(stream);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], records[0]);
  EXPECT_EQ(back[2], records[2]);
}

TEST(Record, MissingEqualsThrows) {
  EXPECT_THROW((void)perf::decode_record("novalue"), std::runtime_error);
}

TEST(Record, FileRoundTripAndAppend) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "apollo_test_records.txt").string();
  std::filesystem::remove(path);
  std::vector<perf::SampleRecord> first(1), second(1);
  first[0]["x"] = 1;
  second[0]["x"] = 2;
  perf::append_records_file(path, first);
  perf::append_records_file(path, second);
  const auto all = perf::read_records_file(path);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].at("x").as_int(), 1);
  EXPECT_EQ(all[1].at("x").as_int(), 2);
  std::filesystem::remove(path);
}

TEST(Record, ReadMissingFileThrows) {
  EXPECT_THROW((void)perf::read_records_file("/nonexistent/apollo/file.txt"), std::runtime_error);
}

TEST(Timer, StopwatchMeasuresElapsed) {
  perf::Stopwatch watch;
  watch.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double elapsed = watch.stop();
  EXPECT_GE(elapsed, 0.004);
  EXPECT_LT(elapsed, 5.0);
}

TEST_F(BlackboardTest, GenerationTracksMutations) {
  auto& board = perf::Blackboard::instance();
  const auto start = board.generation();

  board.set("gen_key", 1);
  EXPECT_EQ(board.generation(), start + 1);
  board.set("gen_key", 2);  // overwrite counts: the value changed
  EXPECT_EQ(board.generation(), start + 2);

  board.unset("gen_key");
  EXPECT_EQ(board.generation(), start + 3);
  board.unset("gen_key");  // removing a missing key changes nothing
  EXPECT_EQ(board.generation(), start + 3);

  board.clear();
  EXPECT_EQ(board.generation(), start + 4);
}

TEST_F(BlackboardTest, SnapshotSharedIsCachedUntilMutation) {
  auto& board = perf::Blackboard::instance();
  board.set("cache_key", 7);

  const auto first = board.snapshot_shared();
  const auto second = board.snapshot_shared();
  EXPECT_EQ(first.get(), second.get());  // unchanged board: same snapshot object
  EXPECT_EQ(first->at("cache_key").as_int(), 7);

  board.set("cache_key", 8);
  const auto third = board.snapshot_shared();
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(third->at("cache_key").as_int(), 8);
  // The old snapshot is immutable: it still holds the value it captured.
  EXPECT_EQ(first->at("cache_key").as_int(), 7);
}
