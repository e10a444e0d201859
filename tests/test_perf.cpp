// Unit tests for the perf (mini-Caliper) substrate: typed values, the
// attribute blackboard, scoped annotations, and record serialization,
// including prefix and bit-flip sweeps over a records-file line.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

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

namespace {

/// The std::runtime_error message decode_record gives for `line`; any other
/// outcome fails the test.
std::string decode_error(const std::string& line) {
  try {
    (void)perf::decode_record(line);
  } catch (const std::runtime_error& error) {
    return error.what();
  } catch (const std::exception& error) {
    ADD_FAILURE() << line << ": threw something other than std::runtime_error: "
                  << error.what();
    return {};
  }
  ADD_FAILURE() << line << ": decoded";
  return {};
}

}  // namespace

TEST(Record, DamagedCellsThrowRuntimeErrorNamingTheText) {
  // Each line pairs with the text its error must name.
  const std::pair<std::string, std::string> cases[] = {
      // A number must fill its body: no trailing bytes, no leading space or
      // '+' (the encoder writes neither).
      {"num_indices=i:512x", "'512x'"},
      {"measure:runtime=r:1.5e-3junk", "'1.5e-3junk'"},
      {"num_indices=i: 12", "' 12'"},
      {"num_indices=i:+12", "'+12'"},
      {"measure:runtime=r: 1.5", "' 1.5'"},
      {"measure:runtime=r:+1.5", "'+1.5'"},
      // Not a number, no number, and one beyond int64.
      {"num_indices=i:abc", "'abc'"},
      {"num_indices=i:", "integer ''"},
      {"num_indices=i:99999999999999999999", "'99999999999999999999'"},
      {"measure:runtime=r:", "real ''"},
      // One flipped bit of "unpckhpd" repeats the next key.
      {"unpcklpd=i:0|stride=i:4|unpcklpd=i:0", "'unpcklpd'"},
      // One flipped '|' merges two cells around a second unescaped '='.
      {"func=s:FullRecord}func_size=i:10", "func=s:FullRecord}func_size=i:10"},
      {"func=s:Full\\q", "Full\\q"},
  };
  for (const auto& [line, named] : cases) {
    EXPECT_NE(decode_error(line).find(named), std::string::npos) << line << " names " << named;
  }
}

// --- Mutation sweeps over a full record line --------------------------------
//
// A torn or corrupted records file must never hand apollo_train a record it
// cannot reproduce: every damaged line either throws std::runtime_error or
// decodes to a record that survives its own encoding.

namespace {

/// The 43-key line RuntimeTest.RecordLaunchMaterializesTheFullRecord pins:
/// every kernel and instruction feature, the launch shape, the variant, the
/// measurement and a blackboard attribute.
const std::string kFullRecordLine =
    "add=i:2|and=i:0|call=i:0|cmp=i:0|comisd=i:0|divsd=i:1|func=s:FullRecord|"
    "func_size=i:10|inc=i:0|index_type=s:strided|jb=i:0|lea=i:0|loop=i:0|"
    "loop_id=s:test:full_record|maxsd=i:0|measure:bytes_per_iter=i:40|"
    "measure:runtime=r:1.2406604511956446e-05|minsd=i:0|mov=i:2|movsd=i:4|mulpd=i:1|"
    "nop=i:0|num_indices=i:150|num_segments=i:2|param:chunk_size=i:0|param:policy=s:omp|"
    "param:threads=i:4|pop=i:0|problem_name=s:sedov|push=i:0|pxor=i:0|ret=i:0|sar=i:0|"
    "shl=i:0|sqrtsd=i:0|stride=i:4|sub=i:0|test=i:0|ucomisd=i:0|unpckhpd=i:0|"
    "unpcklpd=i:0|xor=i:0|xorps=i:0";

/// True when `line` decodes, to a record that survives its own encoding;
/// false when it throws std::runtime_error. Any other exception fails.
bool decodes_stably(const std::string& line, const std::string& what) {
  perf::SampleRecord record;
  try {
    record = perf::decode_record(line);
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << what << ": threw something other than std::runtime_error: "
                  << error.what();
    return false;
  }
  EXPECT_EQ(perf::decode_record(perf::encode_record(record)), record) << what;
  return true;
}

}  // namespace

TEST(RecordFuzz, EveryStrictPrefixThrowsOrRoundTrips) {
  ASSERT_EQ(perf::decode_record(kFullRecordLine).size(), 43u);
  ASSERT_EQ(perf::encode_record(perf::decode_record(kFullRecordLine)), kFullRecordLine);
  std::size_t decoded = 0;
  for (std::size_t cut = 0; cut < kFullRecordLine.size(); ++cut) {
    if (decodes_stably(kFullRecordLine.substr(0, cut), "prefix " + std::to_string(cut))) {
      ++decoded;
    }
  }
  // Cuts after a whole number or inside a string decode; cuts inside a key,
  // a tag or a number's sign or exponent do not.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, kFullRecordLine.size());
}

TEST(RecordFuzz, EverySingleBitFlipThrowsOrRoundTrips) {
  std::size_t decoded = 0;
  for (std::size_t byte = 0; byte < kFullRecordLine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = kFullRecordLine;
      flipped[byte] = static_cast<char>(static_cast<unsigned char>(flipped[byte]) ^ (1u << bit));
      if (decodes_stably(flipped, "byte " + std::to_string(byte) + " bit " + std::to_string(bit))) {
        ++decoded;
      }
    }
  }
  // Flips in a key's or a string's letters and in a number's digits decode;
  // flips in a separator, a tag or a digit turned letter do not.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, kFullRecordLine.size() * 8);
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
