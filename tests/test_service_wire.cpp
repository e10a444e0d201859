// Wire-format hardening tests for the service protocol: every frame type
// round-trips, and every corruption a hostile or glitchy peer can produce —
// truncation at any byte, bit flips, oversized lengths, unknown types,
// varint overflow, dangling string indices — dies as a WireError (and, at
// the transport layer, a cleanly closed connection), never a crash or a
// partially-decoded frame.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/features.hpp"
#include "perf/record.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"

using namespace apollo::service;
namespace perf = apollo::perf;
namespace features = apollo::features;

namespace {

perf::SampleRecord make_record(int i) {
  perf::SampleRecord record;
  record[features::kLoopId] = perf::Value(std::string("wire:kernel") + std::to_string(i % 3));
  record[features::kNumIndices] = perf::Value(std::int64_t{1000} * (i + 1));
  record[features::kParamPolicy] = perf::Value(std::string(i % 2 == 0 ? "seq" : "omp"));
  record[features::kMeasureRuntime] = perf::Value(0.25 * (i + 1));
  record["negative"] = perf::Value(std::int64_t{-42} * i);
  return record;
}

std::vector<perf::SampleRecord> make_records(int n) {
  std::vector<perf::SampleRecord> records;
  records.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) records.push_back(make_record(i));
  return records;
}

SampleBatch make_batch(std::uint64_t seq, std::vector<perf::SampleRecord> records) {
  SampleBatch batch;
  batch.seq = seq;
  batch.records = std::move(records);
  return batch;
}

/// Decode `payload` as frame type `type`; used by the truncation sweeps.
void decode_as(FrameType type, std::string_view payload) {
  switch (type) {
    case FrameType::Hello: (void)decode_hello(payload); break;
    case FrameType::SampleBatch: (void)decode_sample_batch(payload); break;
    case FrameType::ModelPush: (void)decode_model_push(payload); break;
    case FrameType::Ack: (void)decode_ack(payload); break;
    case FrameType::Stats: (void)decode_stats(payload); break;
  }
}

/// The message of the WireError `decode` throws; empty when it throws none.
template <typename Decode>
std::string wire_error(Decode decode) {
  try {
    decode();
  } catch (const WireError& error) {
    return error.what();
  }
  return "";
}

/// A connected AF_UNIX stream pair; `raw` stays a plain fd so tests can
/// inject malformed bytes beneath the framing layer.
struct ConnPair {
  ConnPair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    conn = FrameConn(fds[0]);
    raw = fds[1];
  }
  ~ConnPair() { close_fd(raw); }

  void inject(std::string_view bytes) const {
    ASSERT_EQ(::send(raw, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  FrameConn conn;
  int raw = -1;
};

}  // namespace

// --- round trips --------------------------------------------------------------

TEST(ServiceWire, CrcMatchesKnownVector) {
  // The classic IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(ServiceWire, HelloRoundTrip) {
  HelloFrame hello;
  hello.pid = 12345;
  hello.client_name = "rank3";
  const HelloFrame out = decode_hello(encode_hello(hello));
  EXPECT_EQ(out.protocol, kProtocolVersion);
  EXPECT_EQ(out.pid, 12345u);
  EXPECT_EQ(out.client_name, "rank3");
}

TEST(ServiceWire, AckRoundTrip) {
  AckFrame ack;
  ack.batch_seq = 7;
  ack.generation = 3;
  ack.samples_accepted = 64;
  const AckFrame out = decode_ack(encode_ack(ack));
  EXPECT_EQ(out.batch_seq, 7u);
  EXPECT_EQ(out.generation, 3u);
  EXPECT_EQ(out.samples_accepted, 64u);
}

TEST(ServiceWire, StatsRoundTrip) {
  StatsFrame stats;
  stats.clients_connected = 4;
  stats.clients_total = 9;
  stats.batches_received = 120;
  stats.samples_received = 7680;
  stats.frames_rejected = 2;
  stats.trains_completed = 5;
  stats.generation = 5;
  stats.per_kernel_samples = {{"lulesh:CalcFBHourglass", 4096}, {"svc:stream", 3584}};
  const StatsFrame out = decode_stats(encode_stats(stats));
  EXPECT_EQ(out.samples_received, 7680u);
  EXPECT_EQ(out.per_kernel_samples, stats.per_kernel_samples);
}

TEST(ServiceWire, ModelPushRoundTripAllCombinations) {
  const std::string policy = "policy model bytes\nwith newlines\n";
  const std::string chunk = "chunk model";
  for (int mask = 0; mask < 8; ++mask) {
    ModelPushFrame push;
    push.generation = 11;
    push.trained_on_samples = 512;
    push.pushed_ns = 999999;
    if (mask & 1) push.policy_text = policy;
    if (mask & 2) push.chunk_text = chunk;
    if (mask & 4) push.threads_text = std::string("threads model");
    const ModelPushFrame out = decode_model_push(encode_model_push(push));
    EXPECT_EQ(out.generation, 11u);
    EXPECT_EQ(out.trained_on_samples, 512u);
    EXPECT_EQ(out.policy_text, push.policy_text) << "mask=" << mask;
    EXPECT_EQ(out.chunk_text, push.chunk_text) << "mask=" << mask;
    EXPECT_EQ(out.threads_text, push.threads_text) << "mask=" << mask;
  }
}

TEST(ServiceWire, SampleBatchRoundTripPreservesValues) {
  const auto records = make_records(20);
  const SampleBatch out = decode_sample_batch(encode_sample_batch(make_batch(42, records)));
  EXPECT_EQ(out.seq, 42u);
  ASSERT_EQ(out.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(out.records[i], records[i]) << "record " << i;
  }
}

TEST(ServiceWire, SampleBatchEmptyAndEmptyRecords) {
  const SampleBatch none = decode_sample_batch(encode_sample_batch(make_batch(1, {})));
  EXPECT_TRUE(none.records.empty());
  const SampleBatch blank =
      decode_sample_batch(encode_sample_batch(make_batch(2, {perf::SampleRecord{}})));
  ASSERT_EQ(blank.records.size(), 1u);
  EXPECT_TRUE(blank.records[0].empty());
}

TEST(ServiceWire, DictionaryCodingBeatsNaiveText) {
  // Keys and string values repeat across records; the batch must be
  // substantially smaller than re-sending every key per record.
  const auto records = make_records(200);
  std::size_t naive = 0;
  for (const auto& record : records) {
    for (const auto& [key, value] : record) {
      naive += key.size() + 16;
      if (value.is_string()) naive += value.as_string().size();
    }
  }
  EXPECT_LT(encode_sample_batch(make_batch(0, records)).size(), naive / 2);
}

TEST(ServiceWire, V1HelloDecodesCleanly) {
  // The HELLO layout is frozen across protocol versions so a skewed peer
  // can be recognised and nacked instead of dying as a decode error.
  HelloFrame old;
  old.protocol = 1;
  old.pid = 99;
  old.client_name = "legacy";
  const HelloFrame out = decode_hello(encode_hello(old));
  EXPECT_EQ(out.protocol, 1u);
  EXPECT_EQ(out.pid, 99u);
  EXPECT_EQ(out.client_name, "legacy");
}

TEST(ServiceWire, HelloBytesAreFrozen) {
  // Every protocol version writes HELLO as u32 protocol, u64 pid, then the
  // length-prefixed name; changing these bytes would turn a skewed peer's
  // nack into a decode error.
  const std::string expected("\x01\x00\x00\x00"
                             "\x63\x00\x00\x00\x00\x00\x00\x00"
                             "\x06legacy",
                             4 + 8 + 1 + 6);
  EXPECT_EQ(encode_hello({1, 99, "legacy"}), expected);
}

// --- framing ------------------------------------------------------------------

TEST(ServiceWire, FrameHeaderRoundTrip) {
  const std::string payload = encode_hello(HelloFrame{});
  const std::string frame = encode_frame(FrameType::Hello, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());

  char header_bytes[kFrameHeaderBytes];
  std::memcpy(header_bytes, frame.data(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(header_bytes);
  EXPECT_EQ(header.type, FrameType::Hello);
  EXPECT_EQ(header.payload_len, payload.size());
  EXPECT_NO_THROW(check_payload(header, frame.substr(kFrameHeaderBytes)));
}

TEST(ServiceWire, OversizedPayloadRefusedAtBothEnds) {
  // Encoder: never emit a frame past the cap.
  const std::string big(kMaxFramePayload + 1, 'x');
  EXPECT_THROW((void)encode_frame(FrameType::SampleBatch, big), WireError);

  // Decoder: a header announcing more than the cap is a violation, not an
  // allocation.
  char header_bytes[kFrameHeaderBytes] = {};
  header_bytes[0] = static_cast<char>(FrameType::SampleBatch);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(header_bytes + 1, &huge, 4);
  EXPECT_THROW((void)decode_frame_header(header_bytes), WireError);
}

TEST(ServiceWire, UnknownFrameTypeRefused) {
  // 6 was v2's TELEMETRY frame.
  for (const std::uint8_t type :
       {std::uint8_t{0}, std::uint8_t{6}, std::uint8_t{7}, std::uint8_t{255}}) {
    char header_bytes[kFrameHeaderBytes] = {};
    header_bytes[0] = static_cast<char>(type);
    EXPECT_THROW((void)decode_frame_header(header_bytes), WireError) << "type=" << int(type);
  }
}

TEST(ServiceWire, CrcCatchesSingleByteFlips) {
  const std::string payload = encode_ack(AckFrame{});
  const std::string frame = encode_frame(FrameType::Ack, payload);
  char header_bytes[kFrameHeaderBytes];
  std::memcpy(header_bytes, frame.data(), kFrameHeaderBytes);
  const FrameHeader header = decode_frame_header(header_bytes);

  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (const std::uint8_t bit : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      std::string corrupt = payload;
      corrupt[i] = static_cast<char>(static_cast<std::uint8_t>(corrupt[i]) ^ bit);
      EXPECT_THROW(check_payload(header, corrupt), WireError) << "byte " << i;
    }
  }
  EXPECT_THROW(check_payload(header, payload.substr(0, payload.size() - 1)), WireError);
}

// --- decoder truncation sweeps ------------------------------------------------

TEST(ServiceWire, EveryStrictPrefixOfEveryFrameThrows) {
  // Decoders consume the payload exactly: any truncation point must throw,
  // whether it lands mid-primitive, mid-string, or before a promised record.
  ModelPushFrame push;
  push.generation = 3;
  push.trained_on_samples = 100;
  push.pushed_ns = 42;
  push.policy_text = std::string("policy");
  push.chunk_text = std::string("chunk");
  const std::vector<std::pair<FrameType, std::string>> frames = {
      {FrameType::Hello, encode_hello({kProtocolVersion, 77, "client"})},
      {FrameType::Ack, encode_ack({kProtocolVersion, 5, 2, 33})},
      {FrameType::Stats, encode_stats({1, 2, 3, 4, 5, 6, 7, {{"k", 9}}})},
      {FrameType::ModelPush, encode_model_push(push)},
      {FrameType::SampleBatch, encode_sample_batch(make_batch(9, make_records(4)))},
  };
  for (const auto& [type, payload] : frames) {
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      EXPECT_THROW(decode_as(type, payload.substr(0, cut)), WireError)
          << frame_type_name(type) << " truncated to " << cut << "/" << payload.size();
    }
    EXPECT_NO_THROW(decode_as(type, payload));
    // Trailing garbage after a well-formed body is also a violation.
    EXPECT_THROW(decode_as(type, payload + '\0'), WireError) << frame_type_name(type);
  }
}

TEST(ServiceWire, VarintOverflowRefused) {
  // Eleven continuation bytes: more than 64 bits of varint. (The readers
  // hold views, so the byte strings must outlive them.)
  const std::string long_varint(11, '\xFF');
  WireReader r(long_varint);
  EXPECT_THROW((void)r.varint(), WireError);
  // Exactly 10 bytes but bits above the 64th set.
  const std::string wide_varint = std::string(9, '\xFF') + '\x7F';
  WireReader r2(wide_varint);
  EXPECT_THROW((void)r2.varint(), WireError);
}

TEST(ServiceWire, StringLengthBeyondPayloadRefused) {
  WireWriter w;
  w.varint(1000);  // promises 1000 bytes...
  std::string bytes = w.take();
  bytes += "short";  // ...delivers 5
  WireReader r(bytes);
  EXPECT_THROW((void)r.string(), WireError);
}

TEST(ServiceWire, BatchWithDanglingStringIndexRefused) {
  WireWriter w;
  w.varint(1);            // seq
  w.varint(1);            // string table: 1 entry
  w.string("loop_id");    //   [0]
  w.varint(1);            // 1 record
  w.varint(1);            // 1 entry
  w.varint(5);            // key index 5 — out of range
  w.u8(0);                // int tag
  w.svarint(1);
  EXPECT_EQ(wire_error([&] { (void)decode_sample_batch(w.buffer()); }),
            "wire: batch string index out of range");
}

TEST(ServiceWire, BatchWithUnknownValueTagRefused) {
  WireWriter w;
  w.varint(1);            // seq
  w.varint(1);            // string table: 1 entry
  w.string("loop_id");    //   [0]
  w.varint(1);            // 1 record
  w.varint(1);            // 1 entry
  w.varint(0);            // key index 0
  w.u8(9);                // tag 9 does not exist
  EXPECT_EQ(wire_error([&] { (void)decode_sample_batch(w.buffer()); }),
            "wire: unknown value tag in batch");
}

TEST(ServiceWire, ModelPushWithUnknownFlagsRefused) {
  WireWriter w;
  w.u64(1);    // generation
  w.u64(1);    // trained_on_samples
  w.u64(1);    // pushed_ns
  w.u8(0x80);  // a flag from a future protocol
  EXPECT_EQ(wire_error([&] { (void)decode_model_push(w.buffer()); }),
            "wire: MODEL_PUSH has unknown model flags");
}

// --- transport-level behaviour ------------------------------------------------

TEST(ServiceWireConn, SendRecvRoundTrip) {
  ConnPair pair;
  FrameConn peer(::dup(pair.raw));
  HelloFrame hello;
  hello.pid = 1;
  hello.client_name = "t";
  ASSERT_TRUE(peer.send(FrameType::Hello, encode_hello(hello)));

  const auto frame = pair.conn.recv(1000);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->first, FrameType::Hello);
  EXPECT_EQ(decode_hello(frame->second).client_name, "t");
  EXPECT_TRUE(pair.conn.valid());
}

TEST(ServiceWireConn, TimeoutLeavesConnectionOpen) {
  ConnPair pair;
  EXPECT_FALSE(pair.conn.recv(20).has_value());
  EXPECT_TRUE(pair.conn.valid()) << "a quiet peer is not an error";
  EXPECT_TRUE(pair.conn.last_error().empty());
}

TEST(ServiceWireConn, CorruptCrcClosesConnection) {
  ConnPair pair;
  std::string frame = encode_frame(FrameType::Ack, encode_ack(AckFrame{}));
  frame.back() = static_cast<char>(frame.back() ^ 0x01);  // flip one payload bit
  pair.inject(frame);

  EXPECT_FALSE(pair.conn.recv(1000).has_value());
  EXPECT_FALSE(pair.conn.valid());
  EXPECT_NE(pair.conn.last_error().find("CRC"), std::string::npos) << pair.conn.last_error();
}

TEST(ServiceWireConn, GarbageHeaderClosesConnection) {
  ConnPair pair;
  pair.inject(std::string(kFrameHeaderBytes, '\xEE'));
  EXPECT_FALSE(pair.conn.recv(1000).has_value());
  EXPECT_FALSE(pair.conn.valid());
}

TEST(ServiceWireConn, TruncatedFrameClosesConnection) {
  ConnPair pair;
  const std::string frame = encode_frame(FrameType::Stats, encode_stats(StatsFrame{}));
  pair.inject(frame.substr(0, frame.size() - 3));
  close_fd(pair.raw);  // peer dies mid-frame
  pair.raw = -1;

  EXPECT_FALSE(pair.conn.recv(1000).has_value());
  EXPECT_FALSE(pair.conn.valid());
  EXPECT_NE(pair.conn.last_error().find("mid-frame"), std::string::npos)
      << pair.conn.last_error();
}

TEST(ServiceWireConn, SendToDeadPeerFailsWithoutSignal) {
  ConnPair pair;
  close_fd(pair.raw);
  pair.raw = -1;
  // The first send may land in the kernel buffer; keep pushing until EPIPE.
  // MSG_NOSIGNAL turns the would-be SIGPIPE into a clean failure.
  const std::string payload = encode_stats(StatsFrame{});
  bool failed = false;
  for (int i = 0; i < 64 && !failed; ++i) {
    failed = !pair.conn.send(FrameType::Stats, payload);
  }
  EXPECT_TRUE(failed);
  EXPECT_FALSE(pair.conn.valid());
}

TEST(ServiceWireConn, ShutdownNowWakesBlockedReceiver) {
  ConnPair pair;
  std::optional<std::pair<FrameType, std::string>> got;
  std::thread receiver([&] { got = pair.conn.recv(5000); });
  pair.conn.shutdown_now();  // cross-thread teardown, fd stays owned
  receiver.join();
  EXPECT_FALSE(got.has_value());
}
