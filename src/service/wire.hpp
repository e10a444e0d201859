#pragma once

// The Apollo service wire format: the length-prefixed, CRC-checked binary
// frames a tuning client exchanges with the trainer daemon over a local
// stream socket.
//
// Design constraints, in order:
//   1. A corrupt or hostile peer must never crash (or poison the state of)
//      the other side — every decode error is a recoverable WireError the
//      transport answers by dropping the connection.
//   2. Sample batches dominate the traffic, so they are dictionary-coded:
//      each batch carries one string table (attribute keys repeat across
//      every record, string values repeat across most), and records store
//      varint table indices plus zigzag-varint integers. This typically
//      shrinks a batch several-fold against the text record format without
//      any external compression dependency.
//   3. The protocol is versioned from day one: HELLO carries the protocol
//      number, and a daemon rejects (cleanly disconnects) a client from the
//      future rather than misparse its frames. HELLO's own layout never
//      changes (so a skewed hello still decodes and earns a nack, not a
//      decode error), and the protocol number is the first field of the nack
//      ack so any version can read how far apart the two sides are.
//
// Frame layout on the wire (all integers little-endian):
//
//   [u8 type][u32 payload_len][u32 crc32(payload)][payload bytes]
//
// payload_len is capped at kMaxFramePayload; a header announcing more is a
// protocol violation, not a large allocation.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "perf/record.hpp"

namespace apollo::service {

/// Bumped whenever a frame layout changes incompatibly.
/// v3: SAMPLE_BATCH, MODEL_PUSH and ACK lose v2's observability fields.
inline constexpr std::uint32_t kProtocolVersion = 3;

/// Upper bound on a single frame's payload. Large enough for a model push or
/// a few thousand dictionary-coded samples; small enough that a corrupt
/// length prefix cannot drive a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

/// Bytes in the fixed frame header preceding every payload.
inline constexpr std::size_t kFrameHeaderBytes = 9;

enum class FrameType : std::uint8_t {
  Hello = 1,        ///< client -> daemon: protocol version + identity
  SampleBatch = 2,  ///< client -> daemon: dictionary-coded training samples
  ModelPush = 3,    ///< daemon -> client: a new model generation
  Ack = 4,          ///< daemon -> client: batch/hello acknowledgement
  Stats = 5,        ///< either direction: request (empty) / reply (counters)
};

[[nodiscard]] const char* frame_type_name(FrameType type) noexcept;

/// Any malformed input encountered while decoding. The transport layer
/// answers a WireError by closing the connection; nothing partial leaks.
class WireError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected) over a byte string.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

// --- primitive (de)serialization ---------------------------------------------

/// Append-only little-endian byte writer backing every frame encoder.
class WireWriter {
public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 unsigned varint (1 byte for values < 128 — the common case for
  /// table indices and record sizes).
  void varint(std::uint64_t v);
  /// Zigzag-coded signed varint.
  void svarint(std::int64_t v);
  void f64(double v);
  /// Varint length + raw bytes.
  void string(std::string_view v);

  [[nodiscard]] std::string take() { return std::move(out_); }
  [[nodiscard]] const std::string& buffer() const noexcept { return out_; }

private:
  std::string out_;
};

/// Bounds-checked reader over a received payload. Every underflow or
/// malformed primitive throws WireError.
class WireReader {
public:
  explicit WireReader(std::string_view data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::int64_t svarint();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string_view string();

  [[nodiscard]] bool done() const noexcept { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

private:
  void need(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- frame payloads -----------------------------------------------------------

struct HelloFrame {
  std::uint32_t protocol = kProtocolVersion;
  std::uint64_t pid = 0;
  std::string client_name;
};

struct AckFrame {
  std::uint32_t protocol = kProtocolVersion;
  std::uint64_t batch_seq = 0;    ///< sequence being acknowledged (0 = hello)
  std::uint64_t generation = 0;   ///< daemon's current model generation
  std::uint64_t samples_accepted = 0;
};

/// One pushed model generation. Models travel in their text persistence form
/// (TunerModel::save) — the same bytes the on-disk generation files hold —
/// wrapped in the binary frame. Absent models carry forward on the client.
struct ModelPushFrame {
  std::uint64_t generation = 0;
  std::uint64_t trained_on_samples = 0;
  std::uint64_t pushed_ns = 0;  ///< daemon CLOCK_MONOTONIC at push (same-host latency)
  std::optional<std::string> policy_text;
  std::optional<std::string> chunk_text;
  std::optional<std::string> threads_text;
};

struct StatsFrame {
  std::uint64_t clients_connected = 0;
  std::uint64_t clients_total = 0;
  std::uint64_t batches_received = 0;
  std::uint64_t samples_received = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t trains_completed = 0;
  std::uint64_t generation = 0;
  std::map<std::string, std::uint64_t> per_kernel_samples;
};

/// A decoded SAMPLE_BATCH.
struct SampleBatch {
  std::uint64_t seq = 0;
  std::vector<perf::SampleRecord> records;
};

[[nodiscard]] std::string encode_hello(const HelloFrame& hello);
[[nodiscard]] HelloFrame decode_hello(std::string_view payload);

[[nodiscard]] std::string encode_ack(const AckFrame& ack);
[[nodiscard]] AckFrame decode_ack(std::string_view payload);

[[nodiscard]] std::string encode_model_push(const ModelPushFrame& push);
[[nodiscard]] ModelPushFrame decode_model_push(std::string_view payload);

[[nodiscard]] std::string encode_stats(const StatsFrame& stats);
[[nodiscard]] StatsFrame decode_stats(std::string_view payload);

/// Dictionary-coded batch of records. Keys and string values are interned in
/// a per-batch table; numeric values are varint/f64-coded per type.
[[nodiscard]] std::string encode_sample_batch(const SampleBatch& batch);
[[nodiscard]] SampleBatch decode_sample_batch(std::string_view payload);

// --- framing ------------------------------------------------------------------

struct FrameHeader {
  FrameType type = FrameType::Hello;
  std::uint32_t payload_len = 0;
  std::uint32_t crc = 0;
};

/// Header + payload, ready to write to the socket.
[[nodiscard]] std::string encode_frame(FrameType type, std::string_view payload);

/// Parse and validate the 9 fixed header bytes (length cap, known type).
[[nodiscard]] FrameHeader decode_frame_header(const char (&bytes)[kFrameHeaderBytes]);

/// Verify a received payload against its header CRC.
void check_payload(const FrameHeader& header, std::string_view payload);

}  // namespace apollo::service
