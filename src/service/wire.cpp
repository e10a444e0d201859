#include "service/wire.hpp"

#include <array>
#include <cstring>

namespace apollo::service {

const char* frame_type_name(FrameType type) noexcept {
  switch (type) {
    case FrameType::Hello: return "HELLO";
    case FrameType::SampleBatch: return "SAMPLE_BATCH";
    case FrameType::ModelPush: return "MODEL_PUSH";
    case FrameType::Ack: return "ACK";
    case FrameType::Stats: return "STATS";
  }
  return "?";
}

// --- crc32 --------------------------------------------------------------------

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) noexcept {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const char ch : data) {
    crc = table[(crc ^ static_cast<std::uint8_t>(ch)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

// --- WireWriter ---------------------------------------------------------------

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
}

void WireWriter::varint(std::uint64_t v) {
  while (v >= 0x80u) {
    out_.push_back(static_cast<char>((v & 0x7Fu) | 0x80u));
    v >>= 7;
  }
  out_.push_back(static_cast<char>(v));
}

void WireWriter::svarint(std::int64_t v) {
  varint((static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void WireWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::string(std::string_view v) {
  varint(v.size());
  out_.append(v.data(), v.size());
}

// --- WireReader ---------------------------------------------------------------

void WireReader::need(std::size_t n) const {
  if (data_.size() - pos_ < n) throw WireError("wire: truncated payload");
}

std::uint8_t WireReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t WireReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_++])) << (8 * i);
  return v;
}

std::uint64_t WireReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_++])) << (8 * i);
  return v;
}

std::uint64_t WireReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    need(1);
    const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
    if (shift >= 63 && byte > 1) throw WireError("wire: varint overflow");
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) return v;
    shift += 7;
    if (shift > 63) throw WireError("wire: varint too long");
  }
}

std::int64_t WireReader::svarint() {
  const std::uint64_t raw = varint();
  return static_cast<std::int64_t>((raw >> 1) ^ (~(raw & 1) + 1));
}

double WireReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string_view WireReader::string() {
  const std::uint64_t len = varint();
  if (len > remaining()) throw WireError("wire: string length exceeds payload");
  const std::string_view out = data_.substr(pos_, static_cast<std::size_t>(len));
  pos_ += static_cast<std::size_t>(len);
  return out;
}

// --- HELLO / ACK / STATS ------------------------------------------------------

std::string encode_hello(const HelloFrame& hello) {
  WireWriter w;
  w.u32(hello.protocol);
  w.u64(hello.pid);
  w.string(hello.client_name);
  return w.take();
}

HelloFrame decode_hello(std::string_view payload) {
  WireReader r(payload);
  HelloFrame hello;
  hello.protocol = r.u32();
  hello.pid = r.u64();
  hello.client_name = std::string(r.string());
  if (!r.done()) throw WireError("wire: trailing bytes after HELLO");
  return hello;
}

std::string encode_ack(const AckFrame& ack) {
  WireWriter w;
  w.u32(ack.protocol);
  w.u64(ack.batch_seq);
  w.u64(ack.generation);
  w.u64(ack.samples_accepted);
  return w.take();
}

AckFrame decode_ack(std::string_view payload) {
  WireReader r(payload);
  AckFrame ack;
  ack.protocol = r.u32();
  ack.batch_seq = r.u64();
  ack.generation = r.u64();
  ack.samples_accepted = r.u64();
  if (!r.done()) throw WireError("wire: trailing bytes after ACK");
  return ack;
}

std::string encode_stats(const StatsFrame& stats) {
  WireWriter w;
  w.u64(stats.clients_connected);
  w.u64(stats.clients_total);
  w.u64(stats.batches_received);
  w.u64(stats.samples_received);
  w.u64(stats.frames_rejected);
  w.u64(stats.trains_completed);
  w.u64(stats.generation);
  w.varint(stats.per_kernel_samples.size());
  for (const auto& [kernel, count] : stats.per_kernel_samples) {
    w.string(kernel);
    w.varint(count);
  }
  return w.take();
}

StatsFrame decode_stats(std::string_view payload) {
  WireReader r(payload);
  StatsFrame stats;
  stats.clients_connected = r.u64();
  stats.clients_total = r.u64();
  stats.batches_received = r.u64();
  stats.samples_received = r.u64();
  stats.frames_rejected = r.u64();
  stats.trains_completed = r.u64();
  stats.generation = r.u64();
  const std::uint64_t kernels = r.varint();
  if (kernels > payload.size()) throw WireError("wire: STATS kernel count exceeds payload");
  for (std::uint64_t k = 0; k < kernels; ++k) {
    const std::string name(r.string());
    stats.per_kernel_samples[name] = r.varint();
  }
  if (!r.done()) throw WireError("wire: trailing bytes after STATS");
  return stats;
}

// --- MODEL_PUSH ---------------------------------------------------------------

namespace {
constexpr std::uint8_t kHasPolicy = 1u << 0;
constexpr std::uint8_t kHasChunk = 1u << 1;
constexpr std::uint8_t kHasThreads = 1u << 2;
}  // namespace

std::string encode_model_push(const ModelPushFrame& push) {
  WireWriter w;
  w.u64(push.generation);
  w.u64(push.trained_on_samples);
  w.u64(push.pushed_ns);
  std::uint8_t flags = 0;
  if (push.policy_text) flags |= kHasPolicy;
  if (push.chunk_text) flags |= kHasChunk;
  if (push.threads_text) flags |= kHasThreads;
  w.u8(flags);
  if (push.policy_text) w.string(*push.policy_text);
  if (push.chunk_text) w.string(*push.chunk_text);
  if (push.threads_text) w.string(*push.threads_text);
  return w.take();
}

ModelPushFrame decode_model_push(std::string_view payload) {
  WireReader r(payload);
  ModelPushFrame push;
  push.generation = r.u64();
  push.trained_on_samples = r.u64();
  push.pushed_ns = r.u64();
  const std::uint8_t flags = r.u8();
  if ((flags & ~(kHasPolicy | kHasChunk | kHasThreads)) != 0) {
    throw WireError("wire: MODEL_PUSH has unknown model flags");
  }
  if (flags & kHasPolicy) push.policy_text = std::string(r.string());
  if (flags & kHasChunk) push.chunk_text = std::string(r.string());
  if (flags & kHasThreads) push.threads_text = std::string(r.string());
  if (!r.done()) throw WireError("wire: trailing bytes after MODEL_PUSH");
  return push;
}

// --- SAMPLE_BATCH -------------------------------------------------------------

namespace {

/// Value type tags inside a coded record.
constexpr std::uint8_t kValueInt = 0;
constexpr std::uint8_t kValueReal = 1;
constexpr std::uint8_t kValueString = 2;

}  // namespace

std::string encode_sample_batch(const SampleBatch& batch) {
  // First pass: intern every key and string value. Keys repeat across every
  // record and most string values (policy names, kernel ids, problem names)
  // repeat across most, so the table is tiny relative to the raw text.
  std::map<std::string_view, std::uint64_t> table;
  std::vector<std::string_view> strings;
  const auto intern = [&](std::string_view s) -> std::uint64_t {
    const auto [it, inserted] = table.emplace(s, strings.size());
    if (inserted) strings.push_back(s);
    return it->second;
  };
  for (const auto& record : batch.records) {
    for (const auto& [key, value] : record) {
      intern(key);
      if (value.is_string()) intern(value.as_string());
    }
  }

  WireWriter w;
  w.varint(batch.seq);
  w.varint(strings.size());
  for (const std::string_view s : strings) w.string(s);
  w.varint(batch.records.size());
  for (const auto& record : batch.records) {
    w.varint(record.size());
    for (const auto& [key, value] : record) {
      w.varint(table.at(key));
      if (value.is_int()) {
        w.u8(kValueInt);
        w.svarint(value.as_int());
      } else if (value.is_real()) {
        w.u8(kValueReal);
        w.f64(value.as_real());
      } else {
        w.u8(kValueString);
        w.varint(table.at(value.as_string()));
      }
    }
  }
  return w.take();
}

SampleBatch decode_sample_batch(std::string_view payload) {
  WireReader r(payload);
  SampleBatch batch;
  batch.seq = r.varint();
  const std::uint64_t table_size = r.varint();
  if (table_size > payload.size()) throw WireError("wire: batch string table exceeds payload");
  std::vector<std::string_view> strings;
  strings.reserve(static_cast<std::size_t>(table_size));
  for (std::uint64_t i = 0; i < table_size; ++i) strings.push_back(r.string());
  const auto lookup = [&](std::uint64_t index) -> std::string_view {
    if (index >= strings.size()) throw WireError("wire: batch string index out of range");
    return strings[static_cast<std::size_t>(index)];
  };
  const std::uint64_t count = r.varint();
  if (count > payload.size()) throw WireError("wire: batch record count exceeds payload");
  batch.records.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t n = 0; n < count; ++n) {
    perf::SampleRecord record;
    const std::uint64_t entries = r.varint();
    if (entries > payload.size()) throw WireError("wire: record entry count exceeds payload");
    for (std::uint64_t e = 0; e < entries; ++e) {
      const std::string key(lookup(r.varint()));
      const std::uint8_t tag = r.u8();
      switch (tag) {
        case kValueInt: record[key] = perf::Value(r.svarint()); break;
        case kValueReal: record[key] = perf::Value(r.f64()); break;
        case kValueString: record[key] = perf::Value(std::string(lookup(r.varint()))); break;
        default: throw WireError("wire: unknown value tag in batch");
      }
    }
    batch.records.push_back(std::move(record));
  }
  if (!r.done()) throw WireError("wire: trailing bytes after SAMPLE_BATCH");
  return batch;
}

// --- framing ------------------------------------------------------------------

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) throw WireError("wire: frame payload exceeds cap");
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u32(crc32(payload));
  std::string out = w.take();
  out.append(payload.data(), payload.size());
  return out;
}

FrameHeader decode_frame_header(const char (&bytes)[kFrameHeaderBytes]) {
  WireReader r(std::string_view(bytes, kFrameHeaderBytes));
  FrameHeader header;
  const std::uint8_t type = r.u8();
  switch (static_cast<FrameType>(type)) {
    case FrameType::Hello:
    case FrameType::SampleBatch:
    case FrameType::ModelPush:
    case FrameType::Ack:
    case FrameType::Stats:
      header.type = static_cast<FrameType>(type);
      break;
    default:
      throw WireError("wire: unknown frame type " + std::to_string(type));
  }
  header.payload_len = r.u32();
  header.crc = r.u32();
  if (header.payload_len > kMaxFramePayload) {
    throw WireError("wire: frame length " + std::to_string(header.payload_len) + " exceeds cap");
  }
  return header;
}

void check_payload(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_len) throw WireError("wire: payload length mismatch");
  if (crc32(payload) != header.crc) throw WireError("wire: payload CRC mismatch");
}

}  // namespace apollo::service
