#pragma once

// Decision records: one record type for every tuned-launch decision and
// ground-truth probe. With the audit log enabled, *every* tuned launch
// appends one JSON line — model generation, the exact feature vector the
// policy tree saw, the chosen label, the executed variant, and the measured
// runtime — and every probe appends its measurement: the state a replay
// needs to answer "what if this model had been live?" (tools/apollo_replay)
// without rerunning the application.
//
// Introspection is a sampled tail of the same stream: every
// APOLLO_INTROSPECT_STRIDE-th tuned launch also records its tree path and
// predicted cost, and the log keeps the last kTailPerKernel such records per
// kernel in memory, audit file or not. The decisions file (tools/apollo_top)
// is that tail in the audit line format.
//
// Durability is bounded: lines append to rotating segment files
// (<base>.000001.jsonl, ...) capped in size and count, so a long-running
// process never grows an unbounded log. Appends buffer in memory and flush on
// a byte threshold, the collector cadence, and shutdown; readers tailing a
// live segment must tolerate one partial trailing line (read_complete_lines).
//
// Thread-safety: append/flush are internally synchronized (one mutex for the
// segments, one for the tail; the hot path formats outside any file I/O,
// which happens only on flush).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace apollo::telemetry {

struct AuditConfig {
  std::string base_path;                     ///< "" disables; ".jsonl" suffix optional
  std::size_t segment_bytes = 4u << 20;      ///< rotate a segment past this size
  std::size_t max_segments = 8;              ///< oldest segments deleted beyond this
  std::size_t flush_bytes = 64u << 10;       ///< buffered bytes that force a flush
};

/// One audited event: a tuned-launch decision or a ground-truth probe.
struct AuditRecord {
  enum class Kind : std::uint8_t { Decision, Probe };
  Kind kind = Kind::Decision;
  std::uint64_t ts_ns = 0;
  std::string kernel;
  std::uint64_t bucket = 0;         ///< coarse feature bucket (online::feature_bucket)
  std::uint64_t model_version = 0;  ///< registry generation (0 = offline model)
  std::string label;                ///< policy model's chosen label ("" = no model)
  std::string policy;               ///< executed (decision) / probed (probe) policy name
  std::int64_t chunk = 0;
  bool explored = false;            ///< executed variant was an exploration substitute
  double seconds = 0.0;             ///< measured (or model-charged) runtime
  /// Feature vector in the policy model's feature order (decisions only).
  std::vector<std::pair<std::string, double>> features;
  /// Optional introspection sample: the decision-tree node path the policy
  /// model walked (root..leaf) and the machine-model cost of its choice.
  /// `sampled` gates serialization and the in-memory tail, so lines written
  /// before these fields existed parse unchanged.
  bool sampled = false;
  std::vector<int> tree_path;
  double predicted_seconds = 0.0;
};

/// `text` as the body of a JSON string literal: quotes, backslashes and
/// control characters escaped. The one escaper every telemetry export uses.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Serialize one record as a single JSON line (no trailing newline).
[[nodiscard]] std::string to_json_line(const AuditRecord& record);
/// Parse a line written by to_json_line. nullopt on malformed input,
/// including any torn line: the closing '}' and every array's closing ']'
/// are required.
[[nodiscard]] std::optional<AuditRecord> parse_audit_line(const std::string& line);

/// All '\n'-terminated lines of a file. A final unterminated line — a live
/// writer mid-append — is skipped rather than misparsed; empty lines are
/// dropped. Returns nullopt when the file cannot be opened.
[[nodiscard]] std::optional<std::vector<std::string>> read_complete_lines(
    const std::string& path);

class AuditLog {
public:
  static AuditLog& instance();

  /// Apply a configuration. A non-empty base path enables the log and opens
  /// the next segment (numbering continues after any existing segments); an
  /// empty one flushes, closes, and disables.
  void configure(AuditConfig config);
  [[nodiscard]] AuditConfig config() const;

  /// Cheap hot-path check (one relaxed load).
  [[nodiscard]] bool audit_enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Sampled decisions kept per kernel in the in-memory tail.
  static constexpr std::size_t kTailPerKernel = 8;

  /// Take one record: a sampled decision joins its kernel's tail (the
  /// kernel's oldest drops past kTailPerKernel); with the log enabled, every
  /// record is formatted and buffered, flushing and rotating as thresholds
  /// demand.
  void append(const AuditRecord& record);

  /// The tail: grouped by kernel, oldest first within a kernel.
  [[nodiscard]] std::vector<AuditRecord> tail() const;
  /// Write the tail as audit lines, atomically (temp + rename): the
  /// decisions file. Throws std::runtime_error on I/O failure.
  void write_tail(const std::string& path) const;

  /// Write buffered lines to the current segment (collector cadence, tests).
  void flush();
  /// Flush and close the current segment (shutdown; configure reopens).
  void close();

  /// Existing segment paths for the configured base, oldest first.
  [[nodiscard]] std::vector<std::string> segment_paths() const;

  [[nodiscard]] std::uint64_t records_appended() const noexcept {
    return appended_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t segments_rotated() const noexcept {
    return rotated_.load(std::memory_order_relaxed);
  }

  /// Close and forget configuration, counters and the tail (tests).
  /// Existing segment files are left on disk.
  void reset_for_testing();

private:
  AuditLog() = default;

  void open_segment_locked();
  void flush_locked();
  void rotate_locked();
  [[nodiscard]] std::string segment_path(std::uint64_t index) const;
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>> existing_segments_locked()
      const;

  mutable std::mutex mutex_;
  AuditConfig config_;
  std::atomic<bool> enabled_{false};
  std::string buffer_;
  std::string stem_;               ///< base path without the .jsonl suffix
  std::uint64_t segment_index_ = 0;
  std::size_t segment_written_ = 0;    ///< bytes in the current segment
  std::FILE* file_ = nullptr;          ///< current segment (append-only)
  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> rotated_{0};

  mutable std::mutex tail_mutex_;
  std::map<std::string, std::deque<AuditRecord>> tail_;  ///< tail_mutex_
};

}  // namespace apollo::telemetry
