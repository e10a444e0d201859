#pragma once

// The client half of Apollo-as-a-service: a background lane that drains the
// process-local SampleBuffer to the trainer daemon and applies pushed model
// generations through the ModelRegistry's atomic hot-swap path.
//
// The application's launch path never knows this exists. Everything —
// connect, retry, drain, materialize, encode, send, model apply — happens on
// one nice-19 thread; the hot path continues to read its RCU ModelSnapshot
// and push unmaterialized samples exactly as in pure-local adaptation.
//
// Degradation is the design center, not an afterthought: when the daemon is
// absent, slow, or dies mid-run, the client disconnects, keeps the undrained
// samples in the local buffer (where the in-process Retrainer continues to
// learn from them), and retries with bounded exponential backoff. A daemon
// appearing later is joined transparently; a model pushed later simply
// publishes a newer generation.

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "online/model_registry.hpp"
#include "online/sample_buffer.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"

namespace apollo::service {

struct ClientConfig {
  /// Daemon socket path; empty disables the client entirely.
  std::string socket_path;
  /// Samples per SAMPLE_BATCH frame.
  std::size_t batch = 64;
  /// Base reconnect delay; backs off exponentially to 10x, then holds.
  std::int64_t retry_ms = 500;
  /// Idle poll period while connected (push latency lower bound).
  std::int64_t poll_ms = 20;
  /// Identity string sent in HELLO (defaults to "pid:<pid>").
  std::string client_name;

  /// Read APOLLO_SERVICE_SOCKET / APOLLO_SERVICE_BATCH /
  /// APOLLO_SERVICE_RETRY_MS through the hardened warn-and-default env
  /// parsers. enabled() is false when the socket knob is unset.
  [[nodiscard]] static ClientConfig from_env();
  [[nodiscard]] bool enabled() const noexcept { return !socket_path.empty(); }
};

class ServiceClient {
public:
  /// The client borrows the buffer and registry (it must be stopped before
  /// either dies). Deliberately Runtime-independent so tests and benches can
  /// run a daemon plus several in-process clients.
  ServiceClient(online::SampleBuffer* buffer, online::ModelRegistry* registry,
                ClientConfig config);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  void start();
  /// Signal, join, close. Idempotent. Undrained samples stay in the buffer.
  void stop();

  struct Status {
    bool connected = false;       ///< socket open and HELLO acked
    std::uint64_t connects = 0;   ///< successful HELLO handshakes
    std::uint64_t fallbacks = 0;  ///< disconnects (daemon absent/dead/slow)
    std::uint64_t batches_sent = 0;
    std::uint64_t samples_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t pushes_applied = 0;
    std::uint64_t apply_failures = 0;
    std::uint64_t generation = 0;  ///< last applied daemon generation
    /// Background-thread seconds spent on transport work (drain +
    /// materialize + encode + send + apply) — the fleet bench's overhead
    /// numerator.
    double transport_seconds = 0.0;
    std::string last_error;
  };
  [[nodiscard]] Status status() const;
  [[nodiscard]] const ClientConfig& config() const noexcept { return config_; }

  /// Wait until the HELLO handshake completes (tests/benches).
  bool wait_connected(double timeout_s);
  /// Wait until a push with generation >= `at_least` has been applied.
  bool wait_generation(std::uint64_t at_least, double timeout_s);
  /// Wait until at least `min_samples` samples have been sent (and acked
  /// batches are not tracked — sent means handed to the kernel).
  bool wait_sent(std::uint64_t min_samples, double timeout_s);

private:
  void run();
  bool connect_and_hello();
  /// Drain inbound frames without blocking. False when the connection died.
  bool pump_inbound();
  /// Drain the buffer and ship up to everything pending. False on failure.
  bool ship_pending();
  void apply_push(const ModelPushFrame& push);
  void note_disconnect(const std::string& reason);
  [[nodiscard]] std::int64_t backoff_capped_hello_ms() const;
  /// Sleep that wakes immediately on stop().
  void interruptible_sleep(std::int64_t ms);
  [[nodiscard]] bool stopping() const;

  online::SampleBuffer* buffer_;
  online::ModelRegistry* registry_;
  ClientConfig config_;

  FrameConn conn_;
  std::vector<online::Sample> outbox_;
  std::size_t outbox_cap_ = 0;
  std::uint64_t next_seq_ = 0;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Status status_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace apollo::service
