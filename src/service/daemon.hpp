#pragma once

// The trainer daemon: the server half of Apollo-as-a-service.
//
// N client processes stream dictionary-coded sample batches to one daemon;
// the daemon shards accumulation per kernel (a bounded deque of the newest
// samples per loop_id), trains on the aggregate with the same core Trainer
// the in-process Retrainer uses, and pushes each new model generation to
// every connected client. One model trained on N clients' samples converges
// in ~1/N the per-client exploration the paper's per-process protocol pays —
// the 256-core strong-scaling story recast as a serving system.
//
// Threading: one accept thread, one serving thread per connection, one
// trainer thread. Shards and connection bookkeeping live behind one mutex
// (batch decode and model fits happen outside it); pushes and acks share a
// connection's FrameConn, which serializes its own writes. A malformed frame
// — bad CRC, truncated payload, oversized length, unknown type, protocol
// skew — disconnects that client only; the daemon and its other clients keep
// running, and nothing from the bad frame reaches a shard.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ml/decision_tree.hpp"
#include "perf/record.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"

namespace apollo::service {

struct DaemonConfig {
  std::string socket_path;
  /// New samples accumulated since the last fit that trigger the next one.
  std::size_t train_batch = 128;
  /// Aggregate samples required before the first fit.
  std::size_t min_train_samples = 64;
  /// Newest samples retained per kernel shard (bounds daemon memory).
  std::size_t per_kernel_cap = 8192;
  /// Also fit a chunk-size model when the aggregate has usable sweep data.
  bool train_chunk = false;
  ml::TreeParams tree_params;
};

class TrainerDaemon {
public:
  explicit TrainerDaemon(DaemonConfig config);
  ~TrainerDaemon();

  TrainerDaemon(const TrainerDaemon&) = delete;
  TrainerDaemon& operator=(const TrainerDaemon&) = delete;

  /// Bind the socket and start the accept + trainer threads. False (with the
  /// reason on stderr) when the socket cannot be bound.
  bool start();

  /// Close the listener and every connection, join all threads. Idempotent.
  /// Serve threads of connections that already closed are joined earlier, by
  /// the accept thread, before it starts the next one.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_; }
  [[nodiscard]] const DaemonConfig& config() const noexcept { return config_; }

  struct Stats {
    std::uint64_t clients_connected = 0;
    std::uint64_t clients_total = 0;
    std::uint64_t batches_received = 0;
    std::uint64_t samples_received = 0;
    std::uint64_t frames_rejected = 0;
    std::uint64_t trains_completed = 0;
    std::uint64_t trains_failed = 0;
    std::uint64_t generation = 0;
    std::uint64_t pushes_sent = 0;
    std::map<std::string, std::uint64_t> per_kernel_samples;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint64_t generation() const;

  /// Block until `generation()` >= `at_least` or `timeout_s` elapses (tests
  /// and benches; the serving path never waits on training).
  bool wait_generation(std::uint64_t at_least, double timeout_s);

private:
  struct Connection {
    FrameConn conn;
    std::uint64_t id = 0;
    bool helloed = false;
  };

  void accept_loop();
  /// Join the serve threads whose connections have closed (accept thread).
  void reap_finished_serve_threads();
  void serve(std::shared_ptr<Connection> connection);
  void trainer_loop();
  /// Decode + shard one batch; returns accepted count or -1 on a protocol
  /// violation (caller disconnects).
  std::int64_t ingest_batch(std::string_view payload, std::uint64_t* seq);
  void push_generation(Connection& connection);
  void train_once();
  [[nodiscard]] StatsFrame stats_frame() const;

  DaemonConfig config_;
  int listen_fd_ = -1;
  bool running_ = false;

  mutable std::mutex mutex_;
  std::condition_variable train_cv_;      ///< wakes the trainer thread
  std::condition_variable generation_cv_; ///< wakes wait_generation
  bool stopping_ = false;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::map<std::string, std::deque<perf::SampleRecord>> shards_;
  std::size_t total_samples_ = 0;       ///< currently retained across shards
  std::size_t since_last_train_ = 0;
  Stats stats_{};
  /// The latest trained generation, pre-encoded once for pushing.
  std::string push_payload_;
  std::uint64_t generation_ = 0;
  /// Ids of connections whose serve thread has returned but is not joined.
  std::vector<std::uint64_t> finished_serves_;

  std::thread accept_thread_;
  std::thread trainer_thread_;
  std::map<std::uint64_t, std::thread> serve_threads_;  ///< by connection id
};

}  // namespace apollo::service
