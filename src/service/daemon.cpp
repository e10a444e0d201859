#include "service/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>
#include <utility>

#include "core/features.hpp"
#include "core/trainer.hpp"
#include "core/tuner_model.hpp"
#include "parallel/thread_priority.hpp"
#include "telemetry/telemetry.hpp"

namespace apollo::service {

namespace {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string model_text(const TunerModel& model) {
  std::ostringstream out;
  model.save(out);
  return out.str();
}

void bump_daemon_counter(const char* name, const char* help, const char* labels = "") {
  if (!telemetry::enabled()) return;
  telemetry::MetricsRegistry::instance().counter(name, help, labels).inc();
}

}  // namespace

TrainerDaemon::TrainerDaemon(DaemonConfig config) : config_(std::move(config)) {
  if (config_.train_batch == 0) config_.train_batch = 1;
  if (config_.per_kernel_cap == 0) config_.per_kernel_cap = 1;
}

TrainerDaemon::~TrainerDaemon() { stop(); }

bool TrainerDaemon::start() {
  if (running_) return true;
  std::string error;
  listen_fd_ = listen_unix(config_.socket_path, 16, &error);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "apollo_served: %s\n", error.c_str());
    return false;
  }
  stopping_ = false;
  running_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  trainer_thread_ = std::thread([this] { trainer_loop(); });
  return true;
}

void TrainerDaemon::stop() {
  if (!running_) return;
  int listen_fd = -1;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    listen_fd = listen_fd_;
    // shutdown(), not close(): close() from this thread would neither wake a
    // thread blocked in accept()/read() nor be safe against fd reuse. After
    // shutdown every blocked call fails out and each thread closes its own fd.
    if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
    for (auto& connection : connections_) connection->conn.shutdown_now();
  }
  train_cv_.notify_all();
  generation_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  if (trainer_thread_.joinable()) trainer_thread_.join();
  // The accept thread is gone, so nothing else touches serve_threads_.
  for (auto& [id, thread] : serve_threads_) thread.join();
  serve_threads_.clear();
  finished_serves_.clear();
  connections_.clear();
  close_fd(listen_fd);
  listen_fd_ = -1;
  ::unlink(config_.socket_path.c_str());
  running_ = false;
}

TrainerDaemon::Stats TrainerDaemon::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.generation = generation_;
  out.clients_connected = connections_.size();
  out.per_kernel_samples.clear();
  for (const auto& [loop_id, shard] : shards_) out.per_kernel_samples[loop_id] = shard.size();
  return out;
}

std::uint64_t TrainerDaemon::generation() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return generation_;
}

bool TrainerDaemon::wait_generation(std::uint64_t at_least, double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  return generation_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s), [&] {
    return generation_ >= at_least || stopping_;
  }) && generation_ >= at_least;
}

StatsFrame TrainerDaemon::stats_frame() const {
  const Stats s = stats();
  StatsFrame frame;
  frame.clients_connected = s.clients_connected;
  frame.clients_total = s.clients_total;
  frame.batches_received = s.batches_received;
  frame.samples_received = s.samples_received;
  frame.frames_rejected = s.frames_rejected;
  frame.trains_completed = s.trains_completed;
  frame.generation = s.generation;
  frame.per_kernel_samples = s.per_kernel_samples;
  return frame;
}

void TrainerDaemon::reap_finished_serve_threads() {
  std::vector<std::thread> finished;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::uint64_t id : finished_serves_) {
      const auto it = serve_threads_.find(id);
      finished.push_back(std::move(it->second));
      serve_threads_.erase(it);
    }
    finished_serves_.clear();
  }
  // Each of these has already recorded its exit, so the joins return at once
  // and release the threads' stacks.
  for (auto& thread : finished) thread.join();
}

void TrainerDaemon::accept_loop() {
  std::uint64_t next_id = 1;
  for (;;) {
    int listen_fd;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      listen_fd = listen_fd_;
    }
    if (listen_fd < 0) return;
    const int fd = accept_unix(listen_fd);
    if (fd < 0) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;
      continue;
    }
    reap_finished_serve_threads();
    auto connection = std::make_shared<Connection>();
    connection->conn = FrameConn(fd);
    connection->id = next_id++;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) return;  // fd closed by ~Connection
      connections_.push_back(connection);
      stats_.clients_total += 1;
      serve_threads_.emplace(connection->id,
                             std::thread([this, connection] { serve(connection); }));
    }
    bump_daemon_counter("apollo_served_clients_total", "Client connections accepted.");
  }
}

void TrainerDaemon::serve(std::shared_ptr<Connection> connection) {
  FrameConn& conn = connection->conn;
  for (;;) {
    auto frame = conn.recv(-1);
    if (!frame) {
      // Violations at the transport layer — bad CRC, unknown type, an
      // oversized length, a stream cut mid-frame — already closed the
      // connection inside recv; count them so the stats distinguish hostile
      // peers from clean disconnects. A plain EOF ("peer closed") or a reset
      // from a client that died between frames is peer death, not protocol.
      const std::string& reason = conn.last_error();
      const bool peer_death = reason.empty() || reason == "peer closed" ||
                              reason.find("Connection reset") != std::string::npos;
      if (!peer_death) {
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          stats_.frames_rejected += 1;
        }
        bump_daemon_counter("apollo_served_frames_rejected_total",
                            "Frames rejected as malformed or out of protocol.");
        std::fprintf(stderr, "apollo_served: client %llu dropped: %s\n",
                     static_cast<unsigned long long>(connection->id),
                     conn.last_error().c_str());
      }
      break;
    }
    const auto& [type, payload] = *frame;
    try {
      switch (type) {
        case FrameType::Hello: {
          const HelloFrame hello = decode_hello(payload);
          if (hello.protocol != kProtocolVersion) {
            // A client from the future (or past): refuse cleanly rather
            // than misparse its frames. HELLO's layout is frozen across
            // protocol versions precisely so this path is a nack, not a
            // decode error; the ack leads with our protocol so the client
            // can report the skew.
            AckFrame nack;
            nack.batch_seq = 0;
            nack.generation = 0;
            nack.samples_accepted = 0;
            conn.send(FrameType::Ack, encode_ack(nack));
            throw WireError("protocol skew: client " + std::to_string(hello.protocol) +
                            ", daemon " + std::to_string(kProtocolVersion));
          }
          connection->helloed = true;
          AckFrame ack;
          ack.generation = generation();
          conn.send(FrameType::Ack, encode_ack(ack));
          // A late joiner gets the current model immediately instead of
          // waiting for the next train.
          push_generation(*connection);
          break;
        }
        case FrameType::SampleBatch: {
          if (!connection->helloed) throw WireError("sample batch before hello");
          std::uint64_t seq = 0;
          const std::int64_t accepted = ingest_batch(payload, &seq);
          AckFrame ack;
          ack.batch_seq = seq;
          ack.generation = generation();
          ack.samples_accepted = static_cast<std::uint64_t>(accepted);
          conn.send(FrameType::Ack, encode_ack(ack));
          train_cv_.notify_one();
          break;
        }
        case FrameType::Stats: {
          conn.send(FrameType::Stats, encode_stats(stats_frame()));
          break;
        }
        default:
          throw WireError(std::string("unexpected frame from client: ") + frame_type_name(type));
      }
    } catch (const WireError& error) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        stats_.frames_rejected += 1;
      }
      bump_daemon_counter("apollo_served_frames_rejected_total",
                          "Frames rejected as malformed or out of protocol.");
      std::fprintf(stderr, "apollo_served: client %llu dropped: %s\n",
                   static_cast<unsigned long long>(connection->id), error.what());
      conn.close();
      break;
    }
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  connections_.erase(std::remove(connections_.begin(), connections_.end(), connection),
                     connections_.end());
  finished_serves_.push_back(connection->id);
}

std::int64_t TrainerDaemon::ingest_batch(std::string_view payload, std::uint64_t* seq) {
  // Decode (the expensive, throwing part) outside the lock.
  SampleBatch batch = decode_sample_batch(payload);
  *seq = batch.seq;
  std::int64_t accepted = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& record : batch.records) {
      const auto it = record.find(features::kLoopId);
      if (it == record.end() || !it->second.is_string()) continue;  // unkeyable: drop quietly
      auto& shard = shards_[it->second.as_string()];
      shard.push_back(std::move(record));
      ++accepted;
      ++total_samples_;
      if (shard.size() > config_.per_kernel_cap) {
        shard.pop_front();
        --total_samples_;
      }
    }
    stats_.batches_received += 1;
    stats_.samples_received += static_cast<std::uint64_t>(accepted);
    since_last_train_ += static_cast<std::size_t>(accepted);
  }
  if (telemetry::enabled()) {
    auto& registry = telemetry::MetricsRegistry::instance();
    registry.counter("apollo_served_batches_total", "Sample batches ingested.").inc();
    registry.counter("apollo_served_samples_total", "Samples ingested across batches.")
        .inc(static_cast<std::uint64_t>(accepted));
  }
  return accepted;
}

void TrainerDaemon::push_generation(Connection& connection) {
  std::string payload;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (generation_ == 0) return;
    payload = push_payload_;
  }
  if (connection.conn.send(FrameType::ModelPush, payload)) {
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.pushes_sent += 1;
  }
}

void TrainerDaemon::trainer_loop() {
  par::lower_current_thread_priority();  // training yields to serving threads
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      train_cv_.wait(lock, [&] {
        return stopping_ ||
               (since_last_train_ >= config_.train_batch &&
                total_samples_ >= config_.min_train_samples);
      });
      if (stopping_) return;
      since_last_train_ = 0;
    }
    train_once();
  }
}

void TrainerDaemon::train_once() {
  const auto started = std::chrono::steady_clock::now();
  // Snapshot the aggregate under the lock, fit outside it.
  std::vector<perf::SampleRecord> records;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    records.reserve(total_samples_);
    for (const auto& [loop_id, shard] : shards_) {
      records.insert(records.end(), shard.begin(), shard.end());
    }
  }
  if (records.empty()) return;

  ModelPushFrame push;
  push.trained_on_samples = records.size();
  bool ok = true;
  try {
    push.policy_text = model_text(Trainer::train(records, TunedParameter::Policy, config_.tree_params));
    if (config_.train_chunk) {
      try {
        push.chunk_text =
            model_text(Trainer::train(records, TunedParameter::ChunkSize, config_.tree_params));
      } catch (const std::exception&) {
        // No usable chunk sweep data in the aggregate; push policy alone.
      }
    }
  } catch (const std::exception& error) {
    ok = false;
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.trains_failed += 1;
    std::fprintf(stderr, "apollo_served: train failed: %s\n", error.what());
  }

  if (ok) {
    std::vector<std::shared_ptr<Connection>> targets;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      generation_ += 1;
      push.generation = generation_;
      push.pushed_ns = monotonic_ns();
      push_payload_ = encode_model_push(push);
      stats_.trains_completed += 1;
      for (const auto& connection : connections_) {
        if (connection->helloed) targets.push_back(connection);
      }
    }
    generation_cv_.notify_all();
    std::uint64_t pushed = 0;
    for (const auto& connection : targets) {
      // A dead client just fails its send; its serving thread reaps it.
      if (connection->conn.send(FrameType::ModelPush, push_payload_)) ++pushed;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stats_.pushes_sent += pushed;
    }
  }

  const double duration =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  if (telemetry::enabled()) {
    auto& registry = telemetry::MetricsRegistry::instance();
    registry
        .histogram("apollo_served_train_seconds", "Aggregate-train duration.",
                   telemetry::duration_bounds())
        .observe(duration);
    registry
        .counter("apollo_served_trains_total", "Aggregate trains by outcome.",
                 ok ? "result=\"ok\"" : "result=\"failed\"")
        .inc();
  }
}

}  // namespace apollo::service
