#include "service/client.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unistd.h>
#include <utility>

#include "parallel/thread_priority.hpp"
#include "telemetry/env.hpp"
#include "telemetry/telemetry.hpp"

namespace apollo::service {

namespace {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class TransportTimer {
public:
  explicit TransportTimer(double* sink) : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  ~TransportTimer() {
    *sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

ClientConfig ClientConfig::from_env() {
  ClientConfig config;
  config.socket_path = telemetry::env_string("APOLLO_SERVICE_SOCKET");
  config.batch = telemetry::env_size("APOLLO_SERVICE_BATCH", config.batch);
  config.retry_ms = telemetry::env_int64("APOLLO_SERVICE_RETRY_MS", config.retry_ms);
  return config;
}

ServiceClient::ServiceClient(online::SampleBuffer* buffer, online::ModelRegistry* registry,
                             ClientConfig config)
    : buffer_(buffer), registry_(registry), config_(std::move(config)) {
  if (config_.batch == 0) config_.batch = 1;
  if (config_.retry_ms <= 0) config_.retry_ms = 1;
  if (config_.poll_ms <= 0) config_.poll_ms = 1;
  if (config_.client_name.empty()) {
    config_.client_name = "pid:" + std::to_string(::getpid());
  }
  // Bound the unsent backlog: a dead daemon must not grow client memory.
  outbox_cap_ = std::max<std::size_t>(1024, 8 * config_.batch);
}

ServiceClient::~ServiceClient() { stop(); }

void ServiceClient::start() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return;
  started_ = true;
  stop_ = false;
  thread_ = std::thread([this] { run(); });
}

void ServiceClient::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    started_ = false;
  }
}

ServiceClient::Status ServiceClient::status() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return status_;
}

bool ServiceClient::wait_connected(double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return status_.connected || stop_; }) &&
         status_.connected;
}

bool ServiceClient::wait_generation(std::uint64_t at_least, double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return status_.generation >= at_least || stop_; }) &&
         status_.generation >= at_least;
}

bool ServiceClient::wait_sent(std::uint64_t min_samples, double timeout_s) {
  std::unique_lock<std::mutex> lock(mutex_);
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                      [&] { return status_.samples_sent >= min_samples || stop_; }) &&
         status_.samples_sent >= min_samples;
}

bool ServiceClient::stopping() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stop_;
}

void ServiceClient::interruptible_sleep(std::int64_t ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::milliseconds(ms), [&] { return stop_; });
}

void ServiceClient::run() {
  // Same contract as the Retrainer lane: tuning infrastructure must not
  // compete with the application for cores.
  par::lower_current_thread_priority();
  std::int64_t backoff_ms = config_.retry_ms;
  const std::int64_t backoff_cap = config_.retry_ms * 10;
  while (!stopping()) {
    if (!conn_.valid()) {
      if (!connect_and_hello()) {
        interruptible_sleep(backoff_ms);
        backoff_ms = std::min(backoff_ms * 2, backoff_cap);
        continue;
      }
      backoff_ms = config_.retry_ms;
    }
    if (!pump_inbound()) continue;
    if (!ship_pending()) continue;
    // Idle: wait for either the poll period (then check the buffer again) or
    // an inbound push (readable wakes early).
    if (!conn_.readable(static_cast<int>(config_.poll_ms))) continue;
  }
}

bool ServiceClient::connect_and_hello() {
  const int fd = connect_unix(config_.socket_path);
  if (fd < 0) {
    const std::lock_guard<std::mutex> lock(mutex_);
    status_.fallbacks += 1;
    status_.last_error = "connect failed: " + config_.socket_path;
    return false;
  }
  conn_ = FrameConn(fd);
  HelloFrame hello;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.client_name = config_.client_name;
  if (!conn_.send(FrameType::Hello, encode_hello(hello))) {
    note_disconnect("hello send: " + conn_.last_error());
    return false;
  }
  // The hello ack must arrive promptly; a daemon that never answers is as
  // dead as a missing one.
  const auto frame = conn_.recv(static_cast<int>(backoff_capped_hello_ms()));
  if (!frame || frame->first != FrameType::Ack) {
    note_disconnect("no hello ack: " + conn_.last_error());
    return false;
  }
  AckFrame ack;
  try {
    ack = decode_ack(frame->second);
  } catch (const WireError& error) {
    note_disconnect(std::string("hello ack: ") + error.what());
    return false;
  }
  if (ack.protocol != kProtocolVersion) {
    note_disconnect("protocol skew: daemon speaks v" + std::to_string(ack.protocol));
    conn_.close();
    return false;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    status_.connected = true;
    status_.connects += 1;
  }
  cv_.notify_all();
  if (telemetry::enabled()) {
    auto& registry = telemetry::MetricsRegistry::instance();
    registry.counter("apollo_service_connects_total", "Completed daemon handshakes.").inc();
    registry.gauge("apollo_service_connected", "1 while connected to the trainer daemon.").set(1.0);
  }
  return true;
}

std::int64_t ServiceClient::backoff_capped_hello_ms() const {
  // Generous but bounded: a hello ack is one small frame.
  return std::max<std::int64_t>(config_.retry_ms * 4, 1000);
}

bool ServiceClient::pump_inbound() {
  while (conn_.valid() && conn_.readable(0)) {
    const auto frame = conn_.recv(0);
    if (!frame) break;
    try {
      switch (frame->first) {
        case FrameType::ModelPush:
          apply_push(decode_model_push(frame->second));
          break;
        case FrameType::Ack:
          // Decoded for validation only; counters already advanced at send.
          static_cast<void>(decode_ack(frame->second));
          break;
        case FrameType::Stats:
          static_cast<void>(decode_stats(frame->second));
          break;
        default:
          throw WireError(std::string("unexpected frame from daemon: ") +
                          frame_type_name(frame->first));
      }
    } catch (const WireError& error) {
      conn_.close();
      note_disconnect(std::string("inbound: ") + error.what());
      return false;
    }
  }
  if (!conn_.valid()) {
    note_disconnect("daemon gone: " + conn_.last_error());
    return false;
  }
  return true;
}

bool ServiceClient::ship_pending() {
  double transport = 0.0;
  std::uint64_t shipped_batches = 0;
  std::uint64_t shipped_samples = 0;
  std::uint64_t shipped_bytes = 0;
  bool ok = true;
  {
    const TransportTimer timer(&transport);
    // Only drain while connected: a disconnected client leaves samples in
    // the buffer for the in-process Retrainer (the fallback learner).
    buffer_->drain_into(outbox_);
    if (outbox_.size() > outbox_cap_) {
      outbox_.erase(outbox_.begin(),
                    outbox_.begin() + static_cast<std::ptrdiff_t>(outbox_.size() - outbox_cap_));
    }
    while (!outbox_.empty() && conn_.valid()) {
      const std::size_t n = std::min(outbox_.size(), config_.batch);
      SampleBatch batch;
      batch.seq = ++next_seq_;
      batch.records.reserve(n);
      for (std::size_t i = 0; i < n; ++i) batch.records.push_back(outbox_[i].materialize());
      const std::string payload = encode_sample_batch(batch);
      if (!conn_.send(FrameType::SampleBatch, payload)) {
        ok = false;
        break;
      }
      shipped_batches += 1;
      shipped_samples += n;
      shipped_bytes += payload.size() + kFrameHeaderBytes;
      outbox_.erase(outbox_.begin(), outbox_.begin() + static_cast<std::ptrdiff_t>(n));
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    status_.batches_sent += shipped_batches;
    status_.samples_sent += shipped_samples;
    status_.bytes_sent += shipped_bytes;
    status_.transport_seconds += transport;
  }
  if (shipped_samples > 0) cv_.notify_all();
  if (telemetry::enabled() && shipped_batches > 0) {
    auto& registry = telemetry::MetricsRegistry::instance();
    registry.counter("apollo_service_batches_total", "Sample batches shipped to the daemon.")
        .inc(static_cast<double>(shipped_batches));
    registry.counter("apollo_service_samples_total", "Samples shipped to the daemon.")
        .inc(static_cast<double>(shipped_samples));
    registry.counter("apollo_service_bytes_total", "Wire bytes shipped to the daemon.")
        .inc(static_cast<double>(shipped_bytes));
  }
  if (!ok) note_disconnect("batch send: " + conn_.last_error());
  return ok;
}

void ServiceClient::apply_push(const ModelPushFrame& push) {
  double transport = 0.0;
  std::optional<TunerModel> policy;
  std::optional<TunerModel> chunk;
  std::optional<TunerModel> threads;
  {
    const TransportTimer timer(&transport);
    try {
      if (push.policy_text) {
        std::istringstream in(*push.policy_text);
        policy = TunerModel::load(in);
      }
      if (push.chunk_text) {
        std::istringstream in(*push.chunk_text);
        chunk = TunerModel::load(in);
      }
      if (push.threads_text) {
        std::istringstream in(*push.threads_text);
        threads = TunerModel::load(in);
      }
      // The registry's publish is the same atomic hot-swap path the local
      // Retrainer uses; dispatch threads pick the new generation up at their
      // next version poll without blocking.
      registry_->publish(std::move(policy), std::move(chunk), std::move(threads));
    } catch (const std::exception& error) {
      // A push that fails to parse, or that the registry rejects, must not
      // poison the deployed models: publish nothing, count it, keep the
      // connection (the frame itself was CRC-clean; this is a daemon-side
      // bug, not line noise).
      const std::lock_guard<std::mutex> lock(mutex_);
      status_.apply_failures += 1;
      status_.last_error = std::string("model apply: ") + error.what();
      status_.transport_seconds += transport;
      return;
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    status_.pushes_applied += 1;
    status_.generation = push.generation;
    status_.transport_seconds += transport;
  }
  cv_.notify_all();
  if (telemetry::enabled()) {
    auto& registry = telemetry::MetricsRegistry::instance();
    registry.counter("apollo_service_pushes_total", "Model generations applied from the daemon.")
        .inc();
    registry.gauge("apollo_service_generation", "Last daemon model generation applied.")
        .set(static_cast<double>(push.generation));
    if (push.pushed_ns != 0) {
      const std::uint64_t now = monotonic_ns();
      if (now > push.pushed_ns) {
        registry
            .histogram("apollo_service_push_latency_seconds",
                       "Daemon publish to client apply latency.", telemetry::duration_bounds())
            .observe(static_cast<double>(now - push.pushed_ns) * 1e-9);
      }
    }
  }
}

void ServiceClient::note_disconnect(const std::string& reason) {
  conn_.close();
  bool was_connected;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    was_connected = status_.connected;
    status_.connected = false;
    status_.fallbacks += 1;
    status_.last_error = reason;
  }
  cv_.notify_all();
  if (telemetry::enabled()) {
    auto& registry = telemetry::MetricsRegistry::instance();
    registry.counter("apollo_service_fallbacks_total",
                     "Disconnects falling back to local adaptation.")
        .inc();
    if (was_connected) {
      registry.gauge("apollo_service_connected", "1 while connected to the trainer daemon.")
          .set(0.0);
    }
  }
}

}  // namespace apollo::service
