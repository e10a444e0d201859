// End-to-end tests for Apollo-as-a-service: an in-process TrainerDaemon plus
// ServiceClients exercising the full loop — hello, batch shipping, aggregate
// training, model push, registry hot-swap — and the degradation paths the
// design centers on: daemon absent, daemon dying mid-run, protocol skew, and
// misbehaving peers, none of which may crash or stall a client. Also covers
// the APOLLO_SERVICE_* env knobs' warn-and-default parsing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/features.hpp"
#include "online/model_registry.hpp"
#include "online/sample_buffer.hpp"
#include "raja/policy.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/socket.hpp"
#include "service/wire.hpp"

using namespace apollo::service;
using apollo::online::ModelRegistry;
using apollo::online::Sample;
using apollo::online::SampleBuffer;
namespace features = apollo::features;

namespace {

std::string unique_socket() {
  static std::atomic<int> counter{0};
  return "/tmp/apollo_svc_test." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

DaemonConfig daemon_cfg(const std::string& socket) {
  DaemonConfig cfg;
  cfg.socket_path = socket;
  cfg.train_batch = 16;
  cfg.min_train_samples = 16;
  return cfg;
}

ClientConfig client_cfg(const std::string& socket, const std::string& name) {
  ClientConfig cfg;
  cfg.socket_path = socket;
  cfg.batch = 8;
  cfg.retry_ms = 50;
  cfg.poll_ms = 5;
  cfg.client_name = name;
  return cfg;
}

/// A separable workload: sequential wins small sizes, OpenMP wins large, so
/// the daemon's aggregate fit has real signal to learn from.
Sample make_sample(std::int64_t size, bool omp) {
  static const apollo::instr::KernelSignature* const kernel =
      apollo::instr::intern_signature({"svc:test", "ServiceKernel", {}, 0});
  Sample s;
  s.kernel = kernel;
  s.index_type = raja::IndexType::range;
  s.num_indices = size;
  s.num_segments = 1;
  s.stride = 1;
  s.policy = omp ? raja::PolicyType::seq_segit_omp_parallel_for_exec
                 : raja::PolicyType::seq_segit_seq_exec;
  s.seconds = omp ? 5e-3 + static_cast<double>(size) * 1e-7
                  : static_cast<double>(size) * 1e-6;
  return s;
}

/// 8 samples per repeat: both policies across a small/large size deck.
void push_deck(SampleBuffer& buffer, int repeats) {
  static const std::int64_t kSizes[] = {2000, 4000, 150000, 250000};
  for (int r = 0; r < repeats; ++r) {
    for (const std::int64_t size : kSizes) {
      buffer.push(make_sample(size, false));
      buffer.push(make_sample(size, true));
    }
  }
}

bool wait_until(const std::function<bool()>& pred, double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Lines in /proc/self/maps: each unjoined exited thread keeps its stack
/// mapping (and guard page) listed there.
std::ptrdiff_t map_lines() {
  std::ifstream maps("/proc/self/maps");
  return std::count(std::istreambuf_iterator<char>(maps), std::istreambuf_iterator<char>(), '\n');
}

}  // namespace

// --- env knobs ----------------------------------------------------------------

TEST(ServiceClientConfig, FromEnvUnsetDisablesWithDefaults) {
  ::unsetenv("APOLLO_SERVICE_SOCKET");
  ::unsetenv("APOLLO_SERVICE_BATCH");
  ::unsetenv("APOLLO_SERVICE_RETRY_MS");
  const ClientConfig cfg = ClientConfig::from_env();
  EXPECT_FALSE(cfg.enabled());
  EXPECT_EQ(cfg.batch, 64u);
  EXPECT_EQ(cfg.retry_ms, 500);
}

TEST(ServiceClientConfig, FromEnvParsesValidValues) {
  ::setenv("APOLLO_SERVICE_SOCKET", "/tmp/apollo.sock", 1);
  ::setenv("APOLLO_SERVICE_BATCH", "128", 1);
  ::setenv("APOLLO_SERVICE_RETRY_MS", "250", 1);
  const ClientConfig cfg = ClientConfig::from_env();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.socket_path, "/tmp/apollo.sock");
  EXPECT_EQ(cfg.batch, 128u);
  EXPECT_EQ(cfg.retry_ms, 250);
  ::unsetenv("APOLLO_SERVICE_SOCKET");
  ::unsetenv("APOLLO_SERVICE_BATCH");
  ::unsetenv("APOLLO_SERVICE_RETRY_MS");
}

TEST(ServiceClientConfig, FromEnvGarbageWarnsAndKeepsDefaults) {
  // A typo'd knob must not silently zero the batch size or the retry delay.
  ::setenv("APOLLO_SERVICE_SOCKET", "/tmp/apollo.sock", 1);
  const char* garbage[] = {"", "abc", "64k", "1e6", "-3", "0", "12 34",
                           "999999999999999999999999"};
  for (const char* value : garbage) {
    ::setenv("APOLLO_SERVICE_BATCH", value, 1);
    ::setenv("APOLLO_SERVICE_RETRY_MS", value, 1);
    const ClientConfig cfg = ClientConfig::from_env();
    EXPECT_EQ(cfg.batch, 64u) << "APOLLO_SERVICE_BATCH=\"" << value << '"';
    EXPECT_EQ(cfg.retry_ms, 500) << "APOLLO_SERVICE_RETRY_MS=\"" << value << '"';
    EXPECT_TRUE(cfg.enabled());
  }
  ::unsetenv("APOLLO_SERVICE_SOCKET");
  ::unsetenv("APOLLO_SERVICE_BATCH");
  ::unsetenv("APOLLO_SERVICE_RETRY_MS");
}

// --- the happy path -----------------------------------------------------------

TEST(ServiceClient, AggregatesTrainsAndPushesToAllClients) {
  const std::string socket = unique_socket();
  TrainerDaemon daemon(daemon_cfg(socket));
  ASSERT_TRUE(daemon.start());

  SampleBuffer buffer_a(256), buffer_b(256);
  ModelRegistry registry_a, registry_b;
  ServiceClient a(&buffer_a, &registry_a, client_cfg(socket, "rank0"));
  ServiceClient b(&buffer_b, &registry_b, client_cfg(socket, "rank1"));
  a.start();
  b.start();
  ASSERT_TRUE(a.wait_connected(10.0));
  ASSERT_TRUE(b.wait_connected(10.0));

  push_deck(buffer_a, 2);  // 16 samples each
  push_deck(buffer_b, 2);
  ASSERT_TRUE(a.wait_sent(16, 10.0));
  ASSERT_TRUE(b.wait_sent(16, 10.0));

  // The daemon trains on the aggregate and pushes to every client; each
  // client publishes the pushed generation through its registry.
  ASSERT_TRUE(daemon.wait_generation(1, 20.0));
  EXPECT_TRUE(a.wait_generation(1, 10.0));
  EXPECT_TRUE(b.wait_generation(1, 10.0));

  for (ModelRegistry* registry : {&registry_a, &registry_b}) {
    EXPECT_GE(registry->version(), 1u);
    const auto snapshot = registry->current();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_TRUE(snapshot->policy.has_value());
  }

  // Generation 1 can train on the first client's 16 samples alone; wait for
  // the daemon to ingest the second client's batch before counting.
  ASSERT_TRUE(wait_until([&] { return daemon.stats().samples_received >= 32; }, 10.0));
  const TrainerDaemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.clients_connected, 2u);
  EXPECT_EQ(stats.samples_received, 32u);
  EXPECT_GE(stats.batches_received, 2u);
  EXPECT_GE(stats.trains_completed, 1u);
  EXPECT_EQ(stats.trains_failed, 0u);
  EXPECT_EQ(stats.frames_rejected, 0u);
  ASSERT_EQ(stats.per_kernel_samples.count("svc:test"), 1u);
  EXPECT_EQ(stats.per_kernel_samples.at("svc:test"), 32u);

  const ServiceClient::Status status = a.status();
  EXPECT_TRUE(status.connected);
  EXPECT_EQ(status.samples_sent, 16u);
  EXPECT_GE(status.pushes_applied, 1u);
  EXPECT_EQ(status.apply_failures, 0u);
  EXPECT_TRUE(buffer_a.empty()) << "shipped samples leave the local buffer";

  // A late joiner with nothing to contribute still receives the current
  // generation immediately after its hello.
  SampleBuffer buffer_c(256);
  ModelRegistry registry_c;
  ServiceClient c(&buffer_c, &registry_c, client_cfg(socket, "rank2"));
  c.start();
  EXPECT_TRUE(c.wait_generation(1, 10.0));
  EXPECT_GE(registry_c.version(), 1u);
  EXPECT_EQ(c.status().samples_sent, 0u);

  c.stop();
  a.stop();
  b.stop();
  daemon.stop();
}

// --- degradation --------------------------------------------------------------

TEST(ServiceClient, NoDaemonMeansPureLocalFallback) {
  const std::string socket = unique_socket();  // nothing listening here
  SampleBuffer buffer(64);
  ModelRegistry registry;
  ServiceClient client(&buffer, &registry, client_cfg(socket, "orphan"));
  client.start();

  push_deck(buffer, 1);
  ASSERT_TRUE(wait_until([&] { return client.status().fallbacks >= 1; }, 10.0));

  const ServiceClient::Status status = client.status();
  EXPECT_FALSE(status.connected);
  EXPECT_EQ(status.samples_sent, 0u);
  // Undrained samples stay local for the in-process Retrainer.
  EXPECT_EQ(buffer.size(), 8u);
  EXPECT_EQ(registry.version(), 0u);
  client.stop();  // must not hang in a backoff sleep
}

TEST(ServiceClient, DaemonDeathFallsBackThenRejoins) {
  const std::string socket = unique_socket();
  auto daemon = std::make_unique<TrainerDaemon>(daemon_cfg(socket));
  ASSERT_TRUE(daemon->start());

  SampleBuffer buffer(256);
  ModelRegistry registry;
  ServiceClient client(&buffer, &registry, client_cfg(socket, "survivor"));
  client.start();
  ASSERT_TRUE(client.wait_connected(10.0));

  push_deck(buffer, 1);
  ASSERT_TRUE(client.wait_sent(8, 10.0));

  // Daemon dies mid-run: the client notices, falls back, and keeps every
  // sample produced while disconnected in the local buffer.
  const std::uint64_t fallbacks_before = client.status().fallbacks;
  daemon.reset();
  push_deck(buffer, 1);
  ASSERT_TRUE(
      wait_until([&] { return client.status().fallbacks > fallbacks_before; }, 10.0));
  EXPECT_FALSE(client.status().connected);
  EXPECT_EQ(buffer.size(), 8u) << "no samples may be lost to a dead daemon";

  // A daemon restarted on the same path is rejoined transparently and the
  // retained backlog ships.
  daemon = std::make_unique<TrainerDaemon>(daemon_cfg(socket));
  ASSERT_TRUE(daemon->start());
  ASSERT_TRUE(client.wait_connected(15.0));
  EXPECT_TRUE(client.wait_sent(16, 10.0));
  EXPECT_TRUE(wait_until([&] { return buffer.empty(); }, 10.0));

  client.stop();
  daemon->stop();
}

// --- hostile peers ------------------------------------------------------------

TEST(ServiceDaemon, ProtocolSkewIsNackedAndDisconnected) {
  const std::string socket = unique_socket();
  TrainerDaemon daemon(daemon_cfg(socket));
  ASSERT_TRUE(daemon.start());

  // Older clients (v1, v2) and one from the future. HELLO's layout is the
  // same in every version, so each decodes and earns a nack naming the
  // daemon's protocol, then a hang-up; none is a decode error.
  const std::uint32_t skewed[] = {1, 2, kProtocolVersion + 1};
  for (const std::uint32_t protocol : skewed) {
    FrameConn conn(connect_unix(socket));
    ASSERT_TRUE(conn.valid());
    HelloFrame hello;
    hello.protocol = protocol;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.client_name = "v" + std::to_string(protocol);
    ASSERT_TRUE(conn.send(FrameType::Hello, encode_hello(hello)));

    const auto nack = conn.recv(5000);
    ASSERT_TRUE(nack.has_value()) << "protocol " << protocol;
    ASSERT_EQ(nack->first, FrameType::Ack);
    const AckFrame ack = decode_ack(nack->second);
    EXPECT_EQ(ack.protocol, kProtocolVersion) << "protocol " << protocol;
    EXPECT_EQ(ack.samples_accepted, 0u);
    EXPECT_FALSE(conn.recv(5000).has_value()) << "protocol " << protocol;
    EXPECT_FALSE(conn.valid());
  }

  EXPECT_TRUE(wait_until([&] { return daemon.stats().frames_rejected >= 3; }, 5.0));

  // The daemon itself is unharmed: a well-versioned client still joins.
  SampleBuffer buffer(64);
  ModelRegistry registry;
  ServiceClient client(&buffer, &registry, client_cfg(socket, "present-day"));
  client.start();
  EXPECT_TRUE(client.wait_connected(10.0));
  client.stop();
  daemon.stop();
}

TEST(FleetCorrelation, V1HelloGetsCleanNackNotDecodeError) {
  const std::string socket = unique_socket();
  TrainerDaemon daemon(daemon_cfg(socket));
  ASSERT_TRUE(daemon.start());

  // A v1 client's HELLO decodes under the current protocol (the layout is
  // frozen), so the daemon can answer it with a nack naming its own
  // protocol and hang up, rather than failing on the bytes.
  HelloFrame hello;
  hello.protocol = 1;
  hello.pid = static_cast<std::uint64_t>(::getpid());
  hello.client_name = "v1-holdout";
  const HelloFrame decoded = decode_hello(encode_hello(hello));
  EXPECT_EQ(decoded.protocol, 1u);
  EXPECT_EQ(decoded.client_name, "v1-holdout");

  FrameConn conn(connect_unix(socket));
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.send(FrameType::Hello, encode_hello(hello)));

  const auto nack = conn.recv(5000);
  ASSERT_TRUE(nack.has_value());
  ASSERT_EQ(nack->first, FrameType::Ack);
  const AckFrame ack = decode_ack(nack->second);
  EXPECT_EQ(ack.protocol, kProtocolVersion);
  EXPECT_EQ(ack.samples_accepted, 0u);
  EXPECT_FALSE(conn.recv(5000).has_value());
  EXPECT_FALSE(conn.valid());
  EXPECT_TRUE(wait_until([&] { return daemon.stats().frames_rejected >= 1; }, 5.0));

  // The daemon survives: a current-protocol client still joins.
  SampleBuffer buffer(64);
  ModelRegistry registry;
  ServiceClient client(&buffer, &registry, client_cfg(socket, "current"));
  client.start();
  EXPECT_TRUE(client.wait_connected(10.0));
  client.stop();
  daemon.stop();
}

TEST(ServiceDaemon, MalformedPeerDisconnectsWithoutPoisoningOthers) {
  const std::string socket = unique_socket();
  TrainerDaemon daemon(daemon_cfg(socket));
  ASSERT_TRUE(daemon.start());

  SampleBuffer buffer(256);
  ModelRegistry registry;
  ServiceClient good(&buffer, &registry, client_cfg(socket, "good"));
  good.start();
  ASSERT_TRUE(good.wait_connected(10.0));

  // Peer 1: a batch before hello is a protocol violation.
  {
    FrameConn conn(connect_unix(socket));
    ASSERT_TRUE(conn.valid());
    SampleBatch premature;
    premature.seq = 1;
    ASSERT_TRUE(conn.send(FrameType::SampleBatch, encode_sample_batch(premature)));
    EXPECT_FALSE(conn.recv(5000).has_value()) << "daemon must hang up, not ack";
  }
  // Peer 2: raw garbage where a frame header belongs.
  {
    FrameConn conn(connect_unix(socket));
    ASSERT_TRUE(conn.valid());
    const std::string junk(64, '\xEE');
    ASSERT_TRUE(wait_until([&] { return daemon.stats().clients_total >= 3; }, 5.0));
    ::send(conn.fd(), junk.data(), junk.size(), 0);
    EXPECT_FALSE(conn.recv(5000).has_value());
  }
  EXPECT_TRUE(wait_until([&] { return daemon.stats().frames_rejected >= 2; }, 5.0));

  // The well-behaved client is untouched and its samples still aggregate.
  push_deck(buffer, 2);
  EXPECT_TRUE(good.wait_sent(16, 10.0));
  EXPECT_TRUE(daemon.wait_generation(1, 20.0));
  EXPECT_TRUE(good.wait_generation(1, 10.0));
  EXPECT_TRUE(good.status().connected);
  EXPECT_EQ(daemon.stats().samples_received, 16u);

  good.stop();
  daemon.stop();
}

TEST(ServiceDaemon, ClosedConnectionsReleaseTheirServeThreads) {
  // Every connection gets a serve thread. Unless the daemon joins the ones
  // whose peer left, each connect + close cycle keeps an exited thread's
  // stack mapped until stop(), and clients that fall back and rejoin grow
  // that without bound.
  const std::string socket = unique_socket();
  TrainerDaemon daemon(daemon_cfg(socket));
  ASSERT_TRUE(daemon.start());

  const auto connect_hello_close = [&] {
    FrameConn conn(connect_unix(socket));
    ASSERT_TRUE(conn.valid());
    HelloFrame hello;
    hello.pid = static_cast<std::uint64_t>(::getpid());
    hello.client_name = "cycler";
    ASSERT_TRUE(conn.send(FrameType::Hello, encode_hello(hello)));
    ASSERT_TRUE(conn.recv(5000).has_value());
    conn.close();
    ASSERT_TRUE(wait_until([&] { return daemon.stats().clients_connected == 0; }, 5.0));
  };
  // Warm up thread-stack and allocator caches before taking the baseline.
  for (int i = 0; i < 4; ++i) connect_hello_close();
  const std::ptrdiff_t before = map_lines();
  for (int i = 0; i < 64; ++i) connect_hello_close();
  EXPECT_LT(map_lines() - before, 16) << "serve threads of closed connections are not joined";
  EXPECT_EQ(daemon.stats().clients_total, 68u);
  daemon.stop();
}
