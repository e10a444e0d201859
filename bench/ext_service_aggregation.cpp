// ext_service_aggregation: fleet learning vs isolated learning (extension).
//
// The paper's strong-scaling runs put an independent tuner in every process;
// each one pays the full exploration cost before it converges. The service
// subsystem (src/service) pools that cost: N clients stream samples to one
// trainer daemon, which fits on the aggregate and pushes each generation
// back. This experiment measures the exchange rate on the simulated machine:
//
//   isolated   — each of N clients trains only on its own samples (the
//                in-process retrain path); convergence = its deployed model
//                picks the oracle policy across the whole size deck;
//   aggregated — the same N clients connected to a TrainerDaemon over a unix
//                socket, applying pushed generations;
//   kill       — a fresh fleet whose daemon is stopped mid-run: every client
//                must finish every planned launch via local fallback.
//
// Both learners use the same training threshold (kTrainThreshold samples
// before the first fit), so the aggregated win is purely sample pooling:
// per-client cost ~T/N instead of T.
//
// Acceptance (exit 0): aggregated converges within half the per-client
// samples of isolated, transport overhead stays under 5% of the aggregated
// phase's wall time, and the kill phase drops zero launches.
//
// Usage: ext_service_aggregation [--clients N] [--out FILE]

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/harness.hpp"
#include "core/features.hpp"
#include "core/trainer.hpp"
#include "online/model_registry.hpp"
#include "online/sample_buffer.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "sim/machine.hpp"

using namespace apollo;

namespace {

constexpr const char* kLoopId = "svc:stream";
constexpr std::size_t kTrainThreshold = 96;  ///< samples before the first fit (both learners)
constexpr std::size_t kMaxLaunches = 600;    ///< per-client cap before declaring no convergence
constexpr double kAccuracyFloor = 0.9;       ///< >= apollo_replay's CI floor (0.5)

const std::int64_t kSizeDeck[] = {2000, 4000, 8000, 150000, 250000};
constexpr std::size_t kDeckSize = sizeof(kSizeDeck) / sizeof(kSizeDeck[0]);

instr::InstructionMix stream_mix() {
  return instr::MixBuilder{}.fp(2).load(2).store(1).build();
}

sim::CostQuery make_query(const sim::MachineModel& machine, std::int64_t size,
                          sim::PolicyKind policy) {
  sim::CostQuery query;
  query.num_indices = size;
  query.num_segments = 1;
  query.mix = stream_mix();
  query.bytes_per_iteration = 24;
  query.threads = machine.config().cores;
  query.kernel_seed = std::hash<std::string>{}(kLoopId);
  query.policy = policy;
  return query;
}

raja::PolicyType oracle_policy(const sim::MachineModel& machine, std::int64_t size) {
  const double seq = machine.cost_seconds(make_query(machine, size, sim::PolicyKind::Sequential));
  const double omp = machine.cost_seconds(make_query(machine, size, sim::PolicyKind::OpenMP));
  return seq <= omp ? raja::PolicyType::seq_segit_seq_exec
                    : raja::PolicyType::seq_segit_omp_parallel_for_exec;
}

online::Sample make_sample(std::int64_t size, raja::PolicyType policy, double seconds) {
  static const instr::KernelSignature* const kernel =
      instr::intern_signature({kLoopId, "StreamKernel", stream_mix(), 0});
  online::Sample sample;
  sample.kernel = kernel;
  sample.index_type = raja::IndexType::range;
  sample.num_indices = size;
  sample.num_segments = 1;
  sample.stride = 1;
  sample.policy = policy;
  sample.chunk = 0;
  sample.seconds = seconds;
  return sample;
}

/// The deployed model's policy choice for a launch of `size` (empty when no
/// model is deployed yet). Resolves features exactly as the runtime would.
std::string predict_policy(const online::ModelRegistry& registry, std::int64_t size) {
  const auto snapshot = registry.current();
  if (!snapshot || !snapshot->policy) return {};
  const perf::SampleRecord record = make_sample(size, raja::PolicyType::seq_segit_seq_exec, 0.0)
                                        .materialize();
  const int label = snapshot->policy->predict([&](const std::string& name) {
    const auto it = record.find(name);
    return it == record.end() ? std::optional<perf::Value>{} : std::optional<perf::Value>(it->second);
  });
  return snapshot->policy->label_name(label);
}

/// Deployed-model accuracy over the whole deck (the convergence criterion:
/// every client is scored against the global workload, so an isolated
/// learner cannot win by only knowing its own corner).
double deck_accuracy(const sim::MachineModel& machine, const online::ModelRegistry& registry) {
  std::size_t correct = 0;
  for (const std::int64_t size : kSizeDeck) {
    const std::string predicted = predict_policy(registry, size);
    if (!predicted.empty() && predicted == raja::policy_name(oracle_policy(machine, size))) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(kDeckSize);
}

/// One client's launch step: price both variants on the simulated machine and
/// push both samples (the sweep-style corpus the offline pipeline trains on).
void emit_launch(const sim::MachineModel& machine, online::SampleBuffer& buffer,
                 std::int64_t size, std::uint64_t* counter) {
  const double seq = machine.measured_seconds(
      make_query(machine, size, sim::PolicyKind::Sequential), (*counter)++);
  const double omp = machine.measured_seconds(
      make_query(machine, size, sim::PolicyKind::OpenMP), (*counter)++);
  buffer.push(make_sample(size, raja::PolicyType::seq_segit_seq_exec, seq));
  buffer.push(make_sample(size, raja::PolicyType::seq_segit_omp_parallel_for_exec, omp));
}

struct ClientResult {
  bool converged = false;
  std::uint64_t samples_at_convergence = 0;  ///< samples this client produced
  std::uint64_t launches = 0;
  double transport_seconds = 0.0;
  std::uint64_t fallbacks = 0;
};

/// Isolated learner: own buffer, own registry, local train at the threshold.
ClientResult run_isolated(const sim::MachineModel& machine, unsigned rank) {
  online::SampleBuffer buffer(1u << 14);
  online::ModelRegistry registry;
  std::uint64_t counter = rank * 1000003ull;  // decorrelate measurement noise
  ClientResult result;
  for (std::size_t launch = 0; launch < kMaxLaunches; ++launch) {
    const std::int64_t size = kSizeDeck[(launch + rank) % kDeckSize];
    emit_launch(machine, buffer, size, &counter);
    result.launches = launch + 1;
    if (buffer.size() >= kTrainThreshold) {
      const std::vector<perf::SampleRecord> records = buffer.drain();
      try {
        registry.publish(Trainer::train(records, TunedParameter::Policy));
      } catch (const std::exception&) {
        // Degenerate window; keep sampling.
      }
    }
    if (deck_accuracy(machine, registry) >= kAccuracyFloor) {
      result.converged = true;
      result.samples_at_convergence = buffer.total_pushed();
      break;
    }
  }
  return result;
}

/// Aggregated learner: the same loop, but the buffer drains to the daemon and
/// the deployed model arrives as a push.
ClientResult run_aggregated(const sim::MachineModel& machine, unsigned rank,
                            const std::string& socket_path) {
  online::SampleBuffer buffer(1u << 14);
  online::ModelRegistry registry;
  service::ClientConfig config;
  config.socket_path = socket_path;
  config.batch = 32;
  config.retry_ms = 50;
  config.poll_ms = 2;
  config.client_name = "bench-rank-" + std::to_string(rank);
  service::ServiceClient client(&buffer, &registry, config);
  client.start();
  std::uint64_t counter = rank * 1000003ull;
  ClientResult result;
  for (std::size_t launch = 0; launch < kMaxLaunches; ++launch) {
    const std::int64_t size = kSizeDeck[(launch + rank) % kDeckSize];
    emit_launch(machine, buffer, size, &counter);
    result.launches = launch + 1;
    if (deck_accuracy(machine, registry) >= kAccuracyFloor) {
      result.converged = true;
      result.samples_at_convergence = buffer.total_pushed();
      break;
    }
    // Launch cadence: gives the background lane its drain window (the real
    // runtime has exactly this shape — launches are spaced by app compute).
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto status = client.status();
  result.transport_seconds = status.transport_seconds;
  result.fallbacks = status.fallbacks;
  client.stop();
  return result;
}

struct SteadyResult {
  double mean_transport_seconds = 0.0;
  double wall_seconds = 0.0;
  [[nodiscard]] double overhead_fraction() const {
    return wall_seconds > 0 ? mean_transport_seconds / wall_seconds : 1.0;
  }
};

/// Steady-state transport overhead: a converged fleet keeps running with the
/// adapt-mode sample stride (1 in 4 launches recorded, as ext_online_adapt
/// configures), and each launch carries its application compute (modeled here
/// as the launch cadence). The gate is per-client: seconds the background
/// lane spent on transport work as a fraction of the phase's wall time.
SteadyResult run_steady_phase(const sim::MachineModel& machine, unsigned clients,
                              const std::string& socket_path) {
  constexpr std::size_t kSteadyLaunches = 250;
  constexpr std::size_t kSampleStride = 4;
  service::DaemonConfig daemon_config;
  daemon_config.socket_path = socket_path;
  daemon_config.train_batch = 32;
  daemon_config.min_train_samples = kTrainThreshold;
  service::TrainerDaemon daemon(daemon_config);
  if (!daemon.start()) return {};

  std::vector<std::unique_ptr<online::SampleBuffer>> buffers;
  std::vector<std::unique_ptr<online::ModelRegistry>> registries;
  std::vector<std::unique_ptr<service::ServiceClient>> svc;
  for (unsigned rank = 0; rank < clients; ++rank) {
    buffers.push_back(std::make_unique<online::SampleBuffer>(1u << 14));
    registries.push_back(std::make_unique<online::ModelRegistry>());
    service::ClientConfig config;
    config.socket_path = socket_path;
    config.batch = 32;
    config.retry_ms = 50;
    config.poll_ms = 5;
    config.client_name = "steady-rank-" + std::to_string(rank);
    svc.push_back(std::make_unique<service::ServiceClient>(buffers.back().get(),
                                                           registries.back().get(), config));
    svc.back()->start();
  }
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (unsigned rank = 0; rank < clients; ++rank) {
    threads.emplace_back([&, rank] {
      std::uint64_t counter = rank * 104729ull;
      for (std::size_t launch = 0; launch < kSteadyLaunches; ++launch) {
        if (launch % kSampleStride == 0) {
          emit_launch(machine, *buffers[rank], kSizeDeck[(launch + rank) % kDeckSize], &counter);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SteadyResult result;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  for (unsigned rank = 0; rank < clients; ++rank) {
    result.mean_transport_seconds += svc[rank]->status().transport_seconds;
    svc[rank]->stop();
  }
  result.mean_transport_seconds /= static_cast<double>(clients);
  daemon.stop();
  return result;
}

struct KillResult {
  std::uint64_t planned = 0;
  std::uint64_t completed = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t retained_locally = 0;  ///< samples kept for the local retrainer
};

/// Daemon dies mid-run: clients must complete every launch and keep their
/// samples for local adaptation.
KillResult run_kill_phase(const sim::MachineModel& machine, unsigned clients,
                          const std::string& socket_path) {
  service::DaemonConfig daemon_config;
  daemon_config.socket_path = socket_path;
  daemon_config.train_batch = 32;
  daemon_config.min_train_samples = kTrainThreshold;
  auto daemon = std::make_unique<service::TrainerDaemon>(daemon_config);
  if (!daemon->start()) return {};

  constexpr std::size_t kKillLaunches = 120;
  KillResult result;
  std::vector<std::unique_ptr<online::SampleBuffer>> buffers;
  std::vector<std::unique_ptr<online::ModelRegistry>> registries;
  std::vector<std::unique_ptr<service::ServiceClient>> svc;
  for (unsigned rank = 0; rank < clients; ++rank) {
    buffers.push_back(std::make_unique<online::SampleBuffer>(1u << 14));
    registries.push_back(std::make_unique<online::ModelRegistry>());
    service::ClientConfig config;
    config.socket_path = socket_path;
    config.batch = 16;
    config.retry_ms = 20;
    config.poll_ms = 2;
    config.client_name = "kill-rank-" + std::to_string(rank);
    svc.push_back(std::make_unique<service::ServiceClient>(buffers.back().get(),
                                                           registries.back().get(), config));
    svc.back()->start();
  }
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> completed(clients, 0);
  std::atomic<bool> daemon_dead{false};
  for (unsigned rank = 0; rank < clients; ++rank) {
    threads.emplace_back([&, rank] {
      std::uint64_t counter = rank * 7919ull;
      for (std::size_t launch = 0; launch < kKillLaunches; ++launch) {
        const std::int64_t size = kSizeDeck[(launch + rank) % kDeckSize];
        emit_launch(machine, *buffers[rank], size, &counter);
        completed[rank] += 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        if (launch == kKillLaunches / 2) {
          // First rank to reach the midpoint kills the daemon under everyone.
          if (!daemon_dead.exchange(true)) daemon->stop();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (unsigned rank = 0; rank < clients; ++rank) {
    const auto status = svc[rank]->status();
    result.fallbacks += status.fallbacks;
    result.planned += kKillLaunches;
    result.completed += completed[rank];
    svc[rank]->stop();
    // Whatever was not shipped before the kill stays buffered for the local
    // retrainer — the degradation contract.
    result.retained_locally += buffers[rank]->size();
  }
  daemon.reset();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned clients = 4;
  std::string out_path = "BENCH_service.json";
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--clients") { if (const char* v = next()) clients = static_cast<unsigned>(std::atoi(v)); }
    else if (arg == "--out") { if (const char* v = next()) out_path = v; }
    else {
      std::fprintf(stderr, "usage: ext_service_aggregation [--clients N] [--out FILE]\n");
      return 2;
    }
  }
  if (clients < 2) clients = 2;

  bench::print_heading("Fleet aggregation: shared trainer daemon vs isolated learners",
                       "extension of SV (per-process tuning at scale)");
  const sim::MachineModel machine{};
  const std::string socket_path =
      "/tmp/apollo_svc_bench." + std::to_string(::getpid()) + ".sock";

  // --- isolated baseline -----------------------------------------------------
  double isolated_mean_samples = 0.0;
  bool isolated_ok = true;
  for (unsigned rank = 0; rank < clients; ++rank) {
    const ClientResult result = run_isolated(machine, rank);
    isolated_ok = isolated_ok && result.converged;
    isolated_mean_samples += static_cast<double>(result.samples_at_convergence);
    std::printf("isolated   rank %u: %s after %llu launches (%llu samples)\n", rank,
                result.converged ? "converged" : "NO CONVERGENCE",
                static_cast<unsigned long long>(result.launches),
                static_cast<unsigned long long>(result.samples_at_convergence));
  }
  isolated_mean_samples /= static_cast<double>(clients);

  // --- aggregated fleet ------------------------------------------------------
  service::DaemonConfig daemon_config;
  daemon_config.socket_path = socket_path;
  daemon_config.train_batch = 32;
  daemon_config.min_train_samples = kTrainThreshold;
  service::TrainerDaemon daemon(daemon_config);
  if (!daemon.start()) return 1;

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<ClientResult> aggregated(clients);
  std::vector<std::thread> threads;
  for (unsigned rank = 0; rank < clients; ++rank) {
    threads.emplace_back(
        [&, rank] { aggregated[rank] = run_aggregated(machine, rank, socket_path); });
  }
  for (auto& thread : threads) thread.join();
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  const auto daemon_stats = daemon.stats();
  daemon.stop();

  double aggregated_mean_samples = 0.0;
  double transport_seconds = 0.0;
  bool aggregated_ok = true;
  for (unsigned rank = 0; rank < clients; ++rank) {
    const ClientResult& result = aggregated[rank];
    aggregated_ok = aggregated_ok && result.converged;
    aggregated_mean_samples += static_cast<double>(result.samples_at_convergence);
    transport_seconds += result.transport_seconds;
    std::printf("aggregated rank %u: %s after %llu launches (%llu samples, %.1f ms transport)\n",
                rank, result.converged ? "converged" : "NO CONVERGENCE",
                static_cast<unsigned long long>(result.launches),
                static_cast<unsigned long long>(result.samples_at_convergence),
                result.transport_seconds * 1e3);
  }
  aggregated_mean_samples /= static_cast<double>(clients);
  const double sample_ratio =
      isolated_mean_samples > 0 ? aggregated_mean_samples / isolated_mean_samples : 1.0;

  std::printf("\ndaemon: batches=%llu samples=%llu trains=%llu generation=%llu\n",
              static_cast<unsigned long long>(daemon_stats.batches_received),
              static_cast<unsigned long long>(daemon_stats.samples_received),
              static_cast<unsigned long long>(daemon_stats.trains_completed),
              static_cast<unsigned long long>(daemon_stats.generation));
  std::printf("samples to %.0f%% deck accuracy: isolated %.1f/client, aggregated %.1f/client "
              "(%.2fx)\n",
              kAccuracyFloor * 100.0, isolated_mean_samples, aggregated_mean_samples,
              sample_ratio);
  std::printf("convergence phase: %.1f ms total transport over %.2f s wall\n",
              transport_seconds * 1e3, wall_seconds);

  // --- steady-state transport overhead ---------------------------------------
  const SteadyResult steady = run_steady_phase(machine, clients, socket_path);
  const double overhead_fraction = steady.overhead_fraction();
  std::printf("steady state: %.1f ms/client transport over %.2f s of adapt wall time (%.2f%%)\n",
              steady.mean_transport_seconds * 1e3, steady.wall_seconds,
              overhead_fraction * 100.0);

  // --- daemon-kill resilience ------------------------------------------------
  const KillResult kill = run_kill_phase(machine, clients, socket_path);
  const std::uint64_t dropped = kill.planned - kill.completed;
  std::printf("kill phase: completed %llu/%llu launches after mid-run daemon kill "
              "(fallbacks=%llu, %llu samples retained locally)\n",
              static_cast<unsigned long long>(kill.completed),
              static_cast<unsigned long long>(kill.planned),
              static_cast<unsigned long long>(kill.fallbacks),
              static_cast<unsigned long long>(kill.retained_locally));

  const bool pass_samples = isolated_ok && aggregated_ok && sample_ratio <= 0.5;
  const bool pass_overhead = overhead_fraction < 0.05;
  const bool pass_kill = kill.planned > 0 && dropped == 0;

  std::ofstream out(out_path);
  out << "{\n"
      << "  \"clients\": " << clients << ",\n"
      << "  \"accuracy_floor\": " << kAccuracyFloor << ",\n"
      << "  \"isolated_samples_per_client\": " << isolated_mean_samples << ",\n"
      << "  \"aggregated_samples_per_client\": " << aggregated_mean_samples << ",\n"
      << "  \"sample_ratio\": " << sample_ratio << ",\n"
      << "  \"convergence_transport_seconds\": " << transport_seconds << ",\n"
      << "  \"convergence_wall_seconds\": " << wall_seconds << ",\n"
      << "  \"steady_transport_seconds_per_client\": " << steady.mean_transport_seconds << ",\n"
      << "  \"steady_wall_seconds\": " << steady.wall_seconds << ",\n"
      << "  \"transport_overhead_fraction\": " << overhead_fraction << ",\n"
      << "  \"daemon_generation\": " << daemon_stats.generation << ",\n"
      << "  \"kill_planned\": " << kill.planned << ",\n"
      << "  \"kill_completed\": " << kill.completed << ",\n"
      << "  \"kill_dropped\": " << dropped << ",\n"
      << "  \"kill_fallbacks\": " << kill.fallbacks << ",\n"
      << "  \"pass_samples\": " << (pass_samples ? "true" : "false") << ",\n"
      << "  \"pass_overhead\": " << (pass_overhead ? "true" : "false") << ",\n"
      << "  \"pass_kill\": " << (pass_kill ? "true" : "false") << "\n"
      << "}\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  const bool pass = pass_samples && pass_overhead && pass_kill;
  std::printf("%s: aggregation %.2fx isolated samples (gate <= 0.5), overhead %.2f%% "
              "(gate < 5%%), dropped %llu (gate 0)\n",
              pass ? "PASS" : "FAIL", sample_ratio, overhead_fraction * 100.0,
              static_cast<unsigned long long>(dropped));
  return pass ? 0 : 1;
}
