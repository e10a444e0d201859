// apollo-served: the fleet trainer daemon (see docs/apollo-service.md).
//
// Listens on a unix-domain socket, aggregates sample batches from every
// connected Apollo client process, trains on the aggregate with the core
// Trainer, and pushes each new model generation back to all clients. One
// daemon turns N independently-exploring processes into one fleet that
// shares what any member learns.
//
// Usage:
//   apollo_served --socket PATH [--train-batch N] [--min-samples N]
//                 [--per-kernel-cap N] [--chunk] [--stats-every SEC]
//                 [--max-seconds SEC]
//
// Runs until SIGINT/SIGTERM (or --max-seconds). Exits 0 on a clean shutdown
// with a final stats line on stdout.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "service/daemon.hpp"
#include "telemetry/build_info.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

void print_stats(const apollo::service::TrainerDaemon::Stats& stats) {
  std::printf(
      "clients=%llu/%llu batches=%llu samples=%llu rejected=%llu trains=%llu "
      "gen=%llu pushes=%llu kernels=%zu\n",
      static_cast<unsigned long long>(stats.clients_connected),
      static_cast<unsigned long long>(stats.clients_total),
      static_cast<unsigned long long>(stats.batches_received),
      static_cast<unsigned long long>(stats.samples_received),
      static_cast<unsigned long long>(stats.frames_rejected),
      static_cast<unsigned long long>(stats.trains_completed),
      static_cast<unsigned long long>(stats.generation),
      static_cast<unsigned long long>(stats.pushes_sent), stats.per_kernel_samples.size());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", apollo::build_info_string().c_str());
    return 0;
  }
  apollo::service::DaemonConfig config;
  double stats_every = 0.0;
  double max_seconds = 0.0;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--socket") { if (const char* v = next()) config.socket_path = v; }
    else if (arg == "--train-batch") { if (const char* v = next()) config.train_batch = static_cast<std::size_t>(std::atoll(v)); }
    else if (arg == "--min-samples") { if (const char* v = next()) config.min_train_samples = static_cast<std::size_t>(std::atoll(v)); }
    else if (arg == "--per-kernel-cap") { if (const char* v = next()) config.per_kernel_cap = static_cast<std::size_t>(std::atoll(v)); }
    else if (arg == "--chunk") { config.train_chunk = true; }
    else if (arg == "--stats-every") { if (const char* v = next()) stats_every = std::atof(v); }
    else if (arg == "--max-seconds") { if (const char* v = next()) max_seconds = std::atof(v); }
    else {
      std::fprintf(stderr,
                   "usage: apollo_served --socket PATH [--train-batch N] [--min-samples N] "
                   "[--per-kernel-cap N] [--chunk] [--stats-every SEC] [--max-seconds SEC]\n");
      return 2;
    }
  }
  if (config.socket_path.empty()) {
    std::fprintf(stderr, "apollo_served: --socket PATH is required\n");
    return 2;
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  apollo::service::TrainerDaemon daemon(config);
  if (!daemon.start()) return 1;
  std::printf("apollo_served: listening on %s (train-batch=%zu min-samples=%zu)\n",
              config.socket_path.c_str(), daemon.config().train_batch,
              daemon.config().min_train_samples);
  std::fflush(stdout);

  const auto started = std::chrono::steady_clock::now();
  auto last_stats = started;
  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const auto now = std::chrono::steady_clock::now();
    if (max_seconds > 0 &&
        std::chrono::duration<double>(now - started).count() >= max_seconds) {
      break;
    }
    if (stats_every > 0 &&
        std::chrono::duration<double>(now - last_stats).count() >= stats_every) {
      print_stats(daemon.stats());
      last_stats = now;
    }
  }

  const auto final_stats = daemon.stats();
  daemon.stop();
  std::printf("apollo_served: shutting down: ");
  print_stats(final_stats);
  return 0;
}
