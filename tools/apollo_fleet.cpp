// apollo-fleet: deterministic multi-process harness for the fleet service.
//
// Forks one apollo_served daemon (as a sibling binary, fork+exec) and N real
// client processes (fork, no exec), each running a Mode::Adapt workload with
// APOLLO_SERVICE_SOCKET pointed at the daemon. Ranks are skewed the same way
// the strong-scaling experiments skew AMR patches: a weighted deck of
// "patches" (kernel launch sizes) is distributed across ranks with
// sim::ClusterModel::decompose, so no single client sees the whole feature
// space — only the fleet does. That is exactly the regime where central
// aggregation beats per-process learning.
//
// The parent stays single-threaded until every fork has happened (fork in a
// multi-threaded process inherits a poisoned lock state); children create
// their Runtime (and its threads) only after the fork.
//
// Usage:
//   apollo_fleet --socket PATH [--clients N] [--steps N] [--step-ms MS]
//                [--kill-after SEC] [--no-daemon] [--out-dir DIR]
//                [--expect-generation G] [--expect-fallbacks]
//
// Exit 0 iff every client completed every planned launch (zero dropped) and
// every --expect-* gate held. --kill-after SIGKILLs the daemon mid-run: the
// gate then is that clients still finish everything via local fallback.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <libgen.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/runtime.hpp"
#include "service/client.hpp"
#include "sim/cluster.hpp"
#include "telemetry/build_info.hpp"

using namespace apollo;

namespace {

struct Options {
  std::string socket;
  unsigned clients = 4;
  std::size_t steps = 200;
  long step_ms = 0;
  double kill_after = 0.0;
  bool no_daemon = false;
  std::string out_dir = ".";
  std::uint64_t expect_generation = 0;
  bool expect_fallbacks = false;
};

const KernelHandle& fleet_kernel() {
  static const KernelHandle k{"fleet:stream", "FleetKernel",
                              instr::MixBuilder{}.fp(2).load(2).store(1).build(), 24};
  return k;
}

/// The fleet's patch deck: small sizes (sequential wins) and large sizes
/// (OpenMP wins ~4x), two patches per rank on average. decompose() hands the
/// heavy patches to dedicated ranks, so some ranks see *only* the small
/// regime — their local learner alone could never label the large one.
std::vector<std::int64_t> make_patch_deck(unsigned clients) {
  static const std::int64_t sizes[] = {2000, 4000, 8000, 150000, 250000};
  std::vector<std::int64_t> deck;
  for (unsigned p = 0; p < 2 * clients; ++p) deck.push_back(sizes[p % 5]);
  return deck;
}

std::string rank_file(const Options& opt, unsigned rank) {
  return opt.out_dir + "/fleet_rank" + std::to_string(rank) + ".txt";
}

/// The client process body (runs after fork, before any Runtime existed).
int run_client(const Options& opt, unsigned rank, const std::vector<std::int64_t>& my_patches) {
  ::setenv("APOLLO_SERVICE_SOCKET", opt.socket.c_str(), 1);
  ::setenv("APOLLO_SERVICE_BATCH", "32", 1);
  ::setenv("APOLLO_SERVICE_RETRY_MS", "100", 1);

  auto& rt = Runtime::instance();
  rt.set_execute_selected(false);
  rt.set_mode(Mode::Adapt);
  online::OnlineConfig config;
  config.sample_stride = 1;  // every launch is fleet training data
  config.min_retrain_samples = 48;
  config.drift.window = 32;
  config.drift.min_samples = 8;
  config.drift.cooldown = 48;
  config.explorer.epsilon = 0.20;  // cold start: explore aggressively
  rt.configure_online(config);

  const std::size_t planned = opt.steps * my_patches.size();
  std::size_t completed = 0;
  for (std::size_t step = 0; step < opt.steps; ++step) {
    for (const std::int64_t size : my_patches) {
      apollo::forall(fleet_kernel(), raja::IndexSet::range(0, size), [](raja::Index) {});
      ++completed;
    }
    if (opt.step_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(opt.step_ms));
  }

  service::ServiceClient::Status status;
  if (const service::ServiceClient* client = rt.service_client()) {
    // Give the background lane one beat to flush the tail of the buffer.
    rt.service_client()->wait_sent(1, 0.5);
    status = client->status();
    if (opt.expect_generation > 0 && opt.kill_after <= 0.0) {
      // The steps above can finish in milliseconds — faster than the daemon
      // can accumulate a training quorum and broadcast the model. Linger
      // (bounded) until this rank has applied the expected generation, so
      // --expect-generation gates convergence, not a shutdown race.
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (status.generation < opt.expect_generation &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        status = client->status();
      }
    }
  }
  const auto online_status = rt.online().status();

  std::ofstream out(rank_file(opt, rank));
  out << "rank=" << rank << "\n"
      << "planned=" << planned << "\n"
      << "completed=" << completed << "\n"
      << "patches=" << my_patches.size() << "\n"
      << "connects=" << status.connects << "\n"
      << "fallbacks=" << status.fallbacks << "\n"
      << "batches_sent=" << status.batches_sent << "\n"
      << "samples_sent=" << status.samples_sent << "\n"
      << "pushes_applied=" << status.pushes_applied << "\n"
      << "generation=" << status.generation << "\n"
      << "local_retrains=" << online_status.retrains_completed << "\n"
      << "transport_seconds=" << status.transport_seconds << "\n";
  out.close();
  rt.reset();  // stops the service client and retrainer cleanly
  return completed == planned ? 0 : 1;
}

pid_t spawn_daemon(const Options& opt) {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) {
    std::perror("apollo_fleet: readlink /proc/self/exe");
    return -1;
  }
  exe[n] = '\0';
  const std::string daemon_path = std::string(::dirname(exe)) + "/apollo_served";
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("apollo_fleet: fork daemon");
    return -1;
  }
  if (pid == 0) {
    std::vector<std::string> args = {"apollo_served", "--socket",     opt.socket,
                                     "--train-batch", "96",           "--min-samples",
                                     "96"};
    std::vector<char*> argv_exec;
    argv_exec.reserve(args.size() + 1);
    for (std::string& s : args) argv_exec.push_back(s.data());
    argv_exec.push_back(nullptr);
    ::execv(daemon_path.c_str(), argv_exec.data());
    std::perror("apollo_fleet: exec apollo_served");
    ::_exit(127);
  }
  return pid;
}

std::map<std::string, std::string> read_rank_file(const std::string& path) {
  std::map<std::string, std::string> kv;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto eq = line.find('=');
    if (eq != std::string::npos) kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return kv;
}

std::uint64_t to_u64(const std::map<std::string, std::string>& kv, const char* key) {
  const auto it = kv.find(key);
  return it == kv.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", build_info_string().c_str());
    return 0;
  }
  Options opt;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    if (arg == "--socket") { if (const char* v = next()) opt.socket = v; }
    else if (arg == "--clients") { if (const char* v = next()) opt.clients = static_cast<unsigned>(std::atoi(v)); }
    else if (arg == "--steps") { if (const char* v = next()) opt.steps = static_cast<std::size_t>(std::atoll(v)); }
    else if (arg == "--step-ms") { if (const char* v = next()) opt.step_ms = std::atol(v); }
    else if (arg == "--kill-after") { if (const char* v = next()) opt.kill_after = std::atof(v); }
    else if (arg == "--no-daemon") { opt.no_daemon = true; }
    else if (arg == "--out-dir") { if (const char* v = next()) opt.out_dir = v; }
    else if (arg == "--expect-generation") { if (const char* v = next()) opt.expect_generation = std::strtoull(v, nullptr, 10); }
    else if (arg == "--expect-fallbacks") { opt.expect_fallbacks = true; }
    else {
      std::fprintf(stderr,
                   "usage: apollo_fleet --socket PATH [--clients N] [--steps N] [--step-ms MS] "
                   "[--kill-after SEC] [--no-daemon] [--out-dir DIR] "
                   "[--expect-generation G] [--expect-fallbacks]\n");
      return 2;
    }
  }
  if (opt.socket.empty()) {
    std::fprintf(stderr, "apollo_fleet: --socket PATH is required\n");
    return 2;
  }
  if (opt.clients == 0) opt.clients = 1;

  // Patch decomposition: weight = size (compute cost), greedy LPT to ranks —
  // the same skew the fig12/fig13 strong-scaling decks use.
  const std::vector<std::int64_t> deck = make_patch_deck(opt.clients);
  std::vector<double> weights;
  weights.reserve(deck.size());
  for (const std::int64_t size : deck) weights.push_back(static_cast<double>(size));
  const std::vector<unsigned> assignment = sim::ClusterModel::decompose(weights, opt.clients);
  std::vector<std::vector<std::int64_t>> per_rank(opt.clients);
  for (std::size_t p = 0; p < deck.size(); ++p) per_rank[assignment[p]].push_back(deck[p]);

  // NOTE: no Runtime::instance() (no threads) before this point — every fork
  // below must come from a single-threaded parent.
  pid_t daemon_pid = -1;
  if (!opt.no_daemon) {
    daemon_pid = spawn_daemon(opt);
    if (daemon_pid < 0) return 1;
  }

  std::vector<pid_t> client_pids;
  for (unsigned rank = 0; rank < opt.clients; ++rank) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("apollo_fleet: fork client");
      return 1;
    }
    if (pid == 0) ::_exit(run_client(opt, rank, per_rank[rank]));
    client_pids.push_back(pid);
  }
  std::printf("apollo_fleet: %u clients over %zu patches, daemon %s (pid %d)\n", opt.clients,
              deck.size(), opt.no_daemon ? "disabled" : "running",
              static_cast<int>(daemon_pid));

  if (daemon_pid > 0 && opt.kill_after > 0) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(opt.kill_after * 1000)));
    std::printf("apollo_fleet: SIGKILL daemon (pid %d) mid-run\n", static_cast<int>(daemon_pid));
    ::kill(daemon_pid, SIGKILL);
  }

  bool clients_ok = true;
  for (std::size_t i = 0; i < client_pids.size(); ++i) {
    int status = 0;
    ::waitpid(client_pids[i], &status, 0);
    const bool ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!ok) {
      std::fprintf(stderr, "apollo_fleet: client rank %zu failed (status %d)\n", i, status);
      clients_ok = false;
    }
  }
  if (daemon_pid > 0) {
    if (opt.kill_after <= 0) ::kill(daemon_pid, SIGTERM);
    int status = 0;
    ::waitpid(daemon_pid, &status, 0);
  }

  // Aggregate the rank reports.
  std::uint64_t planned = 0, completed = 0, connects = 0, fallbacks = 0;
  std::uint64_t samples = 0, pushes = 0, max_generation = 0, local_retrains = 0;
  bool all_fell_back = true;
  for (unsigned rank = 0; rank < opt.clients; ++rank) {
    const auto kv = read_rank_file(rank_file(opt, rank));
    if (kv.empty()) {
      std::fprintf(stderr, "apollo_fleet: missing report for rank %u\n", rank);
      clients_ok = false;
      continue;
    }
    planned += to_u64(kv, "planned");
    completed += to_u64(kv, "completed");
    connects += to_u64(kv, "connects");
    fallbacks += to_u64(kv, "fallbacks");
    samples += to_u64(kv, "samples_sent");
    pushes += to_u64(kv, "pushes_applied");
    local_retrains += to_u64(kv, "local_retrains");
    max_generation = std::max(max_generation, to_u64(kv, "generation"));
    if (to_u64(kv, "fallbacks") == 0) all_fell_back = false;
    std::printf("  rank %u: patches=%llu completed=%llu/%llu connects=%llu fallbacks=%llu "
                "samples_sent=%llu pushes=%llu gen=%llu\n",
                rank, static_cast<unsigned long long>(to_u64(kv, "patches")),
                static_cast<unsigned long long>(to_u64(kv, "completed")),
                static_cast<unsigned long long>(to_u64(kv, "planned")),
                static_cast<unsigned long long>(to_u64(kv, "connects")),
                static_cast<unsigned long long>(to_u64(kv, "fallbacks")),
                static_cast<unsigned long long>(to_u64(kv, "samples_sent")),
                static_cast<unsigned long long>(to_u64(kv, "pushes_applied")),
                static_cast<unsigned long long>(to_u64(kv, "generation")));
  }
  std::printf("fleet: completed=%llu/%llu samples_shipped=%llu pushes_applied=%llu "
              "max_generation=%llu fallbacks=%llu local_retrains=%llu\n",
              static_cast<unsigned long long>(completed),
              static_cast<unsigned long long>(planned),
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(pushes),
              static_cast<unsigned long long>(max_generation),
              static_cast<unsigned long long>(fallbacks),
              static_cast<unsigned long long>(local_retrains));

  bool pass = clients_ok && completed == planned && planned > 0;
  if (!pass) std::printf("FAIL: dropped launches (%llu of %llu missing) or client failure\n",
                         static_cast<unsigned long long>(planned - completed),
                         static_cast<unsigned long long>(planned));
  if (opt.expect_generation > 0 && max_generation < opt.expect_generation) {
    std::printf("FAIL: expected model generation >= %llu, fleet reached %llu\n",
                static_cast<unsigned long long>(opt.expect_generation),
                static_cast<unsigned long long>(max_generation));
    pass = false;
  }
  if (opt.expect_fallbacks && !all_fell_back) {
    std::printf("FAIL: expected every client to fall back after the daemon kill\n");
    pass = false;
  }
  if (pass) std::printf("PASS: zero dropped launches across the fleet\n");
  return pass ? 0 : 1;
}
