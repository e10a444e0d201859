// apollo-simulate: explore the calibrated machine model from the command
// line. Prints the seq / OpenMP cost of a kernel across launch sizes
// (and the chunk-size response at a chosen size), which is how the model
// constants in sim/machine.hpp were calibrated against the paper's observed
// behaviour.
//
// Usage:
//   apollo_simulate [--fp N] [--div N] [--load N] [--store N]
//                   [--bytes N] [--threads N] [--size N]

#include <cstdio>
#include <cstring>
#include <string>

#include "instr/mix.hpp"
#include "sim/machine.hpp"
#include "telemetry/build_info.hpp"

using namespace apollo;

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--version") == 0) {
    std::printf("%s\n", build_info_string().c_str());
    return 0;
  }
  int fp = 6, divs = 0, loads = 4, stores = 2;
  std::int64_t bytes = 48;
  unsigned threads = 16;
  std::int64_t chunk_size_n = 100000;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    auto next = [&]() -> long long { return a + 1 < argc ? std::atoll(argv[++a]) : 0; };
    if (arg == "--fp") fp = static_cast<int>(next());
    else if (arg == "--div") divs = static_cast<int>(next());
    else if (arg == "--load") loads = static_cast<int>(next());
    else if (arg == "--store") stores = static_cast<int>(next());
    else if (arg == "--bytes") bytes = next();
    else if (arg == "--threads") threads = static_cast<unsigned>(next());
    else if (arg == "--size") chunk_size_n = next();
    else {
      std::fprintf(stderr, "usage: apollo_simulate [--fp N] [--div N] [--load N] [--store N]"
                           " [--bytes N] [--threads N] [--size N]\n");
      return 2;
    }
  }

  const sim::MachineModel machine;
  sim::CostQuery query;
  query.mix = instr::MixBuilder{}.fp(fp).div(divs).load(loads).store(stores).control(2).build();
  query.bytes_per_iteration = bytes;
  query.threads = threads;

  std::printf("kernel: fp=%d div=%d load=%d store=%d bytes/iter=%lld threads=%u\n\n", fp, divs,
              loads, stores, static_cast<long long>(bytes), threads);
  std::printf("%12s %14s %14s %10s\n", "num_indices", "seq", "omp", "winner");
  for (std::int64_t n : {8LL, 64LL, 512LL, 2048LL, 8192LL, 32768LL, 131072LL, 524288LL,
                         2097152LL, 8388608LL}) {
    query.num_indices = n;
    query.policy = sim::PolicyKind::Sequential;
    const double seq = machine.cost_seconds(query);
    query.policy = sim::PolicyKind::OpenMP;
    query.chunk = 0;
    const double omp = machine.cost_seconds(query);
    std::printf("%12lld %12.3f us %12.3f us %10s\n", static_cast<long long>(n), seq * 1e6,
                omp * 1e6, seq <= omp ? "seq" : "omp");
  }

  std::printf("\nOpenMP static chunk response at num_indices=%lld:\n",
              static_cast<long long>(chunk_size_n));
  std::printf("%8s %14s\n", "chunk", "omp");
  query.num_indices = chunk_size_n;
  query.policy = sim::PolicyKind::OpenMP;
  for (std::int64_t chunk : {0LL, 1LL, 2LL, 4LL, 8LL, 16LL, 32LL, 64LL, 128LL, 256LL, 512LL,
                             1024LL}) {
    query.chunk = chunk;
    std::printf("%8lld %12.3f us%s\n", static_cast<long long>(chunk),
                machine.cost_seconds(query) * 1e6, chunk == 0 ? "   (default N/t)" : "");
  }
  return 0;
}
