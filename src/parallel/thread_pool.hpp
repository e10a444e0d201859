#pragma once

// A persistent worker pool with an OpenMP-style static-schedule parallel_for,
// built as a low-latency fork-join executor.
//
// RAJA's omp_parallel_for_exec backend maps loop iterations to threads using
// OpenMP's `schedule(static, chunk)`: iterations are cut into `chunk`-sized
// blocks that are dealt round-robin to team members in order. This pool
// implements identical semantics on std::thread so the backend is
// deterministic, testable, and available on hosts without OpenMP.
//
// Fork-join protocol (see docs/architecture.md, "Execution substrate"):
//
//  - Each worker owns a cache-line-padded slot holding a job epoch. A launch
//    publishes one job by writing the shared descriptor, then storing the new
//    epoch into each *team member's* slot (one seq_cst store per member) —
//    non-members are never touched, never woken.
//  - The caller is team member 0: it executes share 0 itself instead of
//    sleeping through the region, so a team of T needs only T-1 pool workers
//    and the smallest launches pay no wakeup at all.
//  - Workers (and the caller, at the join) wait spin-then-park: a bounded
//    busy-wait of APOLLO_SPIN_US microseconds (default 50, 0 = park
//    immediately) checks the epoch/remaining count, then falls back to a
//    per-slot condvar so an idle pool costs nothing. Publishers only pay the
//    notify when the slot's owner actually parked. When the team is larger
//    than the machine (team size > hardware concurrency) the spin uses
//    sched_yield instead of the pause instruction: a pause-spinner would
//    occupy the very core the member it waits on needs, while a yielding
//    waiter donates its quantum and still dodges the park/notify syscalls.
//  - Completion is one fetch_sub per member on a dedicated counter; the last
//    member wakes the caller if (and only if) it parked.
//  - The body is invoked through a type-erased *block trampoline*
//    (`void(*)(const void*, Index lo, Index hi)`): one indirect call per
//    contiguous block, with the per-index loop compiled inside the caller's
//    trampoline instantiation — not one std::function call per index.
//
// Reentrancy: parallel_for called from inside a region on the same pool
// (from a worker's share or the caller's) runs inline on the current thread
// instead of deadlocking on job serialization.
//
// Environment (parsed via the hardened telemetry env layer — a garbage value
// warns on stderr and keeps the default):
//   APOLLO_NUM_THREADS  team size of the global pool (default: hardware
//                       concurrency)
//   APOLLO_SPIN_US      fork-join spin budget in microseconds before parking
//                       (default 50; 0 parks immediately)
//
// Observability: process-wide counts of launches, inline runs, wakeups and
// spin-vs-park completions (stats()), exported as the `apollo_pool_*` family
// and surfaced by apollo_top.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace apollo::par {

/// Block trampoline: run the type-erased body over indices [lo, hi). `forall`
/// instantiates one per (policy, body-type) pair so the index loop inlines.
using BlockFn = void (*)(const void* body, std::int64_t lo, std::int64_t hi);

/// Point-in-time snapshot of the process-wide pool counters (all pools in
/// the process share them; tests assert on deltas).
struct PoolStats {
  std::uint64_t launches = 0;          ///< multi-member fork-join launches
  std::uint64_t inline_runs = 0;       ///< team-of-one or reentrant launches
  std::uint64_t wakeups = 0;           ///< parked workers notified by a publish
  std::uint64_t spin_completions = 0;  ///< waits satisfied inside the spin budget
  std::uint64_t park_completions = 0;  ///< waits that parked on a condvar
};

class ThreadPool {
public:
  /// Creates a team of `threads` members (0 = hardware concurrency, minimum
  /// 1). The caller of each parallel_for is member 0, so `threads - 1` pool
  /// workers are spawned. `spin_us` overrides the APOLLO_SPIN_US fork-join
  /// spin budget (microseconds; < 0 reads the environment).
  explicit ThreadPool(unsigned threads = 0, std::int64_t spin_us = -1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Team size: the maximum number of members (caller included) a
  /// parallel_for on this pool can use.
  [[nodiscard]] unsigned thread_count() const noexcept { return team_size_; }

  /// The fork-join spin budget in effect (microseconds).
  [[nodiscard]] std::int64_t spin_us() const noexcept { return spin_us_; }

  /// Runs `block(body, lo, hi)` for every `chunk`-sized block of
  /// [begin, end) with OpenMP static,chunk assignment: block k (iterations
  /// [begin + k*chunk, ...)) runs on team member k % T, and each member
  /// executes its blocks in ascending k. chunk <= 0 selects the OpenMP
  /// default: ceil(N/T) — one contiguous block per member.
  /// `team` caps the number of participating members (OMP_NUM_THREADS for
  /// one region); 0 or >= thread_count() uses the whole team. The caller is
  /// always member 0 and returns only when every block has completed.
  /// Exceptions from any share are captured and the first is rethrown on the
  /// caller. Called from inside a region on this pool, runs inline.
  void parallel_for_blocks(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                           BlockFn block, const void* body, unsigned team = 0);

  /// Runs body(i) for i in [begin, end) with the same static,chunk
  /// assignment. Compatibility entry point: pays one std::function call per
  /// index — kernels go through raja::forall, whose typed trampolines
  /// inline the body loop per block instead.
  void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                    const std::function<void(std::int64_t)>& body, unsigned team = 0);

  /// Enqueue a one-shot background job (e.g. an online model retrain). Jobs
  /// run FIFO on a dedicated async worker — never on the parallel_for
  /// workers, so a long-running job cannot stall a parallel region, and a
  /// parallel region cannot delay the job. The worker thread is spawned on
  /// first use. Jobs must not throw; escaped exceptions are swallowed and
  /// counted in async_failures().
  void submit(std::function<void()> job);

  /// Jobs queued or running on the async lane.
  [[nodiscard]] std::size_t async_pending() const;
  [[nodiscard]] std::uint64_t async_failures() const;

  /// Block until the async lane is empty and idle.
  void wait_async_idle();

  /// Snapshot of the process-wide pool counters.
  [[nodiscard]] static PoolStats stats();

  /// True while the current thread is executing a share of a region on this
  /// pool (worker threads always; the caller during its share and join).
  [[nodiscard]] bool inside_region() const noexcept;

  /// Process-wide pool used by the RAJA backend (sized once, on first use,
  /// from APOLLO_NUM_THREADS or hardware concurrency).
  static ThreadPool& global();

private:
  struct Job {
    BlockFn block = nullptr;
    const void* body = nullptr;
    std::int64_t begin = 0;
    std::int64_t end = 0;
    std::int64_t chunk = 1;
    unsigned team = 1;  ///< participating members (caller included)
  };

  /// One cache-line-padded mailbox per worker. `epoch` is the publication
  /// channel; `parked` and the mutex/condvar implement the park fallback.
  struct alignas(64) WorkerSlot {
    std::atomic<std::uint64_t> epoch{0};
    char pad0[64 - sizeof(std::atomic<std::uint64_t>)];
    std::atomic<bool> parked{false};
    char pad1[64 - sizeof(std::atomic<bool>)];
    std::mutex mutex;
    std::condition_variable cv;
  };

  void worker_loop(unsigned slot_index);
  void run_share(const Job& job, unsigned member, unsigned team);
  void publish_to(WorkerSlot& slot, std::uint64_t epoch);
  void record_error() noexcept;
  void async_loop();

  unsigned team_size_ = 1;
  std::int64_t spin_us_ = 0;
  bool yield_spin_ = false;  ///< oversubscribed team: spin with sched_yield
  std::unique_ptr<WorkerSlot[]> slots_;  ///< team_size_ - 1 worker mailboxes
  std::vector<std::thread> workers_;

  // Launches are serialized: one region at a time per pool (nested regions
  // run inline). The mutex also guards job_ and epoch_counter_.
  std::mutex launch_mutex_;
  Job job_;
  std::uint64_t epoch_counter_ = 0;
  std::atomic<bool> shutting_down_{false};

  // Join state: workers still running the current job, plus the caller's
  // park fallback (symmetric to the worker slots').
  alignas(64) std::atomic<int> remaining_{0};
  std::atomic<bool> caller_parked_{false};
  std::mutex done_mutex_;
  std::condition_variable done_cv_;

  std::mutex error_mutex_;
  std::exception_ptr first_error_;

  // Async background-job lane (independent of the fork-join machinery).
  std::thread async_worker_;
  mutable std::mutex async_mutex_;
  std::condition_variable async_ready_;
  std::condition_variable async_idle_;
  std::deque<std::function<void()>> async_jobs_;
  bool async_running_ = false;
  bool async_shutdown_ = false;
  std::uint64_t async_failures_ = 0;
};

}  // namespace apollo::par
