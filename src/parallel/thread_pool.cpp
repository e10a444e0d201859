#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "telemetry/env.hpp"

namespace apollo::par {

namespace {

// The pool (if any) whose region the current thread is executing: set for
// the lifetime of a worker thread and around the caller's own share, so a
// nested parallel_for on the same pool runs inline instead of deadlocking
// on job serialization.
thread_local const ThreadPool* t_active_pool = nullptr;

// The process-wide counts behind stats(), one cache line each: workers and
// callers of every pool add to them with one relaxed add per event.
alignas(64) std::atomic<std::uint64_t> g_launches{0};
alignas(64) std::atomic<std::uint64_t> g_inline_runs{0};
alignas(64) std::atomic<std::uint64_t> g_wakeups{0};
alignas(64) std::atomic<std::uint64_t> g_spin_completions{0};
alignas(64) std::atomic<std::uint64_t> g_park_completions{0};

unsigned default_thread_count() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      telemetry::env_int64("APOLLO_NUM_THREADS", static_cast<std::int64_t>(hw), 1));
}

std::int64_t default_spin_us() {
  // Bounded so a typo'd huge value cannot turn the pool into a busy loop for
  // seconds per join; 0 parks immediately.
  constexpr std::int64_t kMaxSpinUs = 100000;
  const std::int64_t us = telemetry::env_int64("APOLLO_SPIN_US", 50, 0);
  return std::min(us, kMaxSpinUs);
}

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

/// Bounded wait for `done()` before falling back to the condvar park.
/// On a dedicated core (team fits the machine) spins with the pause
/// instruction; when oversubscribed spins with sched_yield, donating the
/// quantum to the team member being waited on — a pause-spinner there would
/// hold the core hostage for the whole budget. Returns true if `done()`
/// became true within `budget_us` microseconds.
template <typename Done>
bool spin_wait(const Done& done, std::int64_t budget_us, bool yield) {
  if (budget_us <= 0) return false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(budget_us);
  if (yield) {
    while (!done()) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      std::this_thread::yield();
    }
    return true;
  }
  do {
    for (int i = 0; i < 64; ++i) {
      if (done()) return true;
      cpu_relax();
    }
  } while (std::chrono::steady_clock::now() < deadline);
  return done();
}

/// Trampoline for the std::function compatibility entry point.
void function_block(const void* body, std::int64_t lo, std::int64_t hi) {
  const auto& fn = *static_cast<const std::function<void(std::int64_t)>*>(body);
  for (std::int64_t i = lo; i < hi; ++i) fn(i);
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads, std::int64_t spin_us) {
  team_size_ = threads > 0 ? threads : default_thread_count();
  spin_us_ = spin_us >= 0 ? spin_us : default_spin_us();
  yield_spin_ = team_size_ > std::max(1u, std::thread::hardware_concurrency());

  const unsigned worker_count = team_size_ - 1;
  if (worker_count > 0) {
    slots_ = std::make_unique<WorkerSlot[]>(worker_count);
    workers_.reserve(worker_count);
    for (unsigned i = 0; i < worker_count; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(launch_mutex_);
    shutting_down_.store(true, std::memory_order_seq_cst);
    for (std::size_t w = 0; w < workers_.size(); ++w) {
      WorkerSlot& slot = slots_[w];
      slot.epoch.store(~std::uint64_t{0}, std::memory_order_seq_cst);
      {
        std::lock_guard slot_lock(slot.mutex);
      }
      slot.cv.notify_one();
    }
  }
  for (auto& worker : workers_) worker.join();
  {
    std::lock_guard lock(async_mutex_);
    async_shutdown_ = true;
  }
  async_ready_.notify_all();
  if (async_worker_.joinable()) async_worker_.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

bool ThreadPool::inside_region() const noexcept { return t_active_pool == this; }

PoolStats ThreadPool::stats() {
  return {g_launches.load(std::memory_order_relaxed), g_inline_runs.load(std::memory_order_relaxed),
          g_wakeups.load(std::memory_order_relaxed),
          g_spin_completions.load(std::memory_order_relaxed),
          g_park_completions.load(std::memory_order_relaxed)};
}

void ThreadPool::run_share(const Job& job, unsigned member, unsigned team) {
  const std::int64_t n = job.end - job.begin;
  if (n <= 0) return;
  std::int64_t chunk = job.chunk;
  if (chunk <= 0) chunk = (n + team - 1) / team;  // OpenMP default
  const std::int64_t num_blocks = (n + chunk - 1) / chunk;
  for (std::int64_t block = member; block < num_blocks; block += team) {
    const std::int64_t lo = job.begin + block * chunk;
    const std::int64_t hi = std::min(job.end, lo + chunk);
    job.block(job.body, lo, hi);
  }
}

void ThreadPool::record_error() noexcept {
  std::lock_guard lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
}

// Publication side of the slot protocol. The seq_cst epoch store and parked
// load pair with the worker's seq_cst parked store and epoch load (inside
// the condvar predicate): in the seq_cst total order either this store
// precedes the worker's predicate load — the worker sees the new epoch and
// never sleeps — or the worker's parked store precedes our load — we see
// parked and notify. Taking (and releasing) the slot mutex before notifying
// guarantees the worker is actually inside wait(), not between its predicate
// check and the sleep.
void ThreadPool::publish_to(WorkerSlot& slot, std::uint64_t epoch) {
  slot.epoch.store(epoch, std::memory_order_seq_cst);
  if (slot.parked.load(std::memory_order_seq_cst)) {
    {
      std::lock_guard slot_lock(slot.mutex);
    }
    slot.cv.notify_one();
    g_wakeups.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop(unsigned slot_index) {
  t_active_pool = this;  // a nested parallel_for from a share runs inline
  WorkerSlot& slot = slots_[slot_index];
  std::uint64_t seen = 0;
  for (;;) {
    // Wait for a new epoch: bounded spin, then park on the slot condvar.
    std::uint64_t next = slot.epoch.load(std::memory_order_acquire);
    if (next == seen) {
      const bool spun = spin_wait(
          [&] {
            next = slot.epoch.load(std::memory_order_acquire);
            return next != seen;
          },
          spin_us_, yield_spin_);
      if (spun) {
        g_spin_completions.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::unique_lock slot_lock(slot.mutex);
        slot.parked.store(true, std::memory_order_seq_cst);
        slot.cv.wait(slot_lock,
                     [&] { return slot.epoch.load(std::memory_order_seq_cst) != seen; });
        slot.parked.store(false, std::memory_order_relaxed);
        next = slot.epoch.load(std::memory_order_acquire);
        g_park_completions.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      g_spin_completions.fetch_add(1, std::memory_order_relaxed);
    }
    if (shutting_down_.load(std::memory_order_acquire)) return;
    seen = next;

    const Job job = job_;  // synchronized by the acquire epoch load
    try {
      run_share(job, slot_index + 1, job.team);
    } catch (...) {
      record_error();
    }
    // Last member out wakes the caller iff it parked (same protocol as the
    // worker slots, with the seq_cst RMW standing in for the epoch store).
    if (remaining_.fetch_sub(1, std::memory_order_seq_cst) == 1) {
      if (caller_parked_.load(std::memory_order_seq_cst)) {
        {
          std::lock_guard done_lock(done_mutex_);
        }
        done_cv_.notify_one();
      }
    }
  }
}

void ThreadPool::parallel_for_blocks(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                                     BlockFn block, const void* body, unsigned team) {
  if (end <= begin) return;
  const unsigned effective = team == 0 ? team_size_ : std::min(std::max(team, 1u), team_size_);
  if (effective == 1 || t_active_pool == this) {
    // A one-member team executes its blocks in ascending order — one
    // contiguous sweep. A nested region (called from a share on this pool)
    // runs the same way: the outer region's members are busy, and waiting
    // for them here would deadlock the join.
    g_inline_runs.fetch_add(1, std::memory_order_relaxed);
    block(body, begin, end);
    return;
  }

  std::exception_ptr error;
  {
    std::unique_lock launch_lock(launch_mutex_);
    job_ = Job{block, body, begin, end, chunk, effective};
    {
      std::lock_guard error_lock(error_mutex_);
      first_error_ = nullptr;
    }
    remaining_.store(static_cast<int>(effective) - 1, std::memory_order_relaxed);
    const std::uint64_t epoch = ++epoch_counter_;
    for (unsigned w = 0; w + 1 < effective; ++w) publish_to(slots_[w], epoch);
    g_launches.fetch_add(1, std::memory_order_relaxed);

    // The caller is member 0: run our share instead of sleeping through the
    // region. Mark the pool active on this thread so a nested parallel_for
    // from the body runs inline.
    const ThreadPool* previous = t_active_pool;
    t_active_pool = this;
    try {
      run_share(job_, 0, effective);
    } catch (...) {
      record_error();
    }

    // Join: spin for the same budget as the workers, then park.
    if (remaining_.load(std::memory_order_acquire) != 0) {
      const bool spun =
          spin_wait([&] { return remaining_.load(std::memory_order_acquire) == 0; },
                    spin_us_, yield_spin_);
      if (spun) {
        g_spin_completions.fetch_add(1, std::memory_order_relaxed);
      } else {
        std::unique_lock done_lock(done_mutex_);
        caller_parked_.store(true, std::memory_order_seq_cst);
        done_cv_.wait(done_lock,
                      [&] { return remaining_.load(std::memory_order_seq_cst) == 0; });
        caller_parked_.store(false, std::memory_order_relaxed);
        g_park_completions.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      g_spin_completions.fetch_add(1, std::memory_order_relaxed);
    }
    t_active_pool = previous;

    {
      std::lock_guard error_lock(error_mutex_);
      error = first_error_;
    }
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_for(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                              const std::function<void(std::int64_t)>& body, unsigned team) {
  parallel_for_blocks(begin, end, chunk, &function_block, &body, team);
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lock(async_mutex_);
    if (async_shutdown_) return;  // pool is being destroyed; drop the job
    async_jobs_.push_back(std::move(job));
    if (!async_worker_.joinable()) {
      async_worker_ = std::thread([this] { async_loop(); });
    }
  }
  async_ready_.notify_one();
}

std::size_t ThreadPool::async_pending() const {
  std::lock_guard lock(async_mutex_);
  return async_jobs_.size() + (async_running_ ? 1 : 0);
}

std::uint64_t ThreadPool::async_failures() const {
  std::lock_guard lock(async_mutex_);
  return async_failures_;
}

void ThreadPool::wait_async_idle() {
  std::unique_lock lock(async_mutex_);
  async_idle_.wait(lock, [&] { return async_jobs_.empty() && !async_running_; });
}

void ThreadPool::async_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lock(async_mutex_);
      async_ready_.wait(lock, [&] { return async_shutdown_ || !async_jobs_.empty(); });
      if (async_jobs_.empty()) return;  // shutdown with an empty queue
      job = std::move(async_jobs_.front());
      async_jobs_.pop_front();
      async_running_ = true;
    }
    try {
      job();
    } catch (...) {
      std::lock_guard lock(async_mutex_);
      ++async_failures_;
    }
    {
      std::lock_guard lock(async_mutex_);
      async_running_ = false;
    }
    async_idle_.notify_all();
  }
}

}  // namespace apollo::par
