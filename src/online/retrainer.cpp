#include "online/retrainer.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_map>
#include <utility>

#include "core/features.hpp"
#include "parallel/thread_priority.hpp"
#include "telemetry/telemetry.hpp"

namespace apollo::online {

namespace {

/// Samples that materialize to the same record apart from the runtime. One
/// interned signature per distinct kernel, so comparing the pointers compares
/// loop id, func, mix and bytes per iteration.
struct SameLaunch {
  bool operator()(const Sample* a, const Sample* b) const noexcept {
    return a->kernel == b->kernel && a->app == b->app && a->policy == b->policy &&
           a->chunk == b->chunk && a->threads == b->threads &&
           a->num_indices == b->num_indices && a->num_segments == b->num_segments &&
           a->stride == b->stride && a->index_type == b->index_type;
  }
};

struct LaunchHash {
  std::size_t operator()(const Sample* s) const noexcept {
    std::size_t h = std::hash<const void*>{}(s->kernel);
    const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
    fold(static_cast<std::uint64_t>(s->num_indices));
    fold(static_cast<std::uint64_t>(s->num_segments));
    fold(static_cast<std::uint64_t>(s->policy));
    fold(static_cast<std::uint64_t>(s->chunk));
    fold(s->threads);
    fold(reinterpret_cast<std::uintptr_t>(s->app.get()));
    return h;
  }
};

}  // namespace

std::vector<perf::SampleRecord> collapse_window(const std::vector<Sample>& window) {
  struct Group {
    const Sample* sample;
    double seconds = 0.0;
    std::int64_t count = 0;
    std::size_t last = 0;
  };
  std::vector<Group> groups;
  std::unordered_map<const Sample*, std::size_t, LaunchHash, SameLaunch> index;
  index.reserve(window.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    const Sample* sample = &window[i];
    const auto [it, inserted] = index.try_emplace(sample, groups.size());
    if (inserted) groups.push_back(Group{sample});
    Group& group = groups[it->second];
    group.seconds += sample->seconds;
    group.count += 1;
    group.last = i;
  }
  std::sort(groups.begin(), groups.end(),
            [](const Group& a, const Group& b) { return a.last < b.last; });
  std::vector<perf::SampleRecord> records;
  records.reserve(groups.size());
  for (const Group& group : groups) {
    perf::SampleRecord record = group.sample->materialize();
    record[features::kMeasureRuntime] = group.seconds;
    if (group.count > 1) record[features::kMeasureCount] = group.count;
    records.push_back(std::move(record));
  }
  return records;
}

Retrainer::Retrainer(ml::TreeParams params) : params_(params) {
  // Training must not compete with the application for CPU on small
  // machines: drop the lane to the weakest normal priority before it
  // accepts any retrain. Submitted first, so it runs before any job.
  pool_.submit([] { par::lower_current_thread_priority(); });
}

Retrainer::~Retrainer() { wait_idle(); }

bool Retrainer::request(std::vector<Sample> samples) {
  if (samples.empty()) return false;
  if (busy_.exchange(true, std::memory_order_acq_rel)) return false;
  pool_.submit([this, samples = std::move(samples)]() mutable {
    // Collapse and materialize here, off the application thread, inside the
    // timed retrain: building the attribute maps is the expensive part of
    // handing samples to the Trainer, and a window repeats a few launch
    // shapes many times over.
    const auto started = std::chrono::steady_clock::now();
    std::vector<perf::SampleRecord> records = collapse_window(samples);
    samples.clear();
    run(std::move(records), started);
  });
  return true;
}

bool Retrainer::request(std::vector<perf::SampleRecord> samples) {
  if (samples.empty()) return false;
  if (busy_.exchange(true, std::memory_order_acq_rel)) return false;
  pool_.submit([this, samples = std::move(samples)]() mutable {
    run(std::move(samples), std::chrono::steady_clock::now());
  });
  return true;
}

void Retrainer::run(std::vector<perf::SampleRecord> samples,
                    std::chrono::steady_clock::time_point started) {
  const telemetry::ScopedSpan span(telemetry::EventKind::Retrain, "retrain", samples.size());
  Result result;
  try {
    result.policy = Trainer::train(samples, TunedParameter::Policy, params_);
    if (train_chunk_) {
      try {
        result.chunk = Trainer::train(samples, TunedParameter::ChunkSize, params_);
      } catch (const std::exception&) {
        // No usable chunk sweep data in this window; keep the policy model.
      }
    }
    if (publisher_) publisher_(std::move(result));
    completed_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& error) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(error_mutex_);
    last_error_ = error.what();
  }
  const double duration =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  last_duration_.store(duration, std::memory_order_relaxed);
  durations_.observe(duration);
  busy_.store(false, std::memory_order_release);
}

std::string Retrainer::last_error() const {
  std::lock_guard lock(error_mutex_);
  return last_error_;
}

void Retrainer::wait_idle() { pool_.wait_async_idle(); }

}  // namespace apollo::online
