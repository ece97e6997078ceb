#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>  // sanctioned: util/parallel is the lint determinism allowlist's one thread home

namespace myrtus::util {
namespace {

// Set while the current thread is executing a shard body; nested parallel
// regions started from inside a body run inline instead of re-entering the
// pool (re-entry could deadlock: every worker could block waiting for
// workers).
thread_local bool t_in_region = false;

struct Counters {
  std::atomic<std::uint64_t> regions{0};
  std::atomic<std::uint64_t> pooled_regions{0};
  std::atomic<std::uint64_t> shards{0};
  std::atomic<std::uint64_t> items{0};
};
Counters& GlobalCounters() {
  static Counters counters;
  return counters;
}

/// One fork-join region in flight. Owned by shared_ptr so a worker that
/// wakes late — after the region already drained — still holds a valid
/// object: it observes next >= shards and leaves without ever touching fn.
struct Job {
  std::function<void(std::size_t)> fn;
  std::size_t shards = 0;
  std::atomic<std::size_t> next{0};
  std::size_t done = 0;  // guarded by Pool::job_mu_
};

/// Fixed-size fork-join pool. Lazily started on the first region that wants
/// more than one worker; resized (join + respawn) when SetParallelWorkers
/// changes the count. One region runs at a time (regions_mu_): callers queue
/// behind each other, which matches the single-orchestrator call pattern and
/// keeps the claim/commit protocol trivial to reason about.
class Pool {
 public:
  static Pool& Instance() {
    static Pool pool;
    return pool;
  }

  int workers() const {
    std::lock_guard<std::mutex> lock(config_mu_);
    return workers_;
  }

  int threads_started() const {
    std::lock_guard<std::mutex> lock(config_mu_);
    return static_cast<int>(threads_.size());
  }

  /// Must not be called from inside a shard body (it waits for the active
  /// region to finish first).
  void SetWorkers(int workers) {
    if (workers < 0) workers = 0;
    std::lock_guard<std::mutex> region_lock(regions_mu_);
    std::lock_guard<std::mutex> lock(config_mu_);
    if (workers == workers_) return;
    StopThreadsLocked();
    workers_ = workers;
    // Threads restart lazily on the next pooled region.
  }

  void Run(std::size_t shard_count,
           const std::function<void(std::size_t)>& shard_fn) {
    if (shard_count == 0) return;
    if (t_in_region) {  // nested region: run inline on this worker
      for (std::size_t s = 0; s < shard_count; ++s) shard_fn(s);
      return;
    }
    std::lock_guard<std::mutex> region_lock(regions_mu_);
    int want = 1;
    {
      std::lock_guard<std::mutex> lock(config_mu_);
      want = workers_;
      if (want > 1 && shard_count > 1) EnsureThreadsLocked();
    }
    if (want <= 1 || shard_count <= 1) {
      t_in_region = true;
      for (std::size_t s = 0; s < shard_count; ++s) shard_fn(s);
      t_in_region = false;
      return;
    }

    GlobalCounters().pooled_regions.fetch_add(1, std::memory_order_relaxed);
    auto job = std::make_shared<Job>();
    job->fn = shard_fn;
    job->shards = shard_count;
    {
      std::lock_guard<std::mutex> lock(job_mu_);
      job_ = job;
      ++job_generation_;
    }
    work_cv_.notify_all();

    // The caller is a worker too: claim shards until the region drains.
    t_in_region = true;
    Drain(*job);
    t_in_region = false;

    std::unique_lock<std::mutex> lock(job_mu_);
    done_cv_.wait(lock, [&] { return job->done == job->shards; });
    job_.reset();
  }

 private:
  Pool() = default;

  ~Pool() {
    std::lock_guard<std::mutex> lock(config_mu_);
    StopThreadsLocked();
  }

  void Drain(Job& job) {
    std::size_t finished = 0;
    while (true) {
      const std::size_t s = job.next.fetch_add(1, std::memory_order_relaxed);
      if (s >= job.shards) break;
      job.fn(s);
      ++finished;
    }
    if (finished > 0) {
      std::lock_guard<std::mutex> lock(job_mu_);
      job.done += finished;
      if (job.done == job.shards) done_cv_.notify_all();
    }
  }

  void WorkerLoop() {
    std::uint64_t seen_generation = 0;
    while (true) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(job_mu_);
        work_cv_.wait(lock, [&] {
          return stop_threads_ ||
                 (job_ != nullptr && job_generation_ != seen_generation);
        });
        if (stop_threads_) return;
        seen_generation = job_generation_;
        job = job_;
      }
      t_in_region = true;
      Drain(*job);
      t_in_region = false;
    }
  }

  void EnsureThreadsLocked() {
    const std::size_t want =
        workers_ > 1 ? static_cast<std::size_t>(workers_ - 1) : 0;
    for (std::size_t i = threads_.size(); i < want; ++i) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
  }

  void StopThreadsLocked() {
    if (threads_.empty()) return;
    {
      std::lock_guard<std::mutex> lock(job_mu_);
      stop_threads_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    {
      std::lock_guard<std::mutex> lock(job_mu_);
      stop_threads_ = false;
    }
  }

  /// Serializes whole regions (and reconfiguration) against each other.
  std::mutex regions_mu_;

  mutable std::mutex config_mu_;
  int workers_ = 1;
  std::vector<std::thread> threads_;

  std::mutex job_mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;
  std::uint64_t job_generation_ = 0;
  bool stop_threads_ = false;
};

Shard MakeShard(std::size_t index, std::size_t count, std::size_t n) {
  Shard shard;
  shard.index = index;
  shard.count = count;
  shard.begin = index * n / count;
  shard.end = (index + 1) * n / count;
  return shard;
}

}  // namespace

int ParallelWorkers() { return Pool::Instance().workers(); }

void SetParallelWorkers(int workers) { Pool::Instance().SetWorkers(workers); }

std::size_t ParallelShardCount(std::size_t n) {
  return n < kParallelMaxShards ? n : kParallelMaxShards;
}

ParallelPoolStats ParallelStats() {
  Counters& counters = GlobalCounters();
  ParallelPoolStats stats;
  stats.regions = counters.regions.load(std::memory_order_relaxed);
  stats.pooled_regions = counters.pooled_regions.load(std::memory_order_relaxed);
  stats.shards = counters.shards.load(std::memory_order_relaxed);
  stats.items = counters.items.load(std::memory_order_relaxed);
  stats.workers = Pool::Instance().workers();
  stats.threads_started = Pool::Instance().threads_started();
  return stats;
}

void ParallelFor(std::size_t n, const std::function<void(const Shard&)>& body) {
  if (n == 0) return;
  const std::size_t count = ParallelShardCount(n);
  Counters& counters = GlobalCounters();
  counters.regions.fetch_add(1, std::memory_order_relaxed);
  counters.shards.fetch_add(count, std::memory_order_relaxed);
  counters.items.fetch_add(n, std::memory_order_relaxed);
  Pool::Instance().Run(count, [&](std::size_t index) {
    body(MakeShard(index, count, n));
  });
}

}  // namespace myrtus::util
