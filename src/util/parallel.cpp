#include "util/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/env.hpp"

namespace kato::util {

namespace {

constexpr std::size_t k_min_cap = 4;

/// One parallel_for invocation: a fixed chunk list whose claim and
/// completion counts the pool mutex guards.  Chunk boundaries are computed
/// by the caller (and depend only on n and the worker count), so which
/// thread executes a chunk never affects results — fn writes disjoint state
/// per chunk.  The job lives in the caller's frame, which returns only after
/// the last chunk has finished.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::vector<std::exception_ptr> errors;
  std::uint64_t id = 0;  ///< submission order: a larger id is a newer job
  std::size_t next = 0;  ///< first unclaimed chunk
  std::size_t done = 0;  ///< finished chunks
};

/// Persistent worker pool running any number of jobs at once.  Workers are
/// spawned lazily up to thread_cap()-1 (the caller always executes chunks
/// too) and parked on a condition variable while no job has an unclaimed
/// chunk.  An idle worker claims from the newest open job.  A caller first
/// claims its own job's chunks; while the rest finish elsewhere it helps
/// only jobs newer than its own.  A thread therefore only ever waits on a
/// job newer than every job whose chunk is below it on its stack, so the
/// waits cannot form a cycle.  A newer job need not be nested under the
/// caller's, so a waiting caller may pick up an unrelated job's chunk (say,
/// another seed's model fit) and return well after its own job finished.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(Job& job) {
    std::unique_lock<std::mutex> lock(mu_);
    ensure_workers(job.chunks.size() - 1);
    job.id = ++last_id_;
    open_.push_back(&job);
    set_unclaimed(unclaimed_ + job.chunks.size());
    cv_work_.notify_all();
    cv_wait_.notify_all();

    while (job.next < job.chunks.size()) run_chunk(job, lock);
    while (job.done < job.chunks.size()) {
      if (!open_.empty() && open_.back()->id > job.id)
        run_chunk(*open_.back(), lock);
      else
        cv_wait_.wait(lock);
    }
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& t : workers_) t.join();
  }

 private:
  Pool() = default;

  void ensure_workers(std::size_t count) {
    count = std::min(count, thread_cap() - 1);
    while (workers_.size() < count) {
      const std::size_t id = workers_.size();
      workers_.emplace_back([this, id] {
        obs::name_this_thread("pool-worker-" + std::to_string(id + 1));
        worker_loop();
      });
    }
  }

  /// The queue-depth gauge: unclaimed chunks summed over every open job.
  void set_unclaimed(std::size_t n) {
    unclaimed_ = n;
    obs::trace_counter("pool_queue_depth", static_cast<double>(n));
  }

  /// Claim the next chunk of `job` and run it with the lock released.
  void run_chunk(Job& job, std::unique_lock<std::mutex>& lock) {
    const std::size_t c = job.next++;
    if (job.next == job.chunks.size())
      open_.erase(std::find(open_.begin(), open_.end(), &job));
    set_unclaimed(unclaimed_ - 1);
    lock.unlock();
    {
      KATO_OBS_SPAN("pool_chunk");
      try {
        (*job.fn)(job.chunks[c].first, job.chunks[c].second);
      } catch (...) {
        job.errors[c] = std::current_exception();
      }
    }
    lock.lock();
    // The caller may destroy the job as soon as it sees the last chunk
    // done, so nothing below may touch it.
    if (++job.done == job.chunks.size()) cv_wait_.notify_all();
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_work_.wait(lock, [&] { return stop_ || !open_.empty(); });
      if (stop_) return;
      run_chunk(*open_.back(), lock);
    }
  }

  std::mutex mu_;  ///< guards everything below and every Job's next/done
  std::condition_variable cv_work_;  ///< idle workers: a job opened
  std::condition_variable cv_wait_;  ///< waiting callers: a job opened or finished
  std::vector<std::thread> workers_;
  std::vector<Job*> open_;  ///< jobs with unclaimed chunks, oldest first
  std::uint64_t last_id_ = 0;
  std::size_t unclaimed_ = 0;
  bool stop_ = false;
};

}  // namespace

std::size_t thread_cap() {
  // hardware_concurrency() reads the CPU affinity mask (a system call, a few
  // microseconds); the cap is read once per process.
  static const std::size_t cap = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max<std::size_t>(hw == 0 ? k_min_cap : hw, k_min_cap);
  }();
  return cap;
}

std::size_t thread_count() {
  const auto n = env_int(Env::threads);
  return n ? std::min(static_cast<std::size_t>(*n), thread_cap()) : 1;
}

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = n < 2 ? 1 : std::min(thread_count(), n);
  if (workers <= 1) {
    fn(0, n);
    return;
  }

  // Contiguous chunks, same partition formula as the historical per-call
  // implementation: results must depend on the chunk boundaries only through
  // disjoint writes, never on which pool thread ran a chunk.
  Job job;
  job.fn = &fn;
  const std::size_t chunk = (n + workers - 1) / workers;
  for (std::size_t begin = 0; begin < n; begin += chunk)
    job.chunks.emplace_back(begin, std::min(begin + chunk, n));
  job.errors.resize(job.chunks.size());

  Pool::instance().run(job);

  for (auto& e : job.errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace kato::util
