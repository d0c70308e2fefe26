#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/env.hpp"

namespace kato::util {

namespace {

constexpr std::size_t k_min_cap = 4;

thread_local bool t_on_pool_thread = false;
/// Depth of parallel_for frames on this thread.  The pool runs exactly one
/// job at a time, so any nested call — from a pool worker *or* from the
/// submitting thread's own chunk — must run inline: a second submission
/// would overwrite the in-flight job and orphan its unclaimed chunks.
thread_local int t_parallel_depth = 0;

/// One parallel_for invocation: a fixed chunk list plus a claim counter.
/// Chunk boundaries are computed by the caller (and depend only on the
/// requested worker count), so which physical thread executes a chunk never
/// affects results — fn writes disjoint state per chunk.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::vector<std::exception_ptr> errors;
};

/// Persistent worker pool.  Workers are spawned lazily up to thread_cap()-1
/// (the caller always executes chunks too) and parked on a condition variable
/// between jobs.  Only one job is in flight at a time: parallel_for is called
/// from the main thread, and nested calls from workers run inline.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(const std::shared_ptr<Job>& job, std::size_t helpers) {
    // One submission at a time: the pool has a single job slot, so
    // concurrent submitters (distinct non-pool threads) serialize here
    // instead of overwriting each other's in-flight job.
    std::lock_guard<std::mutex> submit_lock(submit_mu_);
    // Queue-depth gauge brackets the job: the Perfetto counter track shows
    // how many chunks were outstanding while the pool was busy, dropping
    // back to zero at completion (pool-utilization view of the fan-out).
    obs::trace_counter("pool_queue_depth",
                       static_cast<std::uint64_t>(job->chunks.size()));
    {
      std::unique_lock<std::mutex> lock(mu_);
      ensure_workers(helpers);
      job_ = job;
      ++generation_;
    }
    cv_work_.notify_all();

    work(*job);  // the caller is a full participant

    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return job->done.load() == job->chunks.size(); });
    job_.reset();
    obs::trace_counter("pool_queue_depth", 0);
  }

  ~Pool() {
    {
      std::unique_lock<std::mutex> lock(mu_);
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

  static void work(Job& job) {
    const std::size_t n_chunks = job.chunks.size();
    for (std::size_t c = job.next.fetch_add(1); c < n_chunks;
         c = job.next.fetch_add(1)) {
      KATO_OBS_SPAN("pool_chunk");
      try {
        (*job.fn)(job.chunks[c].first, job.chunks[c].second);
      } catch (...) {
        job.errors[c] = std::current_exception();
      }
      job.done.fetch_add(1);
    }
  }

  void worker_loop() {
    t_on_pool_thread = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;  // keeps the job alive past the caller's wait
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (!job) continue;
      work(*job);
      // The mutex round-trip orders this worker's done-updates against the
      // caller's predicate check: without it the notify could fire in the
      // window between the caller evaluating the predicate (false) and
      // blocking, and the caller would sleep forever.
      { std::lock_guard<std::mutex> lock(mu_); }
      cv_done_.notify_all();
    }
  }

  std::mutex submit_mu_;  ///< serializes whole submissions
  std::mutex mu_;         ///< guards job_/generation_/workers_/stop_
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
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

bool on_pool_thread() { return t_on_pool_thread; }

void parallel_for(std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  // Nested calls run inline without reading KATO_THREADS.
  const bool nested = t_on_pool_thread || t_parallel_depth > 0;
  const std::size_t workers =
      n < 2 || nested ? 1 : std::min(thread_count(), n);
  if (workers <= 1) {
    fn(0, n);
    return;
  }

  // Contiguous chunks, same partition formula as the historical per-call
  // implementation: results must depend on the chunk boundaries only through
  // disjoint writes, never on which pool thread ran a chunk.
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  const std::size_t chunk = (n + workers - 1) / workers;
  for (std::size_t begin = 0; begin < n; begin += chunk)
    job->chunks.emplace_back(begin, std::min(begin + chunk, n));
  job->errors.resize(job->chunks.size());

  ++t_parallel_depth;
  Pool::instance().run(job, job->chunks.size() - 1);
  --t_parallel_depth;

  for (auto& e : job->errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace kato::util
