#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "core/failpoint.hpp"
#include "telemetry/metrics.hpp"

namespace bitflow::runtime {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Best-effort message extraction from a captured exception.
std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

void ThreadPool::run_job(const std::function<void(int)>& fn, int worker) {
  // Process-wide counters shared by every pool; per-worker detail stays in
  // the pool's own padded tick slots (stats()).
  static telemetry::Counter& g_tasks = telemetry::registry().counter("runtime.pool.tasks");
  static telemetry::Counter& g_busy = telemetry::registry().counter("runtime.pool.busy_ns");
  BF_FAILPOINT("runtime.worker");
  BF_FAILPOINT("runtime.worker_stall");
  Ticks& t = ticks_[static_cast<std::size_t>(worker)];
  const std::uint64_t t0 = steady_ns();
  try {
    fn(worker);
  } catch (...) {
    const std::uint64_t ns = steady_ns() - t0;
    t.tasks.fetch_add(1, std::memory_order_relaxed);
    t.busy_ns.fetch_add(ns, std::memory_order_relaxed);
    g_tasks.add();
    g_busy.add(ns);
    throw;
  }
  const std::uint64_t ns = steady_ns() - t0;
  t.tasks.fetch_add(1, std::memory_order_relaxed);
  t.busy_ns.fetch_add(ns, std::memory_order_relaxed);
  g_tasks.add();
  g_busy.add(ns);
}

std::vector<int> ThreadPool::worker_tids() const {
  std::vector<int> tids;
  for (int i = 1; i < num_threads_; ++i) {
    const int tid = tids_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    if (tid > 0) tids.push_back(tid);
  }
  return tids;
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.workers.resize(static_cast<std::size_t>(num_threads_));
  for (int i = 0; i < num_threads_; ++i) {
    const Ticks& t = ticks_[static_cast<std::size_t>(i)];
    s.workers[static_cast<std::size_t>(i)].tasks = t.tasks.load(std::memory_order_relaxed);
    s.workers[static_cast<std::size_t>(i)].busy_ns =
        t.busy_ns.load(std::memory_order_relaxed);
  }
  return s;
}

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads),
      ticks_(num_threads >= 1 ? std::make_unique<Ticks[]>(static_cast<std::size_t>(num_threads))
                              : nullptr),
      tids_(num_threads >= 1
                ? std::make_unique<std::atomic<int>[]>(static_cast<std::size_t>(num_threads))
                : nullptr) {
  if (num_threads < 1) throw std::invalid_argument("ThreadPool needs >= 1 thread");
  threads_.reserve(static_cast<std::size_t>(num_threads - 1));
  for (int i = 1; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    core::MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop(int index) {
#if defined(__linux__)
  tids_[static_cast<std::size_t>(index)].store(
      static_cast<int>(::syscall(SYS_gettid)), std::memory_order_relaxed);
#endif
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(int)>* job = nullptr;
    {
      core::MutexLock lock(mutex_);
      while (!shutting_down_ && job_epoch_ == seen_epoch) start_cv_.wait(lock);
      if (shutting_down_) return;
      seen_epoch = job_epoch_;
      job = job_;
    }
    std::exception_ptr error;
    try {
      run_job(*job, index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      core::MutexLock lock(mutex_);
      if (error) {
        if (!first_error_) first_error_ = error;
        ++error_count_;
      }
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ThreadPool::run_on_all(const std::function<void(int)>& fn) {
  BF_CHECK(static_cast<bool>(fn), "run_on_all: empty job");
  if (num_threads_ == 1) {
    run_job(fn, 0);
    return;
  }
  {
    core::MutexLock lock(mutex_);
    BF_DCHECK(pending_ == 0, "run_on_all: previous job still pending (", pending_, " workers)");
    BF_DCHECK(job_ == nullptr, "run_on_all: re-entrant dispatch on the same pool");
    job_ = &fn;
    pending_ = num_threads_ - 1;
    first_error_ = nullptr;
    error_count_ = 0;
    ++job_epoch_;
  }
  start_cv_.notify_all();
  std::exception_ptr caller_error;
  try {
    run_job(fn, 0);  // the caller is worker 0
  } catch (...) {
    caller_error = std::current_exception();
  }
  std::exception_ptr worker_error;
  int worker_errors = 0;
  {
    core::MutexLock lock(mutex_);
    while (pending_ != 0) done_cv_.wait(lock);
    job_ = nullptr;
    worker_error = first_error_;
    worker_errors = error_count_;
    first_error_ = nullptr;
    error_count_ = 0;
  }
  // Error contract: one failure rethrows the original exception (type
  // preserved); several failures throw an aggregate so no worker's outcome
  // is silently dropped.  The caller counts as worker 0.
  const int failures = worker_errors + (caller_error ? 1 : 0);
  if (failures == 0) return;
  const std::exception_ptr primary = caller_error ? caller_error : worker_error;
  if (failures == 1) std::rethrow_exception(primary);
  throw WorkerFailure(failures, num_threads_, describe(primary));
}

void ThreadPool::set_cancel_token(core::CancelToken token) {
  core::MutexLock lock(mutex_);
  cancel_ = std::move(token);
}

void ThreadPool::parallel_for(std::int64_t n, const std::function<void(Range, int)>& fn) {
  if (n <= 0) return;
  // One handle copy per dispatch (an uncontended lock, noise next to the
  // fork/join itself); the per-chunk poll below is lock-free.
  core::CancelToken cancel;
  {
    core::MutexLock lock(mutex_);
    cancel = cancel_;
  }
  if (num_threads_ == 1) {
    // Through run_job so failpoints and tick accounting behave the same as
    // the multi-threaded path.
    if (cancel.stop_requested()) return;  // chunk-level cooperative skip
    run_job([&fn, n](int worker) { fn(Range{0, n}, worker); }, 0);
    return;
  }
  const int p = static_cast<int>(std::min<std::int64_t>(num_threads_, n));
  run_on_all([&](int worker) {
    if (worker >= p) return;
    if (cancel.stop_requested()) return;  // chunk-level cooperative skip
    const Range r = static_block(n, p, worker);
    if (r.size() > 0) fn(r, worker);
  });
}

}  // namespace bitflow::runtime
