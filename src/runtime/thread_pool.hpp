// Persistent worker-thread pool with a fork/join parallel_for.
//
// BitFlow's multi-core parallelism (paper Alg. 1) splits the *fused H*W*
// output range of a convolution (and the K dimension of a fully connected
// layer) into contiguous blocks, one per thread.  The partition is static
// and deterministic: block b of p covers [b*n/p, (b+1)*n/p).  The same
// partition function is reused by the multicore scaling simulator
// (scaling_sim.hpp) so simulated speedups reflect the real load balance.
//
// Jobs are passed as FunctionRef, a non-owning reference, so a dispatch
// allocates nothing.  Between jobs the workers park on a condition variable,
// except inside a ThreadPool::Hold: there a worker that finishes a job spins
// for the next one (up to kHoldSpinNs), so a burst of jobs — the stages of
// one inference — pays one wake-up instead of one per job.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cancel.hpp"
#include "core/check.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"

namespace bitflow::runtime {

/// Aggregate failure thrown by ThreadPool::run_on_all when more than one
/// worker's job throws: the message carries the failure count and the first
/// failing worker's message; failed_count() exposes the count for callers
/// that map pool failures to a Status (serve/session.cpp).  When exactly
/// one worker throws, the original exception is rethrown unchanged instead.
class WorkerFailure : public std::runtime_error {
 public:
  WorkerFailure(int failed, int total, const std::string& first_message)
      : std::runtime_error("parallel job: " + std::to_string(failed) + " of " +
                           std::to_string(total) + " workers failed; first: " + first_message),
        failed_(failed) {}
  [[nodiscard]] int failed_count() const noexcept { return failed_; }

 private:
  int failed_;
};

/// Per-worker execution tallies (see ThreadPool::stats()).
struct WorkerStats {
  std::uint64_t tasks = 0;    ///< jobs this worker executed
  std::uint64_t busy_ns = 0;  ///< approximate wall-clock spent inside jobs
};

/// Point-in-time utilization snapshot of one pool.
struct PoolStats {
  std::vector<WorkerStats> workers;  ///< index = worker index (0 = caller)
  [[nodiscard]] std::uint64_t total_tasks() const {
    std::uint64_t t = 0;
    for (const WorkerStats& w : workers) t += w.tasks;
    return t;
  }
  [[nodiscard]] std::uint64_t total_busy_ns() const {
    std::uint64_t t = 0;
    for (const WorkerStats& w : workers) t += w.busy_ns;
    return t;
  }
};

/// Inclusive-exclusive index range [begin, end).
struct Range {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  [[nodiscard]] std::int64_t size() const noexcept { return end - begin; }
};

/// Static block partition used everywhere in BitFlow: block `b` of `p` over
/// `n` items.  Blocks differ in size by at most one item; consecutive blocks
/// tile [0, n) exactly (contiguous, non-overlapping).
///
/// Preconditions: n >= 0, p >= 1, 0 <= b < p, and n * p must not overflow
/// int64 (the partition arithmetic computes n * (b + 1)).
[[nodiscard]] inline Range static_block(std::int64_t n, int p, int b) noexcept {
  BF_DCHECK(n >= 0, "static_block: negative range length ", n);
  BF_DCHECK(p >= 1 && b >= 0 && b < p, "static_block: block ", b, " of ", p);
  BF_DCHECK(p <= 1 || n <= INT64_MAX / p, "static_block: n=", n, " * p=", p,
            " overflows the partition arithmetic");
  const std::int64_t lo = n * b / p;
  const std::int64_t hi = n * (b + 1) / p;
  return {lo, hi};
}

template <typename Sig>
class FunctionRef;

/// Non-owning reference to a callable taking `Args...`: a pointer to the
/// caller's callable plus one trampoline.  Binding a capturing lambda never
/// allocates, where std::function would for any capture past its small
/// buffer.  The callable must outlive every call through the reference; a
/// lambda written in a call's argument list lives until that call returns.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<
                            !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                            std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): binds lambdas at the call site
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return call_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// Fixed-size pool of worker threads executing fork/join parallel loops.
///
/// The pool is created once (typically at engine initialization) and reused
/// across layers; workers sleep between jobs unless a Hold keeps them
/// spinning.  Thread count 1 degenerates to inline execution with zero
/// synchronization, which keeps single-thread measurements honest.
class ThreadPool {
 public:
  /// How long a worker of a held pool spins for the next job, and the
  /// caller for its workers' completion, before parking on the condition
  /// variable as an unheld pool does.  Long enough to bridge the gap between
  /// two stages of an inference (a few µs of margin zeroing and profile
  /// bookkeeping) and the imbalance of a stage's blocks; short enough that a
  /// hold left idle, or a pool oversubscribed on shared cores, burns at most
  /// this much per worker before it sleeps.  Sized on a 4-vCPU VM: see
  /// EXPERIMENTS ("One wake per call").
  static constexpr std::int64_t kHoldSpinNs = 200'000;

  /// Scoped hold: while one exists, the pool's workers spin between jobs
  /// (bounded by kHoldSpinNs) instead of parking, and the caller's join
  /// spins before it waits.  Its destructor parks the spinners at once.
  /// One hold per pool at a time, taken by the thread that dispatches its
  /// jobs (graph::BinaryNetwork::infer_batch holds its context's pool for
  /// the whole call); a second throws std::logic_error.  A job run under a
  /// hold keeps the unheld contract: errors, failpoints, cancellation and
  /// stats are unchanged.
  class Hold {
   public:
    explicit Hold(ThreadPool& pool);
    ~Hold();
    Hold(const Hold&) = delete;
    Hold& operator=(const Hold&) = delete;

   private:
    ThreadPool& pool_;
  };

  /// Creates a pool with `num_threads` logical workers (>= 1).  The calling
  /// thread acts as worker 0, so only num_threads-1 OS threads are spawned.
  explicit ThreadPool(int num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  [[nodiscard]] int num_threads() const noexcept { return num_threads_; }

  /// Runs `fn(worker_index)` on every worker (including the caller as worker
  /// 0) and returns when all have finished (the job still completes on every
  /// worker even when some throw).  Error contract: if exactly one worker's
  /// fn throws, that exception is rethrown unchanged on the calling thread;
  /// if several throw, a WorkerFailure aggregating the count and the first
  /// message is thrown instead.  The pool remains fully usable afterwards.
  void run_on_all(FunctionRef<void(int)> fn) BF_EXCLUDES(mutex_);

  /// Splits [0, n) into static blocks and runs `fn(range, worker_index)` on
  /// each worker.  Workers whose block is empty skip the call.
  ///
  /// Cooperative cancellation: when a cancel token is installed
  /// (set_cancel_token) and fires, each worker checks it once at the start
  /// of its range chunk and *skips* the chunk — no exception crosses a pool
  /// worker, so the run_on_all error contract is unchanged.  The caller
  /// (graph layer) converts the latched token into an error at its next
  /// layer-boundary checkpoint; buffers touched by skipped chunks are
  /// garbage by then but provably never read.
  void parallel_for(std::int64_t n, FunctionRef<void(Range, int)> fn) BF_EXCLUDES(mutex_);

  /// Installs the token every subsequent parallel_for chunk polls (an inert
  /// default token disables the checks beyond one null-pointer test).  Must
  /// not be called concurrently with a running job on this pool — the owner
  /// of the pool (one inference stream per context) sets it between
  /// inferences.
  void set_cancel_token(core::CancelToken token) BF_EXCLUDES(mutex_);

  /// Per-worker tallies since construction: every worker's task count and
  /// approximate busy time (two clock reads per job — noise next to a layer
  /// job, so always on).  Safe to call concurrently with running jobs; the
  /// totals also feed the process-wide `runtime.pool.*` telemetry counters.
  [[nodiscard]] PoolStats stats() const;

  /// OS thread ids (gettid) of the spawned workers, stamped by each worker
  /// as its loop starts; worker 0 is the caller and is NOT included (its
  /// identity changes per dispatch).  A worker that has not stamped yet is
  /// skipped.  Consumed by the perf-counter sampler to attach per-thread
  /// counter groups; empty on platforms without gettid.
  [[nodiscard]] std::vector<int> worker_tids() const;

 private:
  void worker_loop(int index);
  /// One worker's share of a job: fault-injection hooks + tick accounting.
  void run_job(FunctionRef<void(int)> fn, int worker);
  /// While the pool is held, spins until `waiting()` turns false, the hold
  /// ends or kHoldSpinNs pass; returns at once on an unheld pool.
  template <typename Pred>
  void spin_while_held(Pred waiting) const;

  /// Cache-line-padded so workers never contend on each other's tallies.
  /// Ordering contract: both counters are pure tallies written by their
  /// owning worker with relaxed adds and read racily by stats(); they order
  /// nothing, so every access is memory_order_relaxed.
  struct alignas(64) Ticks {
    std::atomic<std::uint64_t> tasks{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  int num_threads_;
  std::unique_ptr<Ticks[]> ticks_;
  /// Ordering contract: slot i is written once (relaxed) by worker i as its
  /// loop starts and read racily (relaxed) by worker_tids(); a reader that
  /// misses a late-starting worker's store just skips the still-zero slot.
  std::unique_ptr<std::atomic<int>[]> tids_;
  std::vector<std::thread> threads_;

  // Fork/join rendezvous state.  mutex_ guards the whole job protocol: the
  // dispatcher publishes {job_, job_epoch_, pending_} under it, workers pick
  // the job up and report completion/errors under it, and both cv waits
  // re-check their guarded condition in explicit loops.
  core::Mutex mutex_;
  core::CondVar start_cv_;
  core::CondVar done_cv_;
  /// Cooperative-cancellation token polled by parallel_for chunks.  Guarded
  /// by mutex_ only for the handle copy (set vs the per-dispatch snapshot);
  /// the token's own state is atomic and polled lock-free inside chunks.
  core::CancelToken cancel_ BF_GUARDED_BY(mutex_);
  const FunctionRef<void(int)>* job_ BF_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t job_epoch_ BF_GUARDED_BY(mutex_) = 0;
  int pending_ BF_GUARDED_BY(mutex_) = 0;
  /// Ordering contract: relaxed everywhere.  `held_` is set and cleared by
  /// Hold; `spin_epoch_` and `spin_pending_` are copies of job_epoch_ and
  /// pending_, stored under mutex_ right after each change.  The bounded
  /// spins only poll them to decide when to stop spinning: the spinner then
  /// takes mutex_ and re-reads the guarded field, so they publish nothing.
  std::atomic<bool> held_{false};
  std::atomic<std::uint64_t> spin_epoch_{0};
  std::atomic<int> spin_pending_{0};
  bool shutting_down_ BF_GUARDED_BY(mutex_) = false;
  /// First worker exception of the current job.
  std::exception_ptr first_error_ BF_GUARDED_BY(mutex_);
  /// Worker exceptions of the current job.
  int error_count_ BF_GUARDED_BY(mutex_) = 0;
};

}  // namespace bitflow::runtime
