// Bounded two-lane MPMC request queue: the admission-control stage of
// serve::Engine.
//
// Producers are caller threads in Engine::submit(); consumers are the
// engine's worker threads (through Engine's next_batch).  The queue enforces
// backpressure by capacity — try_push() refuses instead of blocking, so an
// overloaded engine rejects with kResourceExhausted rather than building an
// unbounded latency backlog.  Two lanes implement the engine's overload
// policy: the high-priority lane is always drained first, so latency-critical
// traffic keeps its queue-wait bounded by the depth of its own lane even
// when the normal lane is saturated.  Each lane is bounded by the same
// capacity independently — a flood of either class cannot starve admission
// of the other.  close() starts shutdown: no new requests are admitted, but
// pops keep draining whatever is queued so every accepted request resolves
// before the workers exit.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <optional>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::serve {

/// Scheduling class of a request.  kHigh requests are popped before any
/// kNormal request and bypass *adaptive* load shedding (they remain subject
/// to the hard per-lane capacity bound — nothing is unbounded).
enum class Priority : std::uint8_t { kNormal = 0, kHigh = 1 };

/// A request's one completion channel: invoked exactly once with the
/// request's outcome, on whichever thread resolves it (an engine worker, or
/// the submitter itself for admission rejections).  Must not throw and must
/// not re-enter the engine that invoked it.
using ResponseCallback = std::function<void(core::Result<std::vector<float>>&&)>;

/// The future form of a ResponseCallback: points `fut` at a new promise and
/// returns the callback that fulfils it.  The request resolves exactly once,
/// so the callback owns the promise and deletes it once set.  A bare pointer
/// keeps the callable inside std::function's inline buffer: a shared_ptr
/// capture added two heap blocks per submit, freed by workers, and cut one
/// open-loop submitter's goodput by 10-20% (bench_serving_throughput
/// --overload).
inline ResponseCallback promise_callback(std::future<core::Result<std::vector<float>>>& fut) {
  auto* p = new std::promise<core::Result<std::vector<float>>>();
  fut = p->get_future();
  return [p](core::Result<std::vector<float>>&& outcome) {
    p->set_value(std::move(outcome));
    delete p;
  };
}

/// Observability identity of a request, threaded from the wire frame down
/// to the kernel spans so one trace joins a request's whole timeline.  Both
/// ids are optional (0 = none): `rid` is the wire frame's u64 request id,
/// `trace_id` the client-supplied trace id from the frame's flag extension
/// (net::kFlagTraceId).  Identity only — never used for routing decisions.
struct RequestMeta {
  std::uint64_t rid = 0;
  std::uint64_t trace_id = 0;
};

/// One queued inference request.  Resolution happens exactly once, through
/// `done`, by whichever stage finishes the request (admission rejection,
/// in-queue expiry, a worker, or drain-timeout cancellation).
struct Request {
  Tensor input;
  ResponseCallback done;
  std::chrono::steady_clock::time_point enqueue_time{};
  /// Absolute end-to-end deadline; time_point::max() = no deadline.  Covers
  /// the whole request: queue wait (the worker fails lapsed requests with
  /// kDeadlineExceeded before they consume a batch slot) *and* execution
  /// (the batch runs under a CancelToken armed with the batch's latest
  /// member deadline; the network aborts at its next layer-boundary
  /// checkpoint once every member has lapsed).
  std::chrono::steady_clock::time_point deadline = std::chrono::steady_clock::time_point::max();
  Priority priority = Priority::kNormal;
  /// Trace identity (rid/trace_id; 0 = none) carried through every span and
  /// flight-recorder event this request generates.
  RequestMeta meta;
};

/// Bounded multi-producer/multi-consumer two-lane FIFO of Requests.
/// FIFO order holds within a lane; the high lane is drained first.
class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Admits `r` into its priority lane unless that lane is full or the
  /// queue is closed; returns whether the request was admitted (on false
  /// the caller still owns `r`).
  [[nodiscard]] bool try_push(Request& r);

  /// Blocks until a request is available and pops it (high lane first), or
  /// returns nullopt once the queue is closed *and* both lanes are drained.
  [[nodiscard]] std::optional<Request> pop();

  /// Like pop(), but gives up at `tp`; nullopt on timeout or closed+empty.
  [[nodiscard]] std::optional<Request> pop_until(std::chrono::steady_clock::time_point tp);

  /// Non-blocking pop; nullopt when nothing is immediately available.
  [[nodiscard]] std::optional<Request> try_pop();

  /// Stops admission and wakes every blocked consumer.  Idempotent.
  void close();

  [[nodiscard]] bool closed() const;
  /// Total queued requests across both lanes.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// Pops the front of the highest non-empty lane.  REQUIRES: at least one
  /// lane is non-empty and mu_ is held.
  [[nodiscard]] Request pop_front_locked() BF_REQUIRES(mu_);

  // mu_ guards both lanes and the closed flag; ready_ signals "some lane
  // non-empty or closed".  Consumers re-check both conditions in explicit
  // wait loops.
  const std::size_t capacity_;
  mutable core::Mutex mu_;
  core::CondVar ready_;
  std::deque<Request> hq_ BF_GUARDED_BY(mu_);  // high lane: popped first
  std::deque<Request> q_ BF_GUARDED_BY(mu_);   // normal lane
  bool closed_ BF_GUARDED_BY(mu_) = false;
};

}  // namespace bitflow::serve
