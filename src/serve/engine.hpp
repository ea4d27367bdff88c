// serve::Engine — BitFlow's serving front door and its one Status
// boundary: bounded admission queue, micro-batching, and a pool of worker
// threads each owning a replicated inference context.
//
//   callers ── submit() ──► RequestQueue ──► next_batch() ─► worker 0 (ctx 0)
//                 (two-lane, admission      (coalesce ≤     ├─► worker 1 (ctx 1)
//                  control, shedding)        max_batch)      └─► ...
//
// Everything below this API reports failure by exception (and contract
// violations abort via BF_CHECK); everything above it sees a core::Status,
// mapped by serve/error_map.hpp.  open()/create() never throw for malformed
// files, overlong payloads, allocation failure or an unsupported ISA cap;
// they return a Result carrying the mapped code.  A one-worker engine with
// infer() is the plain blocking form: one request in, scores or a Status out.
//
// Concurrency model: an engine serves the network it was created with until
// shutdown.  That network is finalized once and immutable; each worker
// builds one private graph::InferenceContext (buffers + thread pool) when it
// starts, so workers never alias mutable state (see the contract in
// graph/network.hpp).  Batches run through the fused batch-N kernels — N
// requests cost one fork/join per layer and are bit-exact with N separate
// batch-1 runs.
//
// Lifecycle state machine (see DESIGN.md §"Request lifecycle"):
//
//   Starting ──► Serving ──drain()──► Draining ──► Drained ──(shutdown)──► joined
//
// Error contract:
//   * bad input: a request whose shape does not match the network fails
//     with kBadInput before admission and consumes no queue capacity;
//   * admission: a full lane (or armed serve.queue_admit failpoint) fails
//     the request with kResourceExhausted — callers never block or throw;
//     adaptive load shedding additionally rejects (kResourceExhausted) a
//     normal-priority deadline request whose estimated queue delay already
//     exceeds its budget, so doomed work is refused instead of admitted;
//   * deadline: the deadline covers the WHOLE request.  A request whose
//     deadline lapses in queue fails with kDeadlineExceeded before wasting
//     a batch slot; a batch whose every member has lapsed aborts at the
//     network's next layer-boundary cancellation checkpoint and each member
//     fails with kDeadlineExceeded (core/cancel.hpp).  The bound is
//     cooperative: a worker wedged inside one kernel chunk delays the abort
//     until that chunk returns;
//   * poisoned batch: if a batch throws, the worker reruns each member
//     individually — a batch of one included — so only the faulty request
//     fails, with the mapped Status of its rerun, and a fault that does not
//     recur is absorbed.  The worker and engine keep serving: buffers are
//     written before they are read, so an abandoned request cannot poison
//     its successor.  A worker whose batches keep failing with
//     kWorkerFailure trips a circuit breaker and self-quarantines for a
//     backoff before re-probing (stats().degraded reports quorum loss);
//   * drain: stops admission (kUnavailable) and waits for in-flight work;
//     past the timeout it cancels the remainder (kCancelled) — every
//     admitted future still resolves;
//   * shutdown: the queue closes, workers drain every admitted request
//     (every future resolves — no broken_promise), then exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"
#include "serve/request_queue.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::serve {

/// Configuration of one serving engine.
struct EngineConfig {
  /// Network execution config; net.num_threads is the *per-worker* pool
  /// size (each replicated context gets its own pool of this many threads).
  graph::NetworkConfig net{};
  /// Number of worker threads, each with a replicated inference context.
  int workers = 1;
  /// Largest micro-batch a worker runs in one fused pass.
  std::int64_t max_batch = 8;
  /// How long a worker waits for a batch to fill after its first request
  /// (>= 0).  The default, zero, runs whatever is queued at once, so a lone
  /// request never waits for company.
  std::chrono::microseconds batch_timeout{0};
  /// Admission capacity *per priority lane*; submissions beyond it are
  /// rejected (the hard backpressure bound behind adaptive shedding).
  std::size_t queue_capacity = 64;
  /// Default per-request end-to-end budget; zero = no deadline.
  std::chrono::milliseconds default_deadline{0};
  /// Adaptive load shedding: reject a normal-priority deadline request at
  /// admission when its estimated queue delay (EWMA of per-request service
  /// time x requests in flight / workers) already exceeds its budget.
  /// High-priority requests bypass this (hard capacity still applies).
  bool adaptive_shedding = true;
  /// Consecutive kWorkerFailure batches that trip a worker's circuit
  /// breaker (self-quarantine); 0 disables the breaker.
  int breaker_threshold = 3;
  /// How long a tripped worker sits out before re-probing.
  std::chrono::milliseconds breaker_backoff{100};
};

/// Lifecycle state of an Engine (guarded internally; stats().state snapshots
/// it).  Serving admits requests; Draining/Drained refuse with kUnavailable.
/// The values are exported as the `serve.state` and `serve.router.state`
/// gauges, so they stay fixed (2 is unused).
enum class EngineState : std::uint8_t {
  kStarting = 0,
  kServing = 1,
  kDraining = 3,
  kDrained = 4,
};

[[nodiscard]] const char* engine_state_name(EngineState s) noexcept;

/// Counter snapshot for benchmarking and monitoring.  All request counters
/// are cumulative since create(); accepted = completed + failed + expired +
/// cancelled + the requests currently in flight.
///
/// This is a compatibility view: the engine's instruments live in the
/// process-wide telemetry registry (telemetry::registry()) under
/// `serve.*{engine="<seq>"}` names, and stats() reconstructs this struct
/// from them.  Prefer the registry (and its Prometheus exposition) for new
/// monitoring consumers.
struct EngineStats {
  std::uint64_t accepted = 0;   ///< admitted into the queue
  std::uint64_t rejected = 0;   ///< refused at admission (backpressure/shed/fault)
  std::uint64_t shed = 0;       ///< subset of rejected: adaptive overload shedding
  std::uint64_t expired = 0;    ///< deadline lapsed (in queue or mid-inference)
  std::uint64_t completed = 0;  ///< finished with OK scores
  std::uint64_t failed = 0;     ///< finished with a non-OK Status
  std::uint64_t cancelled = 0;  ///< abandoned at a cancellation checkpoint (drain)
  std::size_t queue_depth = 0;  ///< requests queued at snapshot time
  std::size_t in_flight = 0;    ///< admitted but not yet resolved
  std::uint64_t batches = 0;    ///< micro-batches executed
  std::uint64_t drains = 0;     ///< drain() calls that entered Draining
  /// Per-request service-time EWMA feeding the shed estimate (ms); 0 until
  /// the first batch completes.
  double ewma_service_ms = 0.0;
  std::uint64_t quarantines = 0;     ///< circuit-breaker trips (cumulative)
  std::size_t quarantined_workers = 0;  ///< workers sitting out right now
  /// True when quarantined workers outnumber live ones (quorum lost): the
  /// engine still serves, but capacity is at least halved.
  bool degraded = false;
  EngineState state = EngineState::kStarting;
  /// batch_size_hist[n] = number of micro-batches that ran with n requests
  /// (index 0 unused; size max_batch + 1).
  std::vector<std::uint64_t> batch_size_hist;
  /// End-to-end (enqueue -> scores ready) latency quantiles over completed
  /// requests, from a log-bucketed histogram: upper bucket bounds, ms.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  /// Mean batch size over executed batches (the fusion the engine achieved).
  [[nodiscard]] double mean_batch() const {
    return batches == 0 ? 0.0 : static_cast<double>(completed + failed) /
                                    static_cast<double>(batches);
  }
};

/// A running serving engine.  Move-only; all public methods are thread-safe
/// (submit/infer may be called from any number of caller threads, and
/// drain/shutdown may race with submitters).
class Engine {
 public:
  /// Builds the network from an in-memory model and starts the workers.
  [[nodiscard]] static core::Result<Engine> create(const io::Model& model,
                                                   EngineConfig cfg = {});
  /// Same, loading a .bflow file first.
  [[nodiscard]] static core::Result<Engine> open(const std::string& path,
                                                 EngineConfig cfg = {});
  /// Starts the workers over an ALREADY-finalized network owned elsewhere.
  /// This is the zero-copy sharding entry point (serve::ShardRouter): N
  /// engines created from the same shared_ptr serve one set of packed
  /// weights — only the per-worker scratch contexts are replicated.  The
  /// network must be finalized; the engine's shared_ptr keeps it alive
  /// until the engine is destroyed.
  /// cfg.net.num_threads still sizes the per-worker context pools;
  /// cfg.net's graph-construction fields are ignored (the network exists).
  [[nodiscard]] static core::Result<Engine> create(
      std::shared_ptr<const graph::BinaryNetwork> net, EngineConfig cfg = {});

  Engine(Engine&&) noexcept;
  Engine& operator=(Engine&&) noexcept;
  ~Engine();  ///< shuts down: drains admitted requests, joins workers

  /// Submits one request with the config's default deadline.  Never throws
  /// and never blocks on inference: the future resolves to the scores or a
  /// Status (kResourceExhausted on rejection/shed, kDeadlineExceeded on
  /// expiry, kCancelled on drain cancellation, kUnavailable while
  /// draining/drained, the mapped error on a worker fault).
  [[nodiscard]] std::future<core::Result<std::vector<float>>> submit(Tensor input);
  /// Same with an explicit scheduling class.
  [[nodiscard]] std::future<core::Result<std::vector<float>>> submit(Tensor input,
                                                                     Priority priority);
  /// Same with an explicit end-to-end deadline (<= 0 disables it).
  [[nodiscard]] std::future<core::Result<std::vector<float>>> submit(
      Tensor input, std::chrono::milliseconds deadline,
      Priority priority = Priority::kNormal);

  /// Callback-completion submit: `done` must be non-empty (BF_CHECK) and is
  /// invoked exactly once with the outcome, on whichever thread resolves
  /// the request — an engine worker for served requests, the CALLING thread
  /// (inline, before this returns) for admission rejections.  The callback
  /// must not throw and must not re-enter this engine (submit/drain/shutdown
  /// from inside it deadlocks by design, like re-entering the registry from
  /// a callback gauge).  This is the wire front-end's path: the poll loop
  /// hands the socket response directly to the worker that produced the
  /// scores, with no future churn.
  void submit(Tensor input, std::chrono::milliseconds deadline, Priority priority,
              ResponseCallback done);

  /// Wire-path submit carrying the request's observability identity
  /// (RequestMeta): the frame's request id and optional client trace id
  /// ride every span and flight-recorder event this request generates, so
  /// its wire-to-kernel timeline joins up in one trace.  Identity only —
  /// scheduling is unaffected.
  void submit(Tensor input, std::chrono::milliseconds deadline, Priority priority,
              RequestMeta meta, ResponseCallback done);

  /// Blocking convenience: submit + wait.
  [[nodiscard]] core::Result<std::vector<float>> infer(Tensor input);

  /// Graceful drain: stops admission (subsequent submits fail with
  /// kUnavailable), then waits until every already-admitted request has
  /// resolved.  If they are not done within `timeout` (<= 0 waits
  /// unboundedly), the remainder is cancelled through the cooperative
  /// checkpoints (kCancelled / kDeadlineExceeded) and drain() returns once
  /// every future has still resolved.  Terminal: a drained engine only
  /// accepts shutdown().  Returns kUnavailable when the engine is not in a
  /// drainable state (already draining elsewhere, or shut down); an OK
  /// Status once drained (idempotent on an already-drained engine).
  [[nodiscard]] core::Status drain(std::chrono::milliseconds timeout);

  /// Stops admission, drains queued requests, joins the workers.
  /// Idempotent; called by the destructor.  submit() after shutdown is
  /// rejected with kResourceExhausted.
  void shutdown();

  // --- introspection ---------------------------------------------------------

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] EngineState state() const;
  /// Queued-but-unpopped requests right now (both lanes).  Cheap — one queue
  /// lock, no histogram snapshots — so routing layers may poll it per
  /// request; stats() is the full (heavier) snapshot.
  [[nodiscard]] std::size_t queue_depth() const;
  /// The network this engine was created with (lock-free: it never
  /// changes).  The pointer keeps it alive past the engine.
  [[nodiscard]] std::shared_ptr<const graph::BinaryNetwork> network() const;
  [[nodiscard]] graph::TensorDesc input_desc() const;
  [[nodiscard]] std::int64_t output_size() const;
  [[nodiscard]] int workers() const noexcept;
  [[nodiscard]] std::int64_t max_batch() const noexcept;

 private:
  struct Impl;
  explicit Engine(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace bitflow::serve
