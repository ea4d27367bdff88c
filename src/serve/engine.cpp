#include "serve/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/cancel.hpp"
#include "core/check.hpp"
#include "core/failpoint.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "serve/error_map.hpp"
#include "serve/request_queue.hpp"
#include "simd/cpu_features.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace bitflow::serve {

using core::ErrorCode;
using core::Status;

const char* engine_state_name(EngineState s) noexcept {
  switch (s) {
    case EngineState::kStarting: return "starting";
    case EngineState::kServing: return "serving";
    case EngineState::kDraining: return "draining";
    case EngineState::kDrained: return "drained";
  }
  return "unknown";
}

namespace {

/// Latency quantile with the engine's historical convention: the registry
/// histogram buckets microsecond latencies by bit width, and the reported
/// quantile is the *power-of-two* upper bound of the quantile bucket
/// (2^i us), converted to ms.  Keeping this convention makes the registry
/// migration invisible to stats() consumers (sub-us samples still report a
/// strictly positive p50).
double quantile_ms(const telemetry::Histogram::Snapshot& h, double q) {
  if (h.count == 0) return 0.0;
  const std::uint64_t want =
      static_cast<std::uint64_t>(q * static_cast<double>(h.count - 1)) + 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    cum += h.buckets[i];
    if (cum >= want) return std::ldexp(1.0, static_cast<int>(i)) / 1000.0;
  }
  return std::ldexp(1.0, static_cast<int>(h.buckets.size()) - 1) / 1000.0;
}

/// Distinguishes the instruments of concurrently live engines in one scrape.
std::string next_engine_label() {
  // Ordering contract: relaxed fetch_add — labels only need uniqueness.
  static std::atomic<std::uint64_t> seq{0};
  return "engine=\"" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) + "\"";
}

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

/// Lifecycle transition breadcrumb: one trace instant.  The sink copies the
/// name and is lock-free, so this is safe from any engine path (including
/// under mu_).
void note_state(const char* state_name) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "lifecycle:%s", state_name);
  telemetry::trace_instant(buf, "lifecycle");
}

}  // namespace

struct Engine::Impl {
  EngineConfig cfg;
  RequestQueue queue;
  std::vector<std::thread> threads;
  std::once_flag shutdown_once;

  // --- lifecycle state -------------------------------------------------------
  // mu_ guards the lifecycle: state machine, in-flight accounting,
  // per-worker batch tokens, and the breaker census.  It is never held
  // across inference, a context build, or a queue operation —
  // RequestQueue's internal mutex and mu_ stay independent leaves.  Lock
  // order with telemetry: the callback gauges below take mu_ inside the
  // registry mutex at scrape time (Registry mu -> mu_, one-way); nothing
  // holding mu_ may call the registry's locked API (DESIGN.md §7).
  mutable core::Mutex mu_;
  EngineState state_ BF_GUARDED_BY(mu_) = EngineState::kStarting;
  bool closing_ BF_GUARDED_BY(mu_) = false;     // shutdown() entered
  bool drain_hard_ BF_GUARDED_BY(mu_) = false;  // drain timeout: cancel the rest
  /// Admitted-but-unresolved requests; idle_cv_ signals the drop to zero.
  std::size_t in_flight_ BF_GUARDED_BY(mu_) = 0;
  core::CondVar idle_cv_;
  /// Wakes quarantined workers early (shutdown or drain escalation).
  core::CondVar state_cv_;
  /// batch_tokens_[w] = cancel token of worker w's in-progress batch (inert
  /// when the worker is between batches); drain() escalation cancels them.
  std::vector<core::CancelToken> batch_tokens_ BF_GUARDED_BY(mu_);
  int quarantined_ BF_GUARDED_BY(mu_) = 0;

  /// The served network, set once here and never replaced, so every thread
  /// reads it (and the shape below, cached for admission) without mu_.
  const std::shared_ptr<const graph::BinaryNetwork> net_;
  const graph::TensorDesc in_desc_;
  const std::int64_t out_size_;

  /// EWMA of per-request service time (batch wall clock / batch size), the
  /// numerator of the admission-time queue-delay estimate.
  // Ordering contract: relaxed loads/stores everywhere — this is a heuristic
  // shared between workers (writers) and submitters (readers); a lost
  // racing update merely delays convergence by one batch, and no other
  // state is published through it.
  std::atomic<std::uint64_t> ewma_request_ns_{0};

  // All counters and histograms live in the process-wide telemetry registry,
  // labeled per engine: stats() reconstructs this engine's view from its own
  // instruments while one Prometheus scrape sees every engine at once.
  const std::string label = next_engine_label();  // before the refs: init order
  telemetry::Counter& accepted;
  telemetry::Counter& rejected;
  telemetry::Counter& shed;
  telemetry::Counter& expired;
  telemetry::Counter& completed;
  telemetry::Counter& failed;
  telemetry::Counter& cancelled;
  telemetry::Counter& batches;
  telemetry::Counter& batch_images;    // occupancy numerator
  telemetry::Counter& queue_overflow;  // full-queue rejections specifically
  telemetry::Counter& drains;
  telemetry::Counter& quarantines;
  telemetry::Histogram& batch_size_hist;  // linear: exact counts for 0..max_batch
  telemetry::Histogram& latency_us_hist;  // log2 microseconds

  Impl(EngineConfig c, std::shared_ptr<const graph::BinaryNetwork> n)
      : cfg(c),
        queue(c.queue_capacity),
        net_(std::move(n)),
        in_desc_(net_->input_desc()),
        out_size_(net_->output_size()),
        accepted(telemetry::registry().counter("serve.requests.accepted", label)),
        rejected(telemetry::registry().counter("serve.requests.rejected", label)),
        shed(telemetry::registry().counter("serve.requests.shed", label)),
        expired(telemetry::registry().counter("serve.requests.expired", label)),
        completed(telemetry::registry().counter("serve.requests.completed", label)),
        failed(telemetry::registry().counter("serve.requests.failed", label)),
        cancelled(telemetry::registry().counter("serve.requests.cancelled", label)),
        batches(telemetry::registry().counter("serve.batches", label)),
        batch_images(telemetry::registry().counter("serve.batch.images", label)),
        queue_overflow(telemetry::registry().counter("serve.queue.overflow", label)),
        drains(telemetry::registry().counter("serve.drains", label)),
        quarantines(telemetry::registry().counter("serve.worker.quarantines", label)),
        batch_size_hist(
            telemetry::registry().histogram("serve.batch.size", label, c.max_batch)),
        latency_us_hist(telemetry::registry().histogram("serve.request.latency_us", label)) {
    batch_tokens_.resize(static_cast<std::size_t>(c.workers));
    // Derived state evaluated only at scrape time.  The Impl address is
    // stable across Engine moves, so `this` capture is safe; ~Impl removes
    // the callbacks before the captured members die.
    telemetry::registry().add_callback_gauge(
        this, "serve.queue.depth", label,
        [this] { return static_cast<double>(queue.size()); });
    telemetry::registry().add_callback_gauge(
        this, "serve.batcher.occupancy", label, [this] {
          const double b = static_cast<double>(batches.value());
          if (b == 0.0) return 0.0;
          return static_cast<double>(batch_images.value()) /
                 (b * static_cast<double>(cfg.max_batch));
        });
    telemetry::registry().add_callback_gauge(this, "serve.state", label, [this] {
      core::MutexLock lock(mu_);
      return static_cast<double>(static_cast<int>(state_));
    });
    telemetry::registry().add_callback_gauge(
        this, "serve.requests.in_flight", label, [this] {
          core::MutexLock lock(mu_);
          return static_cast<double>(in_flight_);
        });
    telemetry::registry().add_callback_gauge(
        this, "serve.workers.quarantined", label, [this] {
          core::MutexLock lock(mu_);
          return static_cast<double>(quarantined_);
        });
  }

  ~Impl() { telemetry::registry().remove_callbacks(this); }

  /// Emits the request's cross-thread lifetime (enqueue -> resolution) as an
  /// async trace pair; a "X" span would break well-nesting on the worker's
  /// thread because requests overlap batches.
  void trace_request(const Request& r) {
    if (telemetry::trace_enabled()) [[unlikely]] {
      const std::uint64_t start_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              r.enqueue_time.time_since_epoch())
              .count());
      // The wire request id doubles as the async-pair id so the request's
      // track carries the client's id space; engine-local submits (no rid)
      // get a fresh process-unique id instead.
      const std::uint64_t id =
          r.meta.rid != 0 ? r.meta.rid : telemetry::trace_next_async_id();
      telemetry::trace_async("serve.request", "request", start_ns,
                             telemetry::trace_now_ns(), id, r.meta.rid);
    }
  }

  /// One admitted request fully resolved: drops the in-flight count and, at
  /// zero, wakes drain()/shutdown() waiters.
  void finish_one() BF_EXCLUDES(mu_) {
    core::MutexLock lock(mu_);
    if (in_flight_ > 0 && --in_flight_ == 0) idle_cv_.notify_all();
  }

  /// Shared admission path behind every public submit overload.  `r` must
  /// carry its `done` callback already; every rejection resolves it inline
  /// before returning.  Every outcome reaches the submitter through `done`
  /// exactly once, on the resolving thread.  A callback must not throw
  /// (contract in request_queue.hpp); a violation would unwind a worker, so
  /// it is deliberately not firewalled — it is a caller bug, not an engine
  /// fault.
  void do_submit(Request r, std::chrono::milliseconds deadline) BF_EXCLUDES(mu_);

  void resolve_ok(Request& r, const float* scores, std::int64_t count) {
    const auto now = std::chrono::steady_clock::now();
    // The deadline is a contract on the WHOLE request: a member that rode a
    // mixed batch past its own budget (the batch token only trips once
    // every member is over) has scores, but delivering them late would
    // stretch the completed-latency tail unboundedly under overload.  It
    // counts as expired, and the latency histogram only ever sees requests
    // that met their contract.
    if (now > r.deadline) {
      expired.add();
      trace_request(r);
      telemetry::trace_instant("request completed past its deadline", "deadline",
                               r.meta.rid);
      telemetry::flight_observe_outcome(/*ok=*/false, /*deadline_breach=*/true);
      r.done(Status{ErrorCode::kDeadlineExceeded, "request completed past its deadline"});
      finish_one();
      return;
    }
    const std::uint64_t us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - r.enqueue_time).count());
    // Count before resolving: a caller that has observed its result must
    // find the request reflected in stats().
    completed.add();
    latency_us_hist.record(us);
    trace_request(r);
    telemetry::flight_observe_outcome(/*ok=*/true, /*deadline_breach=*/false);
    r.done(std::vector<float>(scores, scores + count));
    finish_one();
  }

  void resolve_error(Request& r, Status st) {
    failed.add();
    trace_request(r);
    telemetry::trace_instant(st.message().c_str(), "error", r.meta.rid);
    telemetry::flight_observe_outcome(/*ok=*/false, /*deadline_breach=*/false);
    r.done(std::move(st));
    finish_one();
  }

  void resolve_expired(Request& r) {
    expired.add();
    trace_request(r);
    telemetry::trace_instant("request expired waiting in queue", "deadline", r.meta.rid);
    telemetry::flight_observe_outcome(/*ok=*/false, /*deadline_breach=*/true);
    r.done(Status{ErrorCode::kDeadlineExceeded,
                  "request expired after waiting in queue beyond its deadline"});
    finish_one();
  }

  void resolve_cancelled(Request& r, const char* why) {
    cancelled.add();
    trace_request(r);
    telemetry::trace_instant(why, "cancel", r.meta.rid);
    telemetry::flight_observe_outcome(/*ok=*/false, /*deadline_breach=*/false);
    r.done(Status{ErrorCode::kCancelled, why});
    finish_one();
  }

  /// A batch abandoned at a cooperative checkpoint: members whose own
  /// deadline has lapsed keep the deadline vocabulary; the rest were
  /// cancelled outright (drain escalation).
  void resolve_abandoned(Request& r) {
    if (r.deadline <= std::chrono::steady_clock::now()) {
      expired.add();
      trace_request(r);
      telemetry::trace_instant("expired at a mid-inference checkpoint", "deadline",
                               r.meta.rid);
      telemetry::flight_observe_outcome(/*ok=*/false, /*deadline_breach=*/true);
      r.done(Status{ErrorCode::kDeadlineExceeded,
                    "deadline expired at a mid-inference cancellation checkpoint"});
      finish_one();
    } else {
      resolve_cancelled(r, "request cancelled at a cooperative checkpoint (drain)");
    }
  }

  /// Micro-batching: blocks for the first request (no busy-wait when idle),
  /// then keeps coalescing until max_batch live requests are in hand or
  /// batch_timeout has elapsed since the first pop.  The default window is
  /// zero: a worker takes what is already queued and runs it, so a lone
  /// request never waits, and under load requests that arrive during one
  /// batch are queued when the worker comes back.  A request whose deadline
  /// lapsed in queue goes to `expired` instead of taking a batch slot.  Both
  /// vectors are cleared first; false means the queue is closed and drained
  /// (the worker's signal to exit), and a true return with an empty `batch`
  /// is possible when every popped request had expired.
  bool next_batch(std::vector<Request>& batch, std::vector<Request>& expired) {
    batch.clear();
    expired.clear();
    auto classify = [&](Request&& r) {
      if (r.deadline <= std::chrono::steady_clock::now()) {
        expired.push_back(std::move(r));
      } else {
        batch.push_back(std::move(r));
      }
    };
    std::optional<Request> first = queue.pop();
    if (!first.has_value()) return false;
    const auto window_end = std::chrono::steady_clock::now() + cfg.batch_timeout;
    classify(*std::move(first));
    // Expired requests take no slot: keep pulling until max_batch live ones
    // or the window closes (pop_until also returns at once on a closed,
    // empty queue).
    while (static_cast<std::int64_t>(batch.size()) < cfg.max_batch) {
      std::optional<Request> r = queue.pop_until(window_end);
      if (!r.has_value()) break;
      classify(*std::move(r));
    }
    return true;
  }

  /// Circuit breaker: this worker sits out for breaker_backoff (or until
  /// shutdown/drain escalation), then returns to the batching loop to
  /// re-probe with real traffic.
  void quarantine() BF_EXCLUDES(mu_) {
    quarantines.add();
    telemetry::trace_instant("quarantine", "lifecycle");
    // Trigger BEFORE taking mu_: bundle context providers may re-enter the
    // engine (stats() under a /varz section takes mu_).
    telemetry::flight_trigger(telemetry::FlightTrigger::kQuarantine,
                              "worker circuit breaker quarantined");
    core::MutexLock lock(mu_);
    ++quarantined_;
    const auto until = std::chrono::steady_clock::now() + cfg.breaker_backoff;
    while (!closing_ && !drain_hard_) {
      if (state_cv_.wait_until(lock, until) == std::cv_status::timeout) break;
    }
    --quarantined_;
  }

  /// Worker thread body: one replicated context, built at start, then the
  /// batching loop.  Exits when the queue is closed and drained; every
  /// popped request resolves.
  void worker_main(int widx) {
    // A context build can fail (allocation fault injection, genuine memory
    // pressure): retry — such faults are transient — and bail out only once
    // the engine is shutting down with nothing left to drain.
    std::optional<graph::InferenceContext> ctx;
    while (!ctx.has_value()) {
      try {
        ctx.emplace(net_->make_context(cfg.max_batch, cfg.net.num_threads));
      } catch (...) {
        // Retrying is right for transient pressure, but a drain escalation
        // must not wait on a worker that cannot build a context: under
        // drain_hard_ this worker could not run anything anyway, so
        // fast-fail whatever is queued (covering requests that slipped in
        // after the drain thread's own queue sweep) so in_flight_ reaches
        // zero and drain() completes.
        bool hard = false;
        {
          core::MutexLock lock(mu_);
          hard = drain_hard_;
        }
        if (hard) {
          while (std::optional<Request> r = queue.try_pop()) {
            if (r->deadline <= std::chrono::steady_clock::now()) {
              resolve_expired(*r);
            } else {
              resolve_cancelled(*r, "request cancelled: engine drained before it could run");
            }
          }
        }
        if (queue.closed() && queue.size() == 0) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    std::vector<Request> batch, lapsed;
    std::vector<const Tensor*> inputs;
    inputs.reserve(static_cast<std::size_t>(cfg.max_batch));
    int consecutive_failures = 0;

    while (next_batch(batch, lapsed)) {
      for (Request& r : lapsed) resolve_expired(r);

      if (batch.empty()) continue;
      // Drain check at the batch boundary: one short lock.
      bool hard = false;
      {
        core::MutexLock lock(mu_);
        hard = drain_hard_;
      }
      if (hard) {
        for (Request& r : batch) {
          resolve_cancelled(r, "request cancelled: engine drained before it could run");
        }
        continue;
      }

      // The batch runs under one token armed with the LATEST member
      // deadline: the batch aborts only once every member's budget is gone
      // (any member without a deadline keeps the token deadline-free; drain
      // escalation can still cancel it explicitly).
      auto latest = std::chrono::steady_clock::time_point::min();
      bool unbounded = false;
      for (const Request& r : batch) {
        if (r.deadline == kNoDeadline) {
          unbounded = true;
        } else {
          latest = std::max(latest, r.deadline);
        }
      }
      const core::CancelToken token =
          unbounded ? core::CancelToken::cancellable()
                    : core::CancelToken::with_deadline(latest);
      {
        core::MutexLock lock(mu_);
        batch_tokens_[static_cast<std::size_t>(widx)] = token;
        // Drain may have escalated between the pop and this registration;
        // cancelling here (instead of re-classifying) keeps one code path.
        if (drain_hard_) token.cancel();
      }

      const std::int64_t n = static_cast<std::int64_t>(batch.size());
      inputs.clear();
      for (const Request& r : batch) inputs.push_back(&r.input);
      batches.add();
      batch_images.add(static_cast<std::uint64_t>(n));
      batch_size_hist.record(static_cast<std::uint64_t>(n));
      const auto t0 = std::chrono::steady_clock::now();
      bool worker_failed = false;
      {
        telemetry::TraceSpan batch_span("serve.batch", "serve", n);
        // Batch membership instants inside the batch span: each carries the
        // member's rid, joining the wire request to THIS worker's layer and
        // kernel spans below it.
        if (telemetry::trace_enabled()) [[unlikely]] {
          for (const Request& r : batch) {
            telemetry::trace_instant("serve.batch.member", "serve", r.meta.rid);
          }
        }
        try {
          BF_FAILPOINT("serve.infer");
          const std::span<const float> scores = net_->infer_batch(inputs, *ctx, token);
          for (std::int64_t b = 0; b < n; ++b) {
            resolve_ok(batch[static_cast<std::size_t>(b)], scores.data() + b * out_size_,
                       out_size_);
          }
        } catch (const core::CancelledError&) {
          // The whole batch stopped at a checkpoint; no rerun — the members
          // are expired or cancelled, not poisoned.
          for (Request& r : batch) resolve_abandoned(r);
        } catch (...) {
          // Exception firewall: the batch is poisoned, but which member is
          // at fault?  Rerun each alone so only the faulty request fails and
          // the rest still get scores; the worker keeps serving either way.
          for (Request& r : batch) {
            try {
              BF_FAILPOINT("serve.infer");
              const Tensor* one = &r.input;
              const std::span<const float> scores =
                  net_->infer_batch({&one, 1}, *ctx, token);
              resolve_ok(r, scores.data(), out_size_);
            } catch (const core::CancelledError&) {
              resolve_abandoned(r);
            } catch (...) {
              Status st = map_infer_error();
              if (st.code() == ErrorCode::kWorkerFailure) worker_failed = true;
              resolve_error(r, std::move(st));
            }
          }
        }
      }
      {
        core::MutexLock lock(mu_);
        batch_tokens_[static_cast<std::size_t>(widx)] = core::CancelToken{};
      }

      // Feed the admission-control estimate: per-request service time EWMA
      // (alpha = 1/4) over this batch.
      const std::int64_t wall_ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count();
      const std::int64_t sample = wall_ns / n;
      // Ordering contract: relaxed — see ewma_request_ns_ declaration.
      const std::int64_t prev = static_cast<std::int64_t>(
          ewma_request_ns_.load(std::memory_order_relaxed));
      const std::int64_t next = prev == 0 ? sample : prev + (sample - prev) / 4;
      // Ordering contract: relaxed — see ewma_request_ns_ declaration.
      ewma_request_ns_.store(static_cast<std::uint64_t>(std::max<std::int64_t>(next, 1)),
                             std::memory_order_relaxed);

      // Circuit breaker: only genuine worker-pool failures count (an
      // injected kInternal or a bad request is not a sick worker).
      bool trip = false;
      if (cfg.breaker_threshold > 0) {
        if (worker_failed) {
          trip = ++consecutive_failures >= cfg.breaker_threshold;
        } else {
          consecutive_failures = 0;
        }
      }
      try {
        if (BF_FAILPOINT_TRIGGERED("serve.worker_quarantine")) trip = true;
      } catch (...) {
        trip = true;  // the failpoint's error action also forces a trip
      }
      if (trip) {
        consecutive_failures = 0;
        quarantine();
      }
    }
  }
};

Engine::Engine(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;

Engine::~Engine() {
  if (impl_) shutdown();
}

namespace {

/// Config sanity shared by both create() entry points.  `check_isa` is false
/// when the caller hands in an already-instantiated network: its kernels were
/// chosen when IT was built, so cfg.net.max_isa is not consulted.
Status validate_engine_config(const EngineConfig& cfg, bool check_isa) {
  if (cfg.workers < 1) {
    return Status{ErrorCode::kBadInput, "EngineConfig: workers must be >= 1"};
  }
  if (cfg.max_batch < 1) {
    return Status{ErrorCode::kBadInput, "EngineConfig: max_batch must be >= 1"};
  }
  if (cfg.batch_timeout.count() < 0) {
    return Status{ErrorCode::kBadInput, "EngineConfig: batch_timeout must be >= 0"};
  }
  if (cfg.queue_capacity < 1) {
    return Status{ErrorCode::kBadInput, "EngineConfig: queue_capacity must be >= 1"};
  }
  if (cfg.net.num_threads < 1) {
    return Status{ErrorCode::kBadInput, "EngineConfig: net.num_threads must be >= 1"};
  }
  if (cfg.breaker_threshold < 0) {
    return Status{ErrorCode::kBadInput, "EngineConfig: breaker_threshold must be >= 0"};
  }
  if (cfg.breaker_backoff.count() < 0) {
    return Status{ErrorCode::kBadInput, "EngineConfig: breaker_backoff must be >= 0"};
  }
  if (check_isa && cfg.net.max_isa.has_value() &&
      !simd::cpu_features().supports(*cfg.net.max_isa)) {
    return Status{ErrorCode::kUnsupportedIsa,
                  "requested max_isa " + std::string(simd::isa_name(*cfg.net.max_isa)) +
                      " is not executable on this CPU"};
  }
  return {};
}

}  // namespace

core::Result<Engine> Engine::create(std::shared_ptr<const graph::BinaryNetwork> net,
                                    EngineConfig cfg) {
  if (!net) {
    return Status{ErrorCode::kBadInput, "Engine::create: network must be non-null"};
  }
  if (Status st = validate_engine_config(cfg, /*check_isa=*/false); !st.is_ok()) return st;
  try {
    auto impl = std::make_unique<Impl>(cfg, std::move(net));
    // Contexts are created inside each worker thread (first thing it does),
    // so their allocation cost is paid off the caller's critical path.
    impl->threads.reserve(static_cast<std::size_t>(cfg.workers));
    Impl* ip = impl.get();  // Impl address is stable across Engine moves
    for (int w = 0; w < cfg.workers; ++w) {
      impl->threads.emplace_back([ip, w] { ip->worker_main(w); });
    }
    {
      core::MutexLock lock(ip->mu_);
      ip->state_ = EngineState::kServing;
    }
    note_state("serving");
    return Engine(std::move(impl));
  } catch (...) {
    return map_open_error();
  }
}

core::Result<Engine> Engine::create(const io::Model& model, EngineConfig cfg) {
  if (Status st = validate_engine_config(cfg, /*check_isa=*/true); !st.is_ok()) return st;
  try {
    auto net = std::make_shared<const graph::BinaryNetwork>(model.instantiate(cfg.net));
    return create(std::move(net), cfg);
  } catch (...) {
    return map_open_error();
  }
}

core::Result<Engine> Engine::open(const std::string& path, EngineConfig cfg) {
  try {
    const io::Model model = io::Model::load(path);
    return create(model, cfg);
  } catch (...) {
    return map_open_error();
  }
}

std::future<core::Result<std::vector<float>>> Engine::submit(Tensor input) {
  return submit(std::move(input), impl_->cfg.default_deadline, Priority::kNormal);
}

std::future<core::Result<std::vector<float>>> Engine::submit(Tensor input,
                                                             Priority priority) {
  return submit(std::move(input), impl_->cfg.default_deadline, priority);
}

std::future<core::Result<std::vector<float>>> Engine::submit(
    Tensor input, std::chrono::milliseconds deadline, Priority priority) {
  std::future<core::Result<std::vector<float>>> fut;
  submit(std::move(input), deadline, priority, promise_callback(fut));
  return fut;
}

void Engine::submit(Tensor input, std::chrono::milliseconds deadline, Priority priority,
                    ResponseCallback done) {
  submit(std::move(input), deadline, priority, RequestMeta{}, std::move(done));
}

void Engine::submit(Tensor input, std::chrono::milliseconds deadline, Priority priority,
                    RequestMeta meta, ResponseCallback done) {
  BF_CHECK(done, "submit: the completion callback is empty");
  Request r;
  r.input = std::move(input);
  r.priority = priority;
  r.meta = meta;
  r.done = std::move(done);
  impl_->do_submit(std::move(r), deadline);
}

void Engine::Impl::do_submit(Request r, std::chrono::milliseconds deadline) {
  Impl& im = *this;
  // Validate before admission: a shape mismatch is the caller's fault and
  // must not consume queue capacity.
  if (r.input.height() != im.in_desc_.h || r.input.width() != im.in_desc_.w ||
      r.input.channels() != im.in_desc_.c) {
    im.rejected.add();
    r.done(Status{
        ErrorCode::kBadInput,
        "submit: input is " + std::to_string(r.input.height()) + "x" +
            std::to_string(r.input.width()) + "x" + std::to_string(r.input.channels()) +
            ", network wants " + std::to_string(im.in_desc_.h) + "x" +
            std::to_string(im.in_desc_.w) + "x" + std::to_string(im.in_desc_.c)});
    return;
  }

  // Admission-control failpoint: an injected fault here models the queue
  // refusing the request (kResourceExhausted via the serve.queue_admit
  // mapping), exercising callers' rejection handling.
  try {
    BF_FAILPOINT("serve.queue_admit");
  } catch (...) {
    im.rejected.add();
    telemetry::trace_instant("serve.queue_admit rejected admission", "failpoint",
                             r.meta.rid);
    r.done(map_infer_error());
    return;
  }

  // Shed failpoint evaluated outside the lifecycle lock (its stall action
  // must not wedge every submitter); a site action forces the shed branch,
  // an error action maps straight to kResourceExhausted.
  bool force_shed = false;
  try {
    force_shed = BF_FAILPOINT_TRIGGERED("serve.shed");
  } catch (...) {
    im.shed.add();
    im.rejected.add();
    telemetry::trace_instant("serve.shed forced a rejection", "failpoint", r.meta.rid);
    r.done(map_infer_error());
    return;
  }

  // Lifecycle gate + adaptive shedding + in-flight admission, one lock.
  std::uint64_t est_wait_ns = 0;
  {
    core::MutexLock lock(im.mu_);
    if (im.closing_) {
      im.rejected.add();
      r.done(Status{ErrorCode::kResourceExhausted, "submit: engine is shut down"});
      return;
    }
    if (im.state_ == EngineState::kDraining || im.state_ == EngineState::kDrained) {
      im.rejected.add();
      r.done(Status{
          ErrorCode::kUnavailable,
          "submit: engine is " + std::string(engine_state_name(im.state_)) +
              " and not accepting new requests"});
      return;
    }
    bool do_shed = force_shed;
    if (!do_shed && im.cfg.adaptive_shedding && r.priority == Priority::kNormal &&
        deadline.count() > 0) {
      // Shed formula: expected wait = in-flight work / drain rate, i.e.
      // in_flight * EWMA(service time per request) / workers.  The request
      // is admitted only while that wait fits in HALF its budget: the other
      // half is headroom for the service time itself and for estimator lag
      // (the EWMA trails the queue by a batch).  Admitting right up to the
      // full budget puts every admitted request at the expiry margin — the
      // classic overload failure where work is accepted, queued for its
      // whole deadline, then thrown away.
      // Ordering contract: relaxed — see ewma_request_ns_ declaration.
      const std::uint64_t ewma = im.ewma_request_ns_.load(std::memory_order_relaxed);
      if (ewma > 0) {
        est_wait_ns = static_cast<std::uint64_t>(im.in_flight_) * ewma /
                      static_cast<std::uint64_t>(im.cfg.workers);
        const std::uint64_t budget_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(deadline).count());
        do_shed = est_wait_ns > budget_ns / 2;
      }
    }
    if (do_shed) {
      im.shed.add();
      im.rejected.add();
      telemetry::trace_instant("shed", "lifecycle", r.meta.rid);
      r.done(Status{
          ErrorCode::kResourceExhausted,
          "submit: shed by overload control (estimated queue delay " +
              std::to_string(est_wait_ns / 1000) + " us exceeds the " +
              std::to_string(deadline.count()) + " ms deadline budget)"});
      return;
    }
    // Count the request in flight BEFORE the push: a worker may pop and
    // resolve it before try_push even returns.
    ++im.in_flight_;
  }

  r.enqueue_time = std::chrono::steady_clock::now();
  if (deadline.count() > 0) r.deadline = r.enqueue_time + deadline;

  if (!im.queue.try_push(r)) {
    {
      core::MutexLock lock(im.mu_);
      if (im.in_flight_ > 0 && --im.in_flight_ == 0) im.idle_cv_.notify_all();
    }
    im.rejected.add();
    im.queue_overflow.add();
    r.done(Status{
        ErrorCode::kResourceExhausted,
        im.queue.closed()
            ? std::string("submit: engine is shut down")
            : "submit: queue full (capacity " + std::to_string(im.queue.capacity()) + ")"});
    return;
  }
  im.accepted.add();
}

core::Result<std::vector<float>> Engine::infer(Tensor input) {
  return submit(std::move(input)).get();
}

core::Status Engine::drain(std::chrono::milliseconds timeout) {
  Impl& im = *impl_;
  telemetry::TraceSpan span("serve.drain", "serve");
  // Drain error boundary: an injected fault models an orchestrator-visible
  // drain refusal (kUnavailable via the serve.drain mapping).
  try {
    BF_FAILPOINT("serve.drain");
  } catch (...) {
    telemetry::trace_instant("serve.drain refused", "failpoint");
    return map_infer_error();
  }
  {
    core::MutexLock lock(im.mu_);
    if (im.state_ == EngineState::kDrained) return {};  // idempotent
    if (im.closing_ || im.state_ != EngineState::kServing) {
      return Status{ErrorCode::kUnavailable,
                    "drain: engine is " + std::string(engine_state_name(im.state_)) +
                        (im.closing_ ? " (shutting down)" : "") +
                        "; only a serving engine can start a drain"};
    }
    im.state_ = EngineState::kDraining;
  }
  note_state("draining");
  im.drains.add();
  bool escalated = false;
  {
    core::MutexLock lock(im.mu_);
    if (timeout.count() > 0) {
      const auto escalate_at = std::chrono::steady_clock::now() + timeout;
      while (im.in_flight_ != 0) {
        if (im.idle_cv_.wait_until(lock, escalate_at) == std::cv_status::timeout) break;
      }
      if (im.in_flight_ != 0) {
        // Timeout: cancel running batches at their next cooperative
        // checkpoint; everything still queued is fast-failed below.
        im.drain_hard_ = true;
        for (core::CancelToken& t : im.batch_tokens_) t.cancel();
        im.state_cv_.notify_all();  // quarantined workers: wake and drain
        escalated = true;
      }
    }
  }
  if (escalated) {
    // Fast-fail queued requests from THIS thread instead of waiting for a
    // worker to pop them: a worker can be wedged outside its batching loop
    // (e.g. retrying a persistently failing context build), so the wait
    // below must be bounded by one layer of inference per running batch,
    // never by worker recovery.  Races with concurrent next_batch() pops are
    // benign — whoever pops a request under drain_hard_ cancels it.  A
    // member whose own deadline already lapsed keeps the deadline
    // vocabulary, exactly as next_batch()'s lapsed-request path would.
    while (std::optional<Request> r = im.queue.try_pop()) {
      if (r->deadline <= std::chrono::steady_clock::now()) {
        im.resolve_expired(*r);
      } else {
        im.resolve_cancelled(*r, "request cancelled: engine drained before it could run");
      }
    }
  }
  {
    core::MutexLock lock(im.mu_);
    while (im.in_flight_ != 0) im.idle_cv_.wait(lock);
    im.state_ = EngineState::kDrained;
  }
  note_state("drained");
  if (escalated) {
    telemetry::trace_instant("drain escalated: in-flight batches cancelled", "drain");
  }
  return {};
}

void Engine::shutdown() {
  Impl& im = *impl_;
  std::call_once(im.shutdown_once, [&im] {
    {
      core::MutexLock lock(im.mu_);
      im.closing_ = true;
    }
    note_state("shutdown");
    im.state_cv_.notify_all();  // quarantined workers exit their backoff
    // Workers observe shutdown through the closed queue: close() wakes
    // every blocked pop, next_batch() drains and returns false.
    im.queue.close();
    for (std::thread& t : im.threads) {
      if (t.joinable()) t.join();
    }
  });
}

EngineStats Engine::stats() const {
  const Impl& im = *impl_;
  EngineStats s;
  s.accepted = im.accepted.value();
  s.rejected = im.rejected.value();
  s.shed = im.shed.value();
  s.expired = im.expired.value();
  s.completed = im.completed.value();
  s.failed = im.failed.value();
  s.cancelled = im.cancelled.value();
  s.batches = im.batches.value();
  s.drains = im.drains.value();
  s.quarantines = im.quarantines.value();
  s.queue_depth = im.queue.size();
  {
    core::MutexLock lock(im.mu_);
    s.state = im.state_;
    s.in_flight = im.in_flight_;
    s.quarantined_workers = static_cast<std::size_t>(im.quarantined_);
  }
  s.degraded = s.quarantined_workers * 2 > static_cast<std::size_t>(im.cfg.workers);
  // Ordering contract: relaxed — see ewma_request_ns_ declaration.
  s.ewma_service_ms =
      static_cast<double>(im.ewma_request_ns_.load(std::memory_order_relaxed)) / 1e6;
  // Rebuild the exact per-size counts from the linear registry histogram:
  // buckets 0..max_batch are exact (the overflow bucket is unreachable since
  // no batch exceeds max_batch).
  const telemetry::Histogram::Snapshot bh = im.batch_size_hist.snapshot();
  s.batch_size_hist.assign(bh.buckets.begin(),
                           bh.buckets.begin() + im.cfg.max_batch + 1);
  // One snapshot for both quantiles: two snapshots under concurrent load
  // could report p50 and p99 from inconsistent views of the histogram.
  const telemetry::Histogram::Snapshot lat = im.latency_us_hist.snapshot();
  s.latency_p50_ms = quantile_ms(lat, 0.50);
  s.latency_p99_ms = quantile_ms(lat, 0.99);
  return s;
}

EngineState Engine::state() const {
  core::MutexLock lock(impl_->mu_);
  return impl_->state_;
}

std::size_t Engine::queue_depth() const { return impl_->queue.size(); }

std::shared_ptr<const graph::BinaryNetwork> Engine::network() const { return impl_->net_; }

graph::TensorDesc Engine::input_desc() const { return impl_->in_desc_; }
std::int64_t Engine::output_size() const { return impl_->out_size_; }
int Engine::workers() const noexcept { return impl_->cfg.workers; }
std::int64_t Engine::max_batch() const noexcept { return impl_->cfg.max_batch; }

}  // namespace bitflow::serve
