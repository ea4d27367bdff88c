#include "serve/shard_router.hpp"

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "core/check.hpp"
#include "core/status.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "serve/error_map.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace bitflow::serve {

using core::ErrorCode;
using core::Status;

namespace {

/// Distinguishes the instruments of concurrently live routers in one scrape.
std::string next_router_label() {
  // Ordering contract: relaxed fetch_add — labels only need uniqueness.
  static std::atomic<std::uint64_t> seq{0};
  return "router=\"" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) + "\"";
}

/// Per-thread xorshift64 stream for the two routing probes.  Quality bar is
/// low (uniform-ish shard picks); what matters is no shared mutable state
/// on the submit path.
std::uint64_t next_rand() {
  // Ordering contract: relaxed fetch_add — each thread only needs a seed
  // distinct from other threads'; no other state is published through it.
  static std::atomic<std::uint64_t> seed{0x9e3779b97f4a7c15ull};
  thread_local std::uint64_t state =
      seed.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed) | 1ull;
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Router lifecycle breadcrumb: one trace instant (the sink copies the name
/// and is lock-free, safe under mu_).
void note_router_state(const char* state_name) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "lifecycle:router-%s", state_name);
  telemetry::trace_instant(buf, "lifecycle");
}

}  // namespace

struct ShardRouter::Impl {
  RouterConfig cfg;

  // mu_ guards the router's lifecycle state only.  It is a leaf: nothing
  // holding it calls into a shard or the registry's locked API.  The scrape
  // path takes it inside the registry mutex (Registry mu -> mu_, one-way),
  // the same order every engine's gauges already pin (DESIGN.md §7).
  mutable core::Mutex mu_;
  EngineState state_ BF_GUARDED_BY(mu_) = EngineState::kStarting;

  /// outstanding_[s] = requests routed to shard s and not yet resolved —
  /// the depth signal the two routing probes compare.
  // Ordering contract: relaxed everywhere — a routing probe tolerates a
  // stale count (it only skews one placement decision); no other state is
  // published through these counters.
  std::unique_ptr<std::atomic<std::uint64_t>[]> outstanding_;

  const std::string label = next_router_label();  // before the refs: init order
  telemetry::Counter& routed;
  telemetry::Counter& rejected;

  /// Declared after outstanding_ so engines_ is destroyed FIRST: ~Engine
  /// joins its workers, and a worker's last act on a request is the wrapped
  /// completion callback, which still touches outstanding_.
  std::vector<Engine> engines_;

  explicit Impl(RouterConfig c)
      : cfg(c),
        outstanding_(new std::atomic<std::uint64_t>[static_cast<std::size_t>(c.shards)]),
        routed(telemetry::registry().counter("serve.router.routed", label)),
        rejected(telemetry::registry().counter("serve.router.rejected", label)) {
    for (int s = 0; s < c.shards; ++s) {
      outstanding_[s].store(0, std::memory_order_relaxed);
    }
  }

  ~Impl() { telemetry::registry().remove_callbacks(this); }

  /// Registers the per-shard gauges once the engines exist (the callbacks
  /// dereference engines_).  Callbacks run under the registry mutex and
  /// only read a queue size / an atomic — they never re-enter the registry.
  void register_gauges() {
    for (int s = 0; s < cfg.shards; ++s) {
      const std::string shard_label = label + ",shard=\"" + std::to_string(s) + "\"";
      telemetry::registry().add_callback_gauge(
          this, "serve.shard.queue_depth", shard_label,
          [this, s] { return static_cast<double>(engines_[static_cast<std::size_t>(s)].queue_depth()); });
      telemetry::registry().add_callback_gauge(
          this, "serve.shard.in_flight", shard_label, [this, s] {
            // Ordering contract: relaxed — see outstanding_ declaration.
            return static_cast<double>(
                outstanding_[s].load(std::memory_order_relaxed));
          });
    }
    telemetry::registry().add_callback_gauge(this, "serve.router.state", label, [this] {
      core::MutexLock lock(mu_);
      return static_cast<double>(static_cast<int>(state_));
    });
  }

  /// Two distinct uniform probes; route to the shallower.
  int pick_shard() {
    const int n = cfg.shards;
    if (n == 1) return 0;
    const std::uint64_t r = next_rand();
    const int a = static_cast<int>(r % static_cast<std::uint64_t>(n));
    int b = static_cast<int>((r >> 32) % static_cast<std::uint64_t>(n));
    if (b == a) b = (a + 1) % n;
    // Ordering contract: relaxed — see outstanding_ declaration.
    const std::uint64_t da = outstanding_[a].load(std::memory_order_relaxed);
    const std::uint64_t db = outstanding_[b].load(std::memory_order_relaxed);
    return da <= db ? a : b;
  }

  /// The single routing path behind both public submit forms.  `done` must
  /// already be the request's completion channel; every rejection resolves
  /// it inline before returning.
  void route(Tensor input, std::chrono::milliseconds deadline, Priority priority,
             RequestMeta meta, ResponseCallback done) BF_EXCLUDES(mu_) {
    BF_CHECK(done, "submit: the completion callback is empty");
    {
      core::MutexLock lock(mu_);
      if (state_ == EngineState::kDraining || state_ == EngineState::kDrained) {
        rejected.add();
        telemetry::trace_instant("router lifecycle gate rejected a request", "shed",
                                 meta.rid);
        done(Status{ErrorCode::kUnavailable,
                    "submit: router is " + std::string(engine_state_name(state_)) +
                        " and not accepting new requests"});
        return;
      }
    }
    const int s = pick_shard();
    // Count BEFORE the shard submit: the engine may resolve (reject) the
    // request inline, and the wrapped callback's decrement must never run
    // before its increment.
    // Ordering contract: relaxed — see outstanding_ declaration.
    outstanding_[s].fetch_add(1, std::memory_order_relaxed);
    routed.add();
    engines_[static_cast<std::size_t>(s)].submit(
        std::move(input), deadline, priority, meta,
        [this, s, done = std::move(done)](
            core::Result<std::vector<float>>&& outcome) mutable {
          // Ordering contract: relaxed — see outstanding_ declaration.
          outstanding_[s].fetch_sub(1, std::memory_order_relaxed);
          done(std::move(outcome));
        });
  }
};

ShardRouter::ShardRouter(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
ShardRouter::ShardRouter(ShardRouter&&) noexcept = default;
ShardRouter& ShardRouter::operator=(ShardRouter&&) noexcept = default;

ShardRouter::~ShardRouter() {
  if (impl_) shutdown();
}

core::Result<ShardRouter> ShardRouter::create(
    std::shared_ptr<const graph::BinaryNetwork> net, RouterConfig cfg) {
  if (!net) {
    return Status{ErrorCode::kBadInput, "ShardRouter::create: network must be non-null"};
  }
  if (cfg.shards < 1) {
    return Status{ErrorCode::kBadInput, "RouterConfig: shards must be >= 1"};
  }
  auto impl = std::make_unique<Impl>(cfg);
  impl->engines_.reserve(static_cast<std::size_t>(cfg.shards));
  for (int s = 0; s < cfg.shards; ++s) {
    core::Result<Engine> e = Engine::create(net, cfg.engine);  // shared, not copied
    if (!e.is_ok()) {
      // Already-started shards are shut down by ~Impl -> ~Engine.
      Status st = e.status();
      return Status{st.code(), "shard " + std::to_string(s) + ": " + st.message()};
    }
    impl->engines_.push_back(std::move(e.value()));
  }
  impl->register_gauges();
  {
    core::MutexLock lock(impl->mu_);
    impl->state_ = EngineState::kServing;
  }
  note_router_state("serving");
  return ShardRouter(std::move(impl));
}

core::Result<ShardRouter> ShardRouter::create(const io::Model& model, RouterConfig cfg) {
  try {
    auto net = std::make_shared<const graph::BinaryNetwork>(
        model.instantiate(cfg.engine.net));
    return create(std::move(net), cfg);
  } catch (...) {
    return map_open_error();
  }
}

std::future<core::Result<std::vector<float>>> ShardRouter::submit(
    Tensor input, std::chrono::milliseconds deadline, Priority priority) {
  std::future<core::Result<std::vector<float>>> fut;
  impl_->route(std::move(input), deadline, priority, RequestMeta{}, promise_callback(fut));
  return fut;
}

void ShardRouter::submit(Tensor input, std::chrono::milliseconds deadline,
                         Priority priority, ResponseCallback done) {
  impl_->route(std::move(input), deadline, priority, RequestMeta{}, std::move(done));
}

void ShardRouter::submit(Tensor input, std::chrono::milliseconds deadline,
                         Priority priority, RequestMeta meta, ResponseCallback done) {
  impl_->route(std::move(input), deadline, priority, meta, std::move(done));
}

core::Result<std::vector<float>> ShardRouter::infer(Tensor input) {
  return submit(std::move(input), std::chrono::milliseconds{0}, Priority::kNormal).get();
}

core::Status ShardRouter::drain(std::chrono::milliseconds timeout) {
  Impl& im = *impl_;
  {
    core::MutexLock lock(im.mu_);
    if (im.state_ == EngineState::kDrained) return {};  // idempotent
    if (im.state_ != EngineState::kServing) {
      return Status{ErrorCode::kUnavailable,
                    "drain: router is " + std::string(engine_state_name(im.state_)) +
                        "; only a serving router can start a drain"};
    }
    im.state_ = EngineState::kDraining;
  }
  note_router_state("draining");
  // Parallel fan-out: each shard's drain blocks up to `timeout` before
  // escalating, so sequential drains would stack timeouts (N x timeout
  // worst case) — concurrent ones bound tier drain by the slowest shard.
  const std::size_t n = im.engines_.size();
  std::vector<Status> shard_status(n);
  std::vector<std::thread> waiters;
  waiters.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    waiters.emplace_back([&im, &shard_status, s, timeout] {
      shard_status[s] = im.engines_[s].drain(timeout);
    });
  }
  for (std::thread& t : waiters) t.join();
  {
    core::MutexLock lock(im.mu_);
    im.state_ = EngineState::kDrained;
  }
  note_router_state("drained");
  for (std::size_t s = 0; s < n; ++s) {
    if (!shard_status[s].is_ok()) {
      return Status{shard_status[s].code(),
                    "shard " + std::to_string(s) + ": " + shard_status[s].message()};
    }
  }
  return {};
}

void ShardRouter::shutdown() {
  for (Engine& e : impl_->engines_) e.shutdown();
}

RouterStats ShardRouter::stats() const {
  const Impl& im = *impl_;
  RouterStats s;
  s.routed = im.routed.value();
  s.rejected = im.rejected.value();
  {
    core::MutexLock lock(im.mu_);
    s.state = im.state_;
  }
  s.shards.resize(im.engines_.size());
  for (std::size_t i = 0; i < im.engines_.size(); ++i) {
    s.shards[i].queue_depth = im.engines_[i].queue_depth();
    // Ordering contract: relaxed — see outstanding_ declaration.
    s.shards[i].outstanding = static_cast<std::size_t>(
        im.outstanding_[i].load(std::memory_order_relaxed));
    s.shards[i].state = im.engines_[i].state();
  }
  return s;
}

EngineState ShardRouter::state() const {
  core::MutexLock lock(impl_->mu_);
  return impl_->state_;
}

int ShardRouter::shards() const noexcept { return impl_->cfg.shards; }

Engine& ShardRouter::shard(int i) { return impl_->engines_[static_cast<std::size_t>(i)]; }

std::shared_ptr<const graph::BinaryNetwork> ShardRouter::network() const {
  return impl_->engines_.front().network();
}

graph::TensorDesc ShardRouter::input_desc() const {
  return impl_->engines_.front().input_desc();
}

std::int64_t ShardRouter::output_size() const {
  return impl_->engines_.front().output_size();
}

std::string plan_varz_text(const ShardRouter& router) {
  const std::shared_ptr<const graph::BinaryNetwork> net = router.network();
  if (net == nullptr) return {};
  std::string out;
  for (const auto& l : net->layers()) {
    if (l.kind != graph::LayerKind::kConv && l.kind != graph::LayerKind::kFc) continue;
    out += "layer." + l.name + ".plan isa=" + std::string(simd::isa_name(l.isa)) +
           " tile=" + std::to_string(l.tile) + "\n";
  }
  return out;
}

std::string profile_varz_text(const ShardRouter& router) {
  const std::shared_ptr<const graph::BinaryNetwork> net = router.network();
  if (net == nullptr) return {};
  std::string out;
  char buf[192];
  for (const auto& r : net->profile_report().rows) {
    if (r.calls == 0) continue;  // never profiled: nothing to attribute
    std::snprintf(buf, sizeof buf,
                  "layer.%s.perf gops=%.1f roof_gops=%.1f ait=%.1f ipc=%.2f "
                  "llc_mpki=%.2f source=%s\n",
                  r.name.c_str(), r.gops, r.roof_gops, r.ait, r.ipc, r.llc_mpki,
                  r.perf_source.c_str());
    out += buf;
  }
  return out;
}

}  // namespace bitflow::serve
