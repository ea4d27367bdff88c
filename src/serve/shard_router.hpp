// serve::ShardRouter — N serve::Engine shards behind one routing front.
//
//   submit() ── pick 2 random shards, route to the shallower ──► Engine 0
//                 (power-of-two-choices over per-shard                │
//                  outstanding-request counters)          ──► Engine 1
//                                                          ──► ...
//
// Why shards instead of one big engine: each Engine serializes admission
// through one queue and one lifecycle mutex, from which its workers pop
// their batches.  Sharding multiplies those serialization points and — when
// the engines run a batching window (EngineConfig::batch_timeout, zero by
// default) — lets one shard's fill-wait overlap another shard's compute, so
// the tier's sustained QPS scales past a single queue's even on few cores.
//
// Zero-copy weight sharing: every shard serves the SAME immutable finalized
// graph::BinaryNetwork through a shared_ptr — N shards cost N inference
// contexts (activation buffers), not N copies of the packed weights.  Like
// an engine, the router serves the network it was created with until
// shutdown.
//
// Routing policy: power of two choices.  Each request probes two distinct
// uniformly-random shards and joins the one with fewer outstanding
// (admitted-but-unresolved) requests — the classic balls-in-bins result
// bounds the expected max/min depth gap exponentially better than plain
// random placement, with no shared hot counter like round-robin's.
//
// Lifecycle: the router reuses the engine's state vocabulary
// (EngineState).  drain() fans out Engine::drain on parallel threads —
// shards drain concurrently, so tier drain latency is the slowest shard,
// not the sum.  The router gates admission itself in Draining/Drained;
// whichever gate (router or shard) loses the race with a concurrent drain
// rejects with the same kUnavailable contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/status.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"
#include "serve/engine.hpp"
#include "serve/request_queue.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::serve {

/// Configuration of a sharded serving tier.
struct RouterConfig {
  /// Number of engine shards; each runs `engine.workers` worker threads.
  int shards = 2;
  /// Per-shard engine configuration (applied identically to every shard).
  EngineConfig engine{};
};

/// Per-shard snapshot inside RouterStats.
struct RouterShardStats {
  std::size_t queue_depth = 0;   ///< requests queued in the shard's lanes
  std::size_t outstanding = 0;   ///< routed to the shard, not yet resolved
  EngineState state = EngineState::kStarting;
};

/// Router-level counter snapshot.  Like EngineStats this is a compatibility
/// view over registry instruments (`serve.router.*{router=}` and
/// `serve.shard.*{router=,shard=}`).
struct RouterStats {
  EngineState state = EngineState::kStarting;  ///< router lifecycle state
  std::uint64_t routed = 0;    ///< requests handed to a shard
  std::uint64_t rejected = 0;  ///< refused at the router's lifecycle gate
  std::vector<RouterShardStats> shards;
};

/// N-shard serving tier over one shared immutable network.  Movable,
/// non-copyable; thread-safe like Engine (any thread may submit/drain/
/// shutdown concurrently).
class ShardRouter {
 public:
  /// Builds the network once (instantiate + finalize) and shares it across
  /// `cfg.shards` engines.  Validation mirrors Engine::create.
  [[nodiscard]] static core::Result<ShardRouter> create(const io::Model& model,
                                                        RouterConfig cfg = {});

  /// Shares an already-finalized network across the shards (zero-copy: the
  /// caller's pointer IS the served network).
  [[nodiscard]] static core::Result<ShardRouter> create(
      std::shared_ptr<const graph::BinaryNetwork> net, RouterConfig cfg = {});

  ShardRouter(ShardRouter&&) noexcept;
  ShardRouter& operator=(ShardRouter&&) noexcept;
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;
  ~ShardRouter();  ///< drains nothing extra: shuts every shard down (joins)

  /// Future-form submit: routes to a shard and resolves exactly once with
  /// the same error contract as Engine::submit.
  [[nodiscard]] std::future<core::Result<std::vector<float>>> submit(
      Tensor input, std::chrono::milliseconds deadline, Priority priority);

  /// Callback-form submit (the wire front-end's path): `done` is invoked
  /// exactly once, on whichever thread resolves the request — inline on the
  /// calling thread for routing/admission rejections.  Same contract as
  /// Engine's callback submit: non-empty, must not throw, must not re-enter
  /// the tier.
  void submit(Tensor input, std::chrono::milliseconds deadline, Priority priority,
              ResponseCallback done);

  /// Wire-path submit carrying the request's observability identity
  /// (RequestMeta) down to the shard engine — see Engine's RequestMeta
  /// overload.  Routing decisions never consult the meta.
  void submit(Tensor input, std::chrono::milliseconds deadline, Priority priority,
              RequestMeta meta, ResponseCallback done);

  /// Blocking convenience: submit + wait (no deadline, normal priority).
  [[nodiscard]] core::Result<std::vector<float>> infer(Tensor input);

  /// Fans Engine::drain(timeout) out to every shard on parallel threads and
  /// waits for all of them; every admitted request resolves (completed
  /// within the timeout, or cancelled/expired past it).  The router ends in
  /// kDrained regardless; the returned status is the first shard failure.
  [[nodiscard]] core::Status drain(std::chrono::milliseconds timeout);

  /// Stops every shard: closes queues, resolves all admitted requests,
  /// joins all workers.  Idempotent.
  void shutdown();

  [[nodiscard]] RouterStats stats() const;
  [[nodiscard]] EngineState state() const;
  [[nodiscard]] int shards() const noexcept;
  /// Direct shard access for tests and diagnostics.  REQUIRES: 0 <= i <
  /// shards().
  [[nodiscard]] Engine& shard(int i);
  /// The served network, the one every shard shares.
  [[nodiscard]] std::shared_ptr<const graph::BinaryNetwork> network() const;
  [[nodiscard]] graph::TensorDesc input_desc() const;
  [[nodiscard]] std::int64_t output_size() const;

 private:
  struct Impl;
  explicit ShardRouter(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// One "/varz" line per weight layer of the served network, exposing the
/// committed execution plan:
///   layer.<name>.plan isa=<isa> tile=<T>
/// tile is the register-tile width T (graph::default_kernel_plan).
/// Lives here, not in net/, so the wire front-end reads the plan through the
/// router instead of reaching into graph.
[[nodiscard]] std::string plan_varz_text(const ShardRouter& router);

/// One "/varz" line per profiled layer of the served network, exposing
/// the roofline attribution next to the plan:
///   layer.<name>.perf gops=<G> roof_gops=<R> ait=<A> ipc=<I> llc_mpki=<M>
///   source=<measured|calibrated>
/// `source` is "measured" when hardware counters (perf_event_open) backed
/// the row, "calibrated" when only the calibrated roof applies.
/// Empty until a profiled inference has run.
[[nodiscard]] std::string profile_varz_text(const ShardRouter& router);

}  // namespace bitflow::serve
