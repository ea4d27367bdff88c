// The serving tier under test, behind one adapter: a refactor of serve/ or
// net/ changes tier.cpp and nothing else in the benchmark.
#pragma once

#include <cstdint>
#include <memory>

#include "graph/network.hpp"
#include "io/model.hpp"
#include "serve/request_queue.hpp"
#include "tensor/tensor.hpp"

namespace bitflow::serve {
class ShardRouter;
}
namespace bitflow::net {
class Server;
}

namespace bench_e2e {

/// Cumulative request counters summed over the tier's engines and router.
struct TierCounters {
  std::uint64_t rejected = 0;  ///< router and engine admission refusals
  std::uint64_t shed = 0;      ///< subset of rejected: adaptive shedding
  std::uint64_t expired = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
};

class Tier {
 public:
  /// Builds the router over `model` with RouterConfig{} defaults, except
  /// that each worker's pool gets nproc / shards threads and each engine
  /// queues up to 8192 requests, and starts the wire server on an ephemeral
  /// loopback port with a per-connection in-flight cap of 4096.  `profile`
  /// arms the network's per-layer profile.  Throws std::runtime_error on
  /// failure.
  static Tier start(const bitflow::io::Model& model, int nproc, bool profile);

  Tier(Tier&&) noexcept;
  Tier& operator=(Tier&&) noexcept;
  ~Tier();

  [[nodiscard]] std::uint16_t port() const;
  [[nodiscard]] int shards() const;
  [[nodiscard]] int threads_per_worker() const noexcept { return threads_per_worker_; }
  /// In-process submit through the router's callback path: no deadline,
  /// normal priority, no sockets.
  void submit(bitflow::Tensor input, bitflow::serve::ResponseCallback done);
  [[nodiscard]] TierCounters counters() const;
  /// The served network (its profile_report covers every shard).
  [[nodiscard]] std::shared_ptr<const bitflow::graph::BinaryNetwork> network() const;

 private:
  Tier() = default;
  int threads_per_worker_ = 1;
  std::unique_ptr<bitflow::serve::ShardRouter> router_;
  std::unique_ptr<bitflow::net::Server> server_;  // declared last: stops first
};

}  // namespace bench_e2e
