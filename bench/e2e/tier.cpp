#include "tier.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/server.hpp"
#include "serve/shard_router.hpp"

namespace bench_e2e {

using namespace bitflow;

Tier Tier::start(const io::Model& model, int nproc, bool profile) {
  serve::RouterConfig cfg;
  Tier tier;
  tier.threads_per_worker_ = std::max(1, nproc / cfg.shards);
  cfg.engine.net.num_threads = tier.threads_per_worker_;
  cfg.engine.net.profile = profile;
  // When the host stalls the whole process, the open-loop sender catches
  // up on its schedule in one burst: a ~75 ms stall at 2000 req/s
  // overflows two shards' default 64-request queues, and a 200 ms one
  // refused 656 requests.  A stall should show as latency, so the queues
  // take a few seconds of traffic; the queue allocates nothing up front.
  cfg.engine.queue_capacity = 8192;
  auto router = serve::ShardRouter::create(model, cfg);
  if (!router.is_ok()) {
    throw std::runtime_error("router create: " + router.status().to_string());
  }
  tier.router_ = std::make_unique<serve::ShardRouter>(std::move(router.value()));
  // All of a workload's traffic shares one connection, so the default
  // per-connection cap of 64 in flight (about 30 ms of the 2000 req/s phase)
  // would turn the same kind of stall into refused requests.
  net::ServerConfig scfg;
  scfg.max_inflight_per_conn = 4096;
  auto server = net::Server::start(*tier.router_, scfg);
  if (!server.is_ok()) {
    throw std::runtime_error("server start: " + server.status().to_string());
  }
  tier.server_ = std::make_unique<net::Server>(std::move(server.value()));
  return tier;
}

Tier::Tier(Tier&&) noexcept = default;
Tier& Tier::operator=(Tier&&) noexcept = default;
Tier::~Tier() = default;

std::uint16_t Tier::port() const { return server_->port(); }

int Tier::shards() const { return router_->shards(); }

void Tier::submit(Tensor input, serve::ResponseCallback done) {
  router_->submit(std::move(input), std::chrono::milliseconds(0), serve::Priority::kNormal,
                  std::move(done));
}

TierCounters Tier::counters() const {
  TierCounters c;
  c.rejected = router_->stats().rejected;
  for (int i = 0; i < router_->shards(); ++i) {
    const serve::EngineStats s = router_->shard(i).stats();
    c.rejected += s.rejected;
    c.shed += s.shed;
    c.expired += s.expired;
    c.completed += s.completed;
    c.failed += s.failed;
    c.batches += s.batches;
  }
  return c;
}

std::shared_ptr<const graph::BinaryNetwork> Tier::network() const { return router_->network(); }

}  // namespace bench_e2e
