// net::Server loopback integration: real sockets, real codec, real router.
//
// The tier-level guarantees pinned here (run under TSan in CI):
//   * bit-exactness end to end: scores received over the wire equal the
//     direct infer_batch answer for the same input;
//   * mixed-priority deadline traffic from concurrent client threads: every
//     admitted request completes, and the p99 latency of admitted requests
//     stays at or below the request deadline;
//   * observability rides the same port: /healthz, /varz, /metrics (the
//     Prometheus exposition) answer over minimal HTTP/1.1, and the
//     exported state gauges follow a drain;
//   * fail-closed wire handling: malformed bytes and the net.frame_decode
//     failpoint produce ONE machine-readable Error frame, then close;
//   * fault matrix: net.accept and net.frame_decode injections surface the
//     mapped error codes and the tier recovers once disarmed;
//   * wire-level backpressure: per-connection in-flight cap answers with
//     kResourceExhausted without touching the router;
//   * clean shutdown: stop() with requests in flight neither hangs nor
//     races the completion callbacks (TSan is the judge).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "bitpack/packer.hpp"
#include "core/failpoint.hpp"
#include "core/status.hpp"
#include "graph/network.hpp"
#include "io/model.hpp"
#include "models/vgg.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "serve/shard_router.hpp"
#include "telemetry/flight_recorder.hpp"
#include "tensor/util.hpp"
#include "trace_reader.hpp"

namespace bitflow::net {
namespace {

using namespace std::chrono_literals;
using core::ErrorCode;

io::Model make_model() {
  io::Model m(graph::TensorDesc{8, 8, 8});
  FilterBank filters = models::random_filters(16, 3, 3, 8, 21);
  std::vector<float> th(16);
  for (int i = 0; i < 16; ++i) th[static_cast<std::size_t>(i)] = static_cast<float>(i) - 8.0f;
  m.add_conv("c1", bitpack::pack_filters(filters), 1, 1, th);
  m.add_maxpool("p1", kernels::PoolSpec{2, 2, 2});
  const auto w = models::random_fc_weights(4 * 4 * 16, 10, 22);
  m.add_fc("f1", bitpack::pack_transpose_fc_weights(w.data(), 4 * 4 * 16, 10));
  return m;
}

Tensor make_input(std::uint64_t seed) {
  Tensor t = Tensor::hwc(8, 8, 8);
  fill_uniform(t, seed);
  return t;
}

/// The wire image of make_input(seed): the tensor's linear buffer verbatim.
RequestFrame make_request(std::uint64_t id, std::uint64_t seed,
                          std::uint32_t deadline_ms = 0, std::uint8_t priority = 0) {
  const Tensor t = make_input(seed);
  RequestFrame req;
  req.id = id;
  req.priority = priority;
  req.deadline_ms = deadline_ms;
  req.h = 8;
  req.w = 8;
  req.c = 8;
  req.data.assign(t.elements().begin(), t.elements().end());
  return req;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::disarm_all();
    auto r = serve::ShardRouter::create(make_model(), [] {
      serve::RouterConfig cfg;
      cfg.shards = 2;
      cfg.engine.workers = 1;
      cfg.engine.max_batch = 4;
      cfg.engine.net.num_threads = 1;
      cfg.engine.queue_capacity = 256;
      cfg.engine.adaptive_shedding = false;
      return cfg;
    }());
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    router_ = std::make_unique<serve::ShardRouter>(std::move(r.value()));
    auto s = Server::start(*router_);
    ASSERT_TRUE(s.is_ok()) << s.status().to_string();
    server_ = std::make_unique<Server>(std::move(s.value()));
  }

  void TearDown() override {
    // Order matters: the server must stop before the router it references.
    server_.reset();
    router_.reset();
    failpoint::disarm_all();
  }

  std::vector<float> direct_scores(std::uint64_t seed) {
    graph::InferenceContext ctx = router_->network()->make_context(1);
    const Tensor in = make_input(seed);
    const Tensor* batch[] = {&in};
    const auto out = router_->network()->infer_batch(batch, ctx);
    return std::vector<float>(out.begin(), out.end());
  }

  std::unique_ptr<serve::ShardRouter> router_;
  std::unique_ptr<Server> server_;
};

// --- data plane --------------------------------------------------------------

TEST_F(ServerTest, LoopbackScoresAreBitExact) {
  auto c = Client::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(c.is_ok()) << c.status().to_string();
  Client client = std::move(c.value());
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto got = client.infer(make_request(seed + 1, seed), 5000ms);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), direct_scores(seed)) << "seed " << seed;
  }
}

TEST_F(ServerTest, PipelinedRequestsAllComplete) {
  auto c = Client::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(c.is_ok());
  Client client = std::move(c.value());
  constexpr std::uint64_t kN = 24;
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(client.send(make_request(i + 1, i)).is_ok());
  }
  std::vector<bool> seen(kN, false);
  for (std::uint64_t i = 0; i < kN; ++i) {
    auto f = client.recv(5000ms);
    ASSERT_TRUE(f.is_ok()) << f.status().to_string();
    auto* resp = std::get_if<ResponseFrame>(&f.value());
    ASSERT_NE(resp, nullptr);
    ASSERT_GE(resp->id, 1u);
    ASSERT_LE(resp->id, kN);
    EXPECT_FALSE(seen[resp->id - 1]) << "duplicate response id " << resp->id;
    seen[resp->id - 1] = true;
    EXPECT_EQ(resp->scores, direct_scores(resp->id - 1)) << "id " << resp->id;
  }
}

TEST_F(ServerTest, MixedPriorityDeadlineTrafficMeetsSlo) {
  constexpr int kThreads = 3;
  constexpr int kPerThread = 16;
  constexpr std::uint32_t kDeadlineMs = 2000;  // generous: correctness, not perf
  struct Outcome {
    bool ok = false;
    ErrorCode code = ErrorCode::kInternal;
    double latency_ms = 0.0;
  };
  std::vector<std::vector<Outcome>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &results] {
      auto c = Client::connect("127.0.0.1", server_->port());
      if (!c.is_ok()) return;
      Client client = std::move(c.value());
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t seed = static_cast<std::uint64_t>(i % 8);
        const std::uint8_t prio = static_cast<std::uint8_t>((t + i) % 2);
        const auto t0 = std::chrono::steady_clock::now();
        auto got = client.infer(
            make_request(static_cast<std::uint64_t>(t * kPerThread + i + 1), seed,
                         kDeadlineMs, prio),
            5000ms);
        const auto t1 = std::chrono::steady_clock::now();
        Outcome o;
        o.latency_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (got.is_ok()) {
          o.ok = true;
          // Bit-exact through priority lanes and routing alike.
          EXPECT_EQ(got.value(), direct_scores(seed));
        } else {
          o.code = got.status().code();
        }
        results[static_cast<std::size_t>(t)].push_back(o);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<double> admitted_latency;
  for (const auto& per_thread : results) {
    for (const Outcome& o : per_thread) {
      if (o.ok) {
        admitted_latency.push_back(o.latency_ms);
      } else {
        // The only legitimate refusals under deadline traffic.
        EXPECT_TRUE(o.code == ErrorCode::kDeadlineExceeded ||
                    o.code == ErrorCode::kResourceExhausted)
            << core::error_code_name(o.code);
      }
    }
  }
  ASSERT_FALSE(admitted_latency.empty());
  // The tier was sized for this load: nearly everything should be admitted.
  EXPECT_GE(admitted_latency.size(),
            static_cast<std::size_t>(kThreads * kPerThread * 3 / 4));
  std::sort(admitted_latency.begin(), admitted_latency.end());
  const double p99 =
      admitted_latency[(admitted_latency.size() * 99) / 100 == admitted_latency.size()
                           ? admitted_latency.size() - 1
                           : (admitted_latency.size() * 99) / 100];
  EXPECT_LE(p99, static_cast<double>(kDeadlineMs)) << "p99 of admitted requests";
}

// --- observability over the same port ---------------------------------------

TEST_F(ServerTest, HttpEndpointsServeHealthVarzAndMetrics) {
  auto health = Client::http_get("127.0.0.1", server_->port(), "/healthz");
  ASSERT_TRUE(health.is_ok()) << health.status().to_string();
  EXPECT_EQ(health.value(), "ok\n");

  auto varz = Client::http_get("127.0.0.1", server_->port(), "/varz");
  ASSERT_TRUE(varz.is_ok());
  EXPECT_NE(varz.value().find("router.state serving"), std::string::npos) << varz.value();
  EXPECT_NE(varz.value().find("router.shards 2"), std::string::npos);
  EXPECT_NE(varz.value().find("shard.1.queue_depth"), std::string::npos);
  // Per-layer execution plan of the served network: the default plan of
  // c1 (K = 16) and f1 (K = 10, one padded tile), one line each.
  for (const char* name : {"c1", "f1"}) {
    const graph::KernelPlan plan = graph::default_kernel_plan(simd::cpu_features());
    const std::string line = std::string("layer.") + name + ".plan isa=" +
                             std::string(simd::isa_name(plan.isa)) +
                             " tile=" + std::to_string(kernels::weight_tile_width(plan.isa)) +
                             "\n";
    EXPECT_NE(varz.value().find(line), std::string::npos) << line << varz.value();
  }

  // One request over the wire so the counters are visibly nonzero.
  {
    auto c = Client::connect("127.0.0.1", server_->port());
    ASSERT_TRUE(c.is_ok());
    Client client = std::move(c.value());
    ASSERT_TRUE(client.infer(make_request(1, 0), 5000ms).is_ok());
  }
  auto metrics = Client::http_get("127.0.0.1", server_->port(), "/metrics");
  ASSERT_TRUE(metrics.is_ok());
  const std::string& body = metrics.value();
  // The per-shard gauges and the server's own counters ride the PR 5
  // exposition (dots sanitize to underscores).
  EXPECT_NE(body.find("serve_shard_queue_depth"), std::string::npos);
  EXPECT_NE(body.find("serve_shard_in_flight"), std::string::npos);
  EXPECT_NE(body.find("shard=\"1\""), std::string::npos);
  EXPECT_NE(body.find("net_connections_accepted"), std::string::npos);
  EXPECT_NE(body.find("net_frames_requests"), std::string::npos);
  EXPECT_NE(body.find("net_bytes_rx"), std::string::npos);
}

TEST_F(ServerTest, HttpRejectsUnknownTargetsAndNonGet) {
  EXPECT_FALSE(Client::http_get("127.0.0.1", server_->port(), "/nope").is_ok());
}

/// The values of every series of one family in a Prometheus exposition.
std::vector<double> series_values(const std::string& body, const std::string& family) {
  std::vector<double> values;
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind(family + "{", 0) == 0) values.push_back(std::stod(line.substr(line.rfind(' '))));
  }
  return values;
}

TEST_F(ServerTest, HealthzReportsUnhealthyOnceDraining) {
  // The state gauges export EngineState's numbers: the router and each of
  // its shards (the only engines alive) read 1 while serving, 4 once drained.
  const auto expect_state_gauges = [this](double want) {
    auto metrics = Client::http_get("127.0.0.1", server_->port(), "/metrics");
    ASSERT_TRUE(metrics.is_ok()) << metrics.status().to_string();
    EXPECT_EQ(series_values(metrics.value(), "serve_router_state"), std::vector<double>{want});
    EXPECT_EQ(series_values(metrics.value(), "serve_state"),
              std::vector<double>(static_cast<std::size_t>(router_->shards()), want));
  };
  expect_state_gauges(1);
  ASSERT_TRUE(router_->drain(1000ms).is_ok());
  expect_state_gauges(4);
  auto health = Client::http_get("127.0.0.1", server_->port(), "/healthz");
  EXPECT_FALSE(health.is_ok());  // 503: the tier refuses new work
  // The data plane agrees with the health check.
  auto c = Client::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(c.is_ok());
  Client client = std::move(c.value());
  auto got = client.infer(make_request(1, 0), 5000ms);
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), ErrorCode::kUnavailable);
}

// --- fail-closed wire handling ----------------------------------------------

/// Raw loopback socket for bytes no well-behaved client would send.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  void send_bytes(const std::vector<std::uint8_t>& bytes) const {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return;
      off += static_cast<std::size_t>(n);
    }
  }
  /// Reads until the server closes, returning everything it sent.
  [[nodiscard]] std::vector<std::uint8_t> recv_until_close() const {
    std::vector<std::uint8_t> out;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof buf);
      if (n <= 0) break;
      out.insert(out.end(), buf, buf + n);
    }
    return out;
  }

 private:
  int fd_ = -1;
};

TEST_F(ServerTest, MalformedBytesGetOneErrorFrameThenClose) {
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.ok());
  // Not HTTP, not the magic: the binary path must fail closed on the header.
  raw.send_bytes(std::vector<std::uint8_t>(64, 0xEE));
  const std::vector<std::uint8_t> reply = raw.recv_until_close();
  FrameReader reader;
  ASSERT_TRUE(reader.feed(reply.data(), reply.size()).is_ok());
  auto f = reader.next();
  ASSERT_TRUE(f.has_value());
  auto* err = std::get_if<ErrorFrame>(&*f);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->id, 0u);  // the offending frame's id is untrusted
  EXPECT_EQ(err->code, ErrorCode::kBadInput);
  EXPECT_FALSE(reader.next().has_value()) << "exactly one error frame";
}

TEST_F(ServerTest, InboundResponseFrameIsAProtocolViolation) {
  RawConn raw(server_->port());
  ASSERT_TRUE(raw.ok());
  std::vector<std::uint8_t> bytes;
  const float score = 1.0f;
  append_response(bytes, 7, &score, 1);  // valid frame, wrong direction
  raw.send_bytes(bytes);
  const std::vector<std::uint8_t> reply = raw.recv_until_close();
  FrameReader reader;
  ASSERT_TRUE(reader.feed(reply.data(), reply.size()).is_ok());
  auto f = reader.next();
  ASSERT_TRUE(f.has_value());
  auto* err = std::get_if<ErrorFrame>(&*f);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, ErrorCode::kBadInput);
}

// --- fault matrix: net.accept, net.frame_decode ------------------------------

TEST_F(ServerTest, AcceptFaultDropsTheConnectionAndRecovers) {
  failpoint::Config once;
  once.trigger = failpoint::Trigger::kOnce;
  failpoint::arm("net.accept", once);
  // The TCP handshake completes against the backlog, then the server drops
  // the connection: the client learns on first use.
  auto c = Client::connect("127.0.0.1", server_->port());
  if (c.is_ok()) {
    Client client = std::move(c.value());
    auto got = client.infer(make_request(1, 0), 5000ms);
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), ErrorCode::kUnavailable);
  }
  // kOnce: the very next connection serves normally.
  auto c2 = Client::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(c2.is_ok());
  Client client2 = std::move(c2.value());
  auto got2 = client2.infer(make_request(2, 1), 5000ms);
  ASSERT_TRUE(got2.is_ok()) << got2.status().to_string();
  EXPECT_EQ(got2.value(), direct_scores(1));
}

TEST_F(ServerTest, DecodeFaultFailsClosedWithMappedCodeAndRecovers) {
  failpoint::Config once;
  once.trigger = failpoint::Trigger::kOnce;
  failpoint::arm("net.frame_decode", once);
  {
    auto c = Client::connect("127.0.0.1", server_->port());
    ASSERT_TRUE(c.is_ok());
    Client client = std::move(c.value());
    auto got = client.infer(make_request(1, 0), 5000ms);
    ASSERT_FALSE(got.is_ok());
    // error_map: net.frame_decode -> kBadInput (the fail-closed contract).
    EXPECT_EQ(got.status().code(), ErrorCode::kBadInput);
    // The connection is gone after the error frame.
    auto next = client.recv(1000ms);
    ASSERT_FALSE(next.is_ok());
    EXPECT_EQ(next.status().code(), ErrorCode::kUnavailable);
  }
  auto c2 = Client::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(c2.is_ok());
  Client client2 = std::move(c2.value());
  auto got2 = client2.infer(make_request(2, 1), 5000ms);
  ASSERT_TRUE(got2.is_ok()) << got2.status().to_string();
}

// --- backpressure and shutdown ----------------------------------------------

TEST_F(ServerTest, PerConnectionInflightCapAnswersResourceExhausted) {
  ServerConfig cfg;
  cfg.max_inflight_per_conn = 1;
  auto s = Server::start(*router_, cfg);
  ASSERT_TRUE(s.is_ok());
  Server tight = std::move(s.value());

  // Park the workers so the first request stays in flight.
  failpoint::Config stall;
  stall.action = failpoint::Action::kStall;
  stall.trigger = failpoint::Trigger::kAlways;
  stall.stall_ms = 50;
  failpoint::arm("runtime.worker_stall", stall);

  auto c = Client::connect("127.0.0.1", tight.port());
  ASSERT_TRUE(c.is_ok());
  Client client = std::move(c.value());
  ASSERT_TRUE(client.send(make_request(1, 0)).is_ok());
  ASSERT_TRUE(client.send(make_request(2, 1)).is_ok());

  bool saw_response = false, saw_exhausted = false;
  for (int i = 0; i < 2; ++i) {
    auto f = client.recv(5000ms);
    ASSERT_TRUE(f.is_ok()) << f.status().to_string();
    if (auto* resp = std::get_if<ResponseFrame>(&f.value())) {
      EXPECT_EQ(resp->id, 1u);
      saw_response = true;
    } else if (auto* err = std::get_if<ErrorFrame>(&f.value())) {
      EXPECT_EQ(err->id, 2u);  // the cap names the rejected request
      EXPECT_EQ(err->code, ErrorCode::kResourceExhausted);
      saw_exhausted = true;
    }
  }
  EXPECT_TRUE(saw_response);
  EXPECT_TRUE(saw_exhausted);
  failpoint::disarm_all();
  tight.stop();
}

TEST_F(ServerTest, StopWithRequestsInFlightIsCleanAndIdempotent) {
  failpoint::Config stall;
  stall.action = failpoint::Action::kStall;
  stall.trigger = failpoint::Trigger::kAlways;
  stall.stall_ms = 20;
  failpoint::arm("runtime.worker_stall", stall);

  auto c = Client::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(c.is_ok());
  Client client = std::move(c.value());
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.send(make_request(i + 1, i)).is_ok());
  }
  // Stop mid-flight: joins the poll thread and waits for every completion
  // callback (TSan would flag a pipe-write/close race here).
  server_->stop();
  server_->stop();  // idempotent
  failpoint::disarm_all();

  // The client sees the close, not a hang.
  for (;;) {
    auto f = client.recv(5000ms);
    if (!f.is_ok()) {
      EXPECT_EQ(f.status().code(), ErrorCode::kUnavailable);
      break;
    }
  }
  // The router is untouched by the front-end's death.
  EXPECT_TRUE(router_->infer(make_input(0)).is_ok());
}

// --- flight recorder ---------------------------------------------------------

/// The PR's acceptance scenario end to end: a failpoint-induced SLO breach
/// over real loopback sockets produces EXACTLY ONE rate-limited diagnostic
/// bundle whose trace joins the offending traffic's wire-to-kernel span
/// chain by request id.
TEST_F(ServerTest, InducedSloBreachWritesOneBundleWithRequestChain) {
  namespace fs = std::filesystem;
  const fs::path flight_dir =
      fs::temp_directory_path() / ("bitflow_server_flight_" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(flight_dir, ec);

  telemetry::FlightRecorderConfig cfg;
  cfg.dir = flight_dir.string();
  cfg.breach_threshold = 3;
  cfg.rate_window = 1'000'000;                              // error-rate detector off
  cfg.min_bundle_interval = std::chrono::milliseconds(3'600'000);  // once per hour
  cfg.max_bundles = 8;
  telemetry::flight_start(cfg);
  struct Disarm {
    fs::path dir;
    ~Disarm() {
      telemetry::flight_stop();
      std::error_code ec2;
      fs::remove_all(dir, ec2);
    }
  } disarm{flight_dir};

  auto c = Client::connect("127.0.0.1", server_->port());
  ASSERT_TRUE(c.is_ok());
  Client client = std::move(c.value());

  // Phase 1 — healthy traffic while the recorder passively traces.  Request
  // 0x51 carries a client trace id through the wire extension; its spans are
  // the chain the bundle must contain.
  constexpr std::uint64_t kChainRid = 0x51;
  {
    RequestFrame req = make_request(kChainRid, 3, /*deadline_ms=*/5000);
    req.trace_id = 0xABCDEF0102030405ull;
    auto got = client.infer(req, 5000ms);
    ASSERT_TRUE(got.is_ok()) << got.status().to_string();
    EXPECT_EQ(got.value(), direct_scores(3));
  }

  // Phase 2 — induce the breach: every inference stalls 30 ms against a 5 ms
  // deadline, so each request completes past its contract (a deadline breach
  // observed by the detector), until the threshold of 3 trips a bundle.
  failpoint::Config stall;
  stall.action = failpoint::Action::kStall;
  stall.trigger = failpoint::Trigger::kAlways;
  stall.stall_ms = 30;
  failpoint::arm("serve.infer", stall);
  constexpr std::uint64_t kBreachers = 6;
  for (std::uint64_t i = 0; i < kBreachers; ++i) {
    ASSERT_TRUE(client.send(make_request(0x100 + i, i, /*deadline_ms=*/5)).is_ok());
  }
  int breached = 0;
  for (std::uint64_t i = 0; i < kBreachers; ++i) {
    auto f = client.recv(5000ms);
    ASSERT_TRUE(f.is_ok()) << f.status().to_string();
    if (auto* err = std::get_if<ErrorFrame>(&f.value())) {
      EXPECT_EQ(err->code, ErrorCode::kDeadlineExceeded);
      ++breached;
    }
  }
  failpoint::disarm_all();
  ASSERT_GE(breached, 3) << "stall failpoint failed to induce the SLO breach";

  // Exactly one bundle despite every breach past the 3rd re-pressuring the
  // trigger: the rate limit held.
  EXPECT_EQ(telemetry::flight_bundles_written(), 1u);
  std::vector<fs::path> bundles;
  for (const auto& e : fs::directory_iterator(flight_dir, ec)) {
    if (e.is_directory()) bundles.push_back(e.path());
  }
  ASSERT_EQ(bundles.size(), 1u);

  // The bundle is valid and joins request 0x51's wire-to-kernel chain.
  auto loaded = telemetry::load_bundle(bundles[0].string());
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  const telemetry::Bundle bundle = std::move(loaded).value();
  ASSERT_EQ(telemetry::validate_bundle(bundle).to_string(), "kOk");
  EXPECT_EQ(bundle.manifest.trigger, "slo_breach");
  EXPECT_TRUE(telemetry::bundle_has_request_chain(bundle, kChainRid))
      << telemetry::bundle_summary(bundle);
  // The server registered /varz and profile-report context sections.
  EXPECT_EQ(bundle.sections.count("varz.txt"), 1u);
  EXPECT_EQ(bundle.sections.count("profile.txt"), 1u);
  // The breaches are rid-joined "deadline" instants in the same trace, and
  // every one of them belongs to a breaching request.
  auto events = telemetry::parse_bundle_trace(bundle);
  ASSERT_TRUE(events.is_ok());
  std::size_t deadline_instants = 0;
  for (const telemetry::ParsedTraceEvent& ev : events.value()) {
    if (ev.ph != 'i' || ev.cat != "deadline") continue;
    ++deadline_instants;
    EXPECT_GE(ev.rid, 0x100u) << ev.name;
    EXPECT_LT(ev.rid, 0x100u + kBreachers) << ev.name;
  }
  EXPECT_GE(deadline_instants, 1u) << telemetry::bundle_summary(bundle);
}

/// /varz carries the flight recorder's status block and the trace drop
/// counter (satellite: telemetry.trace.dropped is first-class).
TEST_F(ServerTest, VarzExposesFlightStatusAndTraceDropCounter) {
  auto body = Client::http_get("127.0.0.1", server_->port(), "/varz");
  ASSERT_TRUE(body.is_ok()) << body.status().to_string();
  EXPECT_NE(body.value().find("flight.armed"), std::string::npos);
  EXPECT_NE(body.value().find("telemetry.trace.dropped "), std::string::npos);
}

}  // namespace
}  // namespace bitflow::net
