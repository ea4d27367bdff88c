#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>
#include <list>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/failpoint.hpp"
#include "core/sync.hpp"
#include "core/thread_annotations.hpp"
#include "net/frame.hpp"
#include "net/http.hpp"
#include "serve/error_map.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace bitflow::net {

using core::ErrorCode;
using core::Status;

namespace {

/// Distinguishes the instruments of concurrently live servers in one scrape.
std::string next_server_label() {
  // Ordering contract: relaxed fetch_add — labels only need uniqueness.
  static std::atomic<std::uint64_t> seq{0};
  return "server=\"" + std::to_string(seq.fetch_add(1, std::memory_order_relaxed)) + "\"";
}

Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status{ErrorCode::kInternal,
                  std::string("fcntl(O_NONBLOCK): ") + std::strerror(errno)};
  }
  return {};
}

/// Router/plan/roofline stats WITHOUT the flight-recorder status block —
/// this is also the server's "varz" bundle section, and bundle context
/// providers run under the flight mutex, so they must not call back into
/// the recorder (flight_status_text would self-deadlock).
std::string varz_body(const serve::ShardRouter& router) {
  const serve::RouterStats rs = router.stats();
  std::string out;
  out += "router.state " + std::string(serve::engine_state_name(rs.state)) + "\n";
  out += "router.routed " + std::to_string(rs.routed) + "\n";
  out += "router.rejected " + std::to_string(rs.rejected) + "\n";
  out += "router.shards " + std::to_string(rs.shards.size()) + "\n";
  for (std::size_t i = 0; i < rs.shards.size(); ++i) {
    const std::string p = "shard." + std::to_string(i) + ".";
    out += p + "state " + std::string(serve::engine_state_name(rs.shards[i].state)) + "\n";
    out += p + "queue_depth " + std::to_string(rs.shards[i].queue_depth) + "\n";
    out += p + "outstanding " + std::to_string(rs.shards[i].outstanding) + "\n";
  }
  // The served network's committed per-layer execution plan (ISA and
  // tile width) — rendered by the serve layer so
  // the wire front-end never reaches around the router into graph.
  out += serve::plan_varz_text(router);
  // Roofline attribution per layer (measured IPC / LLC miss rate when
  // perf_event_open ran, calibrated-peak fallback otherwise).
  out += serve::profile_varz_text(router);
  // The trace sink's drop count: how much span evidence the rings lost.
  out += "telemetry.trace.dropped " +
         std::to_string(telemetry::trace_dropped_events()) + "\n";
  return out;
}

/// Plain-text engine/router stats for GET /varz.
std::string varz_text(const serve::ShardRouter& router) {
  // Flight-recorder status (armed state, bundle/event counters) so an
  // operator sees at a glance whether the black box is recording and how
  // much evidence it has lost.
  return varz_body(router) + telemetry::flight_status_text();
}

}  // namespace

/// Cross-thread mailbox of one connection: the ONLY state both the poll
/// thread and engine-worker completion callbacks touch.
struct Outbox {
  core::Mutex mu;
  /// Encoded frames awaiting the poll thread (drained into the write
  /// buffer on the next wake).
  std::deque<std::vector<std::uint8_t>> pending BF_GUARDED_BY(mu);
  /// Requests routed on behalf of this connection, not yet resolved — the
  /// wire-level backpressure count.
  std::size_t inflight BF_GUARDED_BY(mu) = 0;
  /// Set by the poll thread when the connection dies: late completions
  /// drop their frame instead of queueing for a socket that is gone.
  bool dead BF_GUARDED_BY(mu) = false;
};

namespace {

/// Per-connection state, owned exclusively by the poll thread (except the
/// shared Outbox).
struct Conn {
  int fd = -1;
  enum class Mode : std::uint8_t { kUnknown, kBinary, kHttp } mode = Mode::kUnknown;
  FrameReader reader;
  std::vector<std::uint8_t> sniff;  ///< first bytes, until the mode is decided
  std::string http_buf;
  std::vector<std::uint8_t> wbuf;  ///< partially-written output
  std::size_t woff = 0;
  bool read_closed = false;       ///< peer EOF or fail-closed: stop reading
  bool close_after_flush = false; ///< close once wbuf + outbox + inflight drain
  bool closed = false;            ///< fd closed; erase from the list
  std::shared_ptr<Outbox> outbox = std::make_shared<Outbox>();
};

}  // namespace

struct Server::Impl {
  serve::ShardRouter& router;
  ServerConfig cfg;
  int listen_fd = -1;
  int wake_r = -1, wake_w = -1;  ///< self-pipe: completions nudge the poll loop
  std::uint16_t port = 0;
  std::thread poll_thread;
  std::once_flag stop_once;

  // Ordering contract: stopping_ is release-stored by stop() after the wake
  // write and acquire-loaded by the poll loop; acquire/release keeps the
  // flag ordered with the pipe write it announces.
  std::atomic<bool> stopping_{false};

  /// Server-wide in-flight completion count: stop() must not tear the pipe
  /// down while a callback that may still write to it is running.
  /// inflight_zero_ signals the drop to zero.
  core::Mutex inflight_mu_;
  std::size_t inflight_ BF_GUARDED_BY(inflight_mu_) = 0;
  core::CondVar inflight_zero_;

  std::list<Conn> conns;  ///< poll thread only

  const std::string label = next_server_label();  // before the refs: init order
  telemetry::Counter& conns_accepted;
  telemetry::Counter& conns_dropped;
  telemetry::Counter& rx_bytes;
  telemetry::Counter& tx_bytes;
  telemetry::Counter& frames_requests;
  telemetry::Counter& frames_responses;
  telemetry::Counter& frames_errors;
  telemetry::Counter& decode_errors;
  telemetry::Counter& http_requests;
  telemetry::Gauge& conns_open;

  Impl(serve::ShardRouter& r, ServerConfig c)
      : router(r),
        cfg(c),
        conns_accepted(telemetry::registry().counter("net.connections.accepted", label)),
        conns_dropped(telemetry::registry().counter("net.connections.dropped", label)),
        rx_bytes(telemetry::registry().counter("net.bytes.rx", label)),
        tx_bytes(telemetry::registry().counter("net.bytes.tx", label)),
        frames_requests(telemetry::registry().counter("net.frames.requests", label)),
        frames_responses(telemetry::registry().counter("net.frames.responses", label)),
        frames_errors(telemetry::registry().counter("net.frames.errors", label)),
        decode_errors(telemetry::registry().counter("net.decode.errors", label)),
        http_requests(telemetry::registry().counter("net.http.requests", label)),
        conns_open(telemetry::registry().gauge("net.connections.open", label)) {
    // Bundle context providers: a triggered diagnostic bundle snapshots the
    // tier's /varz block and the served network's profile report next to
    // the trace.  Callbacks run on the triggering thread and only read
    // router state (stats/layers) — they never re-enter the recorder.
    telemetry::flight_add_context(this, "varz", [this] { return varz_body(router); });
    telemetry::flight_add_context(this, "profile", [this] {
      const auto net = router.network();
      return net ? net->profile_report().to_table() : std::string{};
    });
  }

  ~Impl() { telemetry::flight_remove_contexts(this); }

  /// Nudges the poll loop out of poll().  A full pipe means a wake is
  /// already pending — dropping the byte is correct, not lossy.
  void wake() const {
    const std::uint8_t b = 1;
    ssize_t rc;
    do {
      rc = ::write(wake_w, &b, 1);
    } while (rc < 0 && errno == EINTR);
  }

  // --- poll-thread helpers ---------------------------------------------------

  void queue_bytes(Conn& conn, std::vector<std::uint8_t> bytes) {
    if (conn.wbuf.empty()) {
      conn.wbuf = std::move(bytes);
      conn.woff = 0;
    } else {
      conn.wbuf.insert(conn.wbuf.end(), bytes.begin(), bytes.end());
    }
  }

  void queue_error_frame(Conn& conn, std::uint64_t id, ErrorCode code,
                         std::string_view message) {
    std::vector<std::uint8_t> frame;
    append_error(frame, id, code, message);
    frames_errors.add();
    queue_bytes(conn, std::move(frame));
  }

  /// Protocol violation: one Error frame, then fail closed.
  void fail_closed(Conn& conn, const Status& st) {
    decode_errors.add();
    telemetry::trace_instant(st.message().c_str(), "decode_error");
    queue_error_frame(conn, 0, st.code(), st.message());
    conn.read_closed = true;
    conn.close_after_flush = true;
  }

  void close_conn(Conn& conn) {
    if (conn.closed) return;
    {
      core::MutexLock l(conn.outbox->mu);
      conn.outbox->dead = true;
      conn.outbox->pending.clear();
    }
    ::close(conn.fd);
    conn.closed = true;
  }

  void handle_accept() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN or a transient error: re-poll
      }
      // Injected accept fault: the tier refuses the connection the way an
      // exhausted front-end would (the peer sees an immediate close).
      try {
        BF_FAILPOINT("net.accept");
      } catch (const failpoint::FaultInjected&) {
        conns_dropped.add();
        ::close(fd);
        continue;
      }
      if (static_cast<int>(conns.size()) >= cfg.max_connections ||
          !set_nonblocking(fd).is_ok()) {
        conns_dropped.add();
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      Conn& conn = conns.emplace_back();
      conn.fd = fd;
      conns_accepted.add();
    }
    conns_open.set(static_cast<std::int64_t>(conns.size()));
  }

  void handle_request_frame(Conn& conn, RequestFrame&& req) {
    // The wire-side span of this request: frame receipt through routing (an
    // inline rejection resolves inside it).  Carries the frame's request id
    // so the trace joins it to the async serve.request track, the batch
    // membership instant, and the kernel spans under that worker's batch.
    telemetry::TraceSpan span("net.request", "net",
                              static_cast<std::int64_t>(req.data.size()), req.id);
    frames_requests.add();
    {
      core::MutexLock l(conn.outbox->mu);
      if (conn.outbox->inflight >= cfg.max_inflight_per_conn) {
        // Wire-level backpressure, in front of the router's own admission
        // control: answered inline, the router never sees the request.
        telemetry::trace_instant("wire backpressure: per-connection in-flight cap",
                                 "shed", req.id);
        queue_error_frame(conn, req.id, ErrorCode::kResourceExhausted,
                          "connection has " + std::to_string(conn.outbox->inflight) +
                              " requests in flight (limit " +
                              std::to_string(cfg.max_inflight_per_conn) + ")");
        return;
      }
      ++conn.outbox->inflight;
    }
    {
      core::MutexLock l(inflight_mu_);
      ++inflight_;
    }
    Tensor t = Tensor::hwc(req.h, req.w, req.c);
    std::memcpy(t.data(), req.data.data(), req.data.size() * sizeof(float));
    std::shared_ptr<Outbox> ob = conn.outbox;
    const std::uint64_t id = req.id;
    router.submit(
        std::move(t), std::chrono::milliseconds{req.deadline_ms},
        req.priority == 1 ? serve::Priority::kHigh : serve::Priority::kNormal,
        serve::RequestMeta{req.id, req.trace_id},
        [this, ob = std::move(ob), id](core::Result<std::vector<float>>&& outcome) {
          // Runs on whichever thread resolves the request (an engine
          // worker, or the poll thread itself for inline rejections).
          // Encode outside the outbox lock; never touch a socket here.
          std::vector<std::uint8_t> frame;
          if (outcome.is_ok()) {
            append_response(frame, id, outcome.value().data(), outcome.value().size());
            frames_responses.add();
          } else {
            const Status st = outcome.status();
            append_error(frame, id, st.code(), st.message());
            frames_errors.add();
          }
          bool enqueued = false;
          {
            core::MutexLock l(ob->mu);
            if (ob->inflight > 0) --ob->inflight;
            if (!ob->dead) {
              ob->pending.push_back(std::move(frame));
              enqueued = true;
            }
          }
          if (enqueued) wake();
          // Last: stop() waits for this count, and the pipe write above
          // must precede the release of the waiter.
          {
            core::MutexLock l(inflight_mu_);
            if (inflight_ > 0 && --inflight_ == 0) inflight_zero_.notify_all();
          }
        });
  }

  void handle_http(Conn& conn, const HttpRequest& req) {
    http_requests.add();
    std::string resp;
    if (req.method != "GET") {
      resp = http_response(405, "Method Not Allowed", "text/plain", "GET only\n");
    } else if (req.target == "/healthz") {
      const serve::EngineState st = router.state();
      resp = st == serve::EngineState::kServing
                 ? http_response(200, "OK", "text/plain", "ok\n")
                 : http_response(503, "Service Unavailable", "text/plain",
                                 std::string(serve::engine_state_name(st)) + "\n");
    } else if (req.target == "/varz") {
      resp = http_response(200, "OK", "text/plain", varz_text(router));
    } else if (req.target == "/metrics") {
      resp = http_response(200, "OK", "text/plain; version=0.0.4",
                           telemetry::registry().prometheus_text());
    } else {
      resp = http_response(404, "Not Found", "text/plain", "unknown endpoint\n");
    }
    queue_bytes(conn, std::vector<std::uint8_t>(resp.begin(), resp.end()));
    conn.read_closed = true;  // one request per connection
    conn.close_after_flush = true;
  }

  void process_binary(Conn& conn, const std::uint8_t* data, std::size_t n) {
    // Decode error boundary: an injected fault here models a malformed
    // frame and takes the same fail-closed path a real one would.
    try {
      BF_FAILPOINT("net.frame_decode");
    } catch (const failpoint::FaultInjected& e) {
      fail_closed(conn, Status{serve::code_for_failpoint(e.point()), e.what()});
      return;
    }
    if (Status st = conn.reader.feed(data, n); !st.is_ok()) {
      fail_closed(conn, st);
      // Fall through: frames decoded before the violation still serve.
    }
    while (std::optional<DecodedFrame> f = conn.reader.next()) {
      if (auto* req = std::get_if<RequestFrame>(&*f)) {
        handle_request_frame(conn, std::move(*req));
      } else {
        // Clients speak requests; a response/error frame inbound is a
        // protocol violation even though it decodes.
        fail_closed(conn, Status{ErrorCode::kBadInput,
                                 "frame: unexpected non-request frame from client"});
        break;
      }
    }
  }

  void process_input(Conn& conn, const std::uint8_t* data, std::size_t n) {
    if (conn.mode == Conn::Mode::kBinary) {
      process_binary(conn, data, n);
      return;
    }
    if (conn.mode == Conn::Mode::kHttp) {
      conn.http_buf.append(reinterpret_cast<const char*>(data), n);
      dispatch_http(conn);
      return;
    }
    // Mode still unknown: buffer until the first 4 bytes decide (see
    // looks_like_http — both verdicts are reachable by then).
    conn.sniff.insert(conn.sniff.end(), data, data + n);
    const std::string_view sv(reinterpret_cast<const char*>(conn.sniff.data()),
                              conn.sniff.size());
    if (looks_like_http(sv)) {
      conn.mode = Conn::Mode::kHttp;
      conn.http_buf.assign(sv);
      conn.sniff.clear();
      conn.sniff.shrink_to_fit();
      dispatch_http(conn);
      return;
    }
    if (conn.sniff.size() < 4) return;  // undecidable: wait
    std::vector<std::uint8_t> first = std::move(conn.sniff);
    conn.sniff.clear();
    conn.mode = Conn::Mode::kBinary;  // magic is validated by the reader
    process_binary(conn, first.data(), first.size());
  }

  void dispatch_http(Conn& conn) {
    core::Result<std::optional<HttpRequest>> r = parse_http_request(conn.http_buf);
    if (!r.is_ok()) {
      // Malformed HTTP gets an HTTP error, not a binary frame.
      decode_errors.add();
      const std::string resp =
          http_response(400, "Bad Request", "text/plain", r.status().message() + "\n");
      queue_bytes(conn, std::vector<std::uint8_t>(resp.begin(), resp.end()));
      conn.read_closed = true;
      conn.close_after_flush = true;
      return;
    }
    if (r.value().has_value()) handle_http(conn, *r.value());
  }

  void handle_read(Conn& conn) {
    std::uint8_t buf[64 * 1024];
    while (!conn.read_closed && !conn.closed) {
      const ssize_t n = ::read(conn.fd, buf, sizeof buf);
      if (n == 0) {
        // Peer EOF: responses for requests already in flight still go out;
        // the connection dies once everything has flushed.
        conn.read_closed = true;
        conn.close_after_flush = true;
        break;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        close_conn(conn);
        break;
      }
      rx_bytes.add(static_cast<std::uint64_t>(n));
      process_input(conn, buf, static_cast<std::size_t>(n));
    }
  }

  /// Moves completed responses from the outbox into the write buffer, then
  /// writes as much as the kernel will take.
  void flush_conn(Conn& conn) {
    if (conn.closed) return;
    {
      core::MutexLock l(conn.outbox->mu);
      while (!conn.outbox->pending.empty()) {
        queue_bytes(conn, std::move(conn.outbox->pending.front()));
        conn.outbox->pending.pop_front();
      }
    }
    while (conn.woff < conn.wbuf.size()) {
      const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                               conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // re-poll POLLOUT
        close_conn(conn);
        return;
      }
      tx_bytes.add(static_cast<std::uint64_t>(n));
      conn.woff += static_cast<std::size_t>(n);
    }
    conn.wbuf.clear();
    conn.woff = 0;
    if (conn.close_after_flush) {
      bool idle;
      {
        core::MutexLock l(conn.outbox->mu);
        idle = conn.outbox->pending.empty() && conn.outbox->inflight == 0;
      }
      if (idle) close_conn(conn);
    }
  }

  void poll_main() {
    std::vector<pollfd> pfds;
    std::vector<Conn*> pconns;
    // Ordering contract: see stopping_ declaration.
    while (!stopping_.load(std::memory_order_acquire)) {
      // Pick up completions queued since the last pass so POLLOUT interest
      // reflects reality before blocking.
      for (Conn& c : conns) flush_conn(c);
      conns.remove_if([](const Conn& c) { return c.closed; });
      conns_open.set(static_cast<std::int64_t>(conns.size()));

      pfds.clear();
      pconns.clear();
      pfds.push_back({wake_r, POLLIN, 0});
      pfds.push_back({listen_fd, POLLIN, 0});
      for (Conn& c : conns) {
        short ev = 0;
        if (!c.read_closed) ev |= POLLIN;
        if (c.woff < c.wbuf.size()) ev |= POLLOUT;
        if (ev == 0) ev = POLLIN;  // still watch for HUP/ERR
        pfds.push_back({c.fd, ev, 0});
        pconns.push_back(&c);
      }
      int rc;
      do {
        rc = ::poll(pfds.data(), pfds.size(), -1);
      } while (rc < 0 && errno == EINTR);
      if (rc < 0) break;  // unrecoverable poll failure

      if (pfds[0].revents & POLLIN) {
        std::uint8_t drain[256];
        while (::read(wake_r, drain, sizeof drain) > 0) {
        }
      }
      if (pfds[1].revents & POLLIN) handle_accept();
      for (std::size_t i = 0; i < pconns.size(); ++i) {
        Conn& c = *pconns[i];
        const short re = pfds[i + 2].revents;
        if (re & (POLLIN | POLLHUP | POLLERR)) handle_read(c);
        if (!c.closed && (re & POLLOUT)) flush_conn(c);
      }
    }
    // Teardown (still the poll thread, so no lock is needed on conns):
    // every outbox dies before the fds close, so completion callbacks
    // racing this shutdown drop their frames instead of queueing.
    for (Conn& c : conns) close_conn(c);
    conns.clear();
    conns_open.set(0);
  }
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
Server::Server(Server&&) noexcept = default;
Server& Server::operator=(Server&&) noexcept = default;

Server::~Server() {
  if (impl_) stop();
}

std::uint16_t Server::port() const noexcept { return impl_->port; }

core::Result<Server> Server::start(serve::ShardRouter& router, ServerConfig cfg) {
  if (cfg.max_connections < 1) {
    return Status{ErrorCode::kBadInput, "ServerConfig: max_connections must be >= 1"};
  }
  if (cfg.max_inflight_per_conn < 1) {
    return Status{ErrorCode::kBadInput,
                  "ServerConfig: max_inflight_per_conn must be >= 1"};
  }
  auto impl = std::make_unique<Impl>(router, cfg);

  impl->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl->listen_fd < 0) {
    return Status{ErrorCode::kInternal, std::string("socket: ") + std::strerror(errno)};
  }
  const int one = 1;
  ::setsockopt(impl->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg.port);
  if (::inet_pton(AF_INET, cfg.host.c_str(), &addr.sin_addr) != 1) {
    ::close(impl->listen_fd);
    return Status{ErrorCode::kBadInput, "ServerConfig: invalid host " + cfg.host};
  }
  if (::bind(impl->listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(impl->listen_fd, 128) < 0) {
    const Status st{ErrorCode::kUnavailable,
                    "bind/listen " + cfg.host + ":" + std::to_string(cfg.port) + ": " +
                        std::strerror(errno)};
    ::close(impl->listen_fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  if (::getsockname(impl->listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen) < 0) {
    ::close(impl->listen_fd);
    return Status{ErrorCode::kInternal,
                  std::string("getsockname: ") + std::strerror(errno)};
  }
  impl->port = ntohs(bound.sin_port);
  if (Status st = set_nonblocking(impl->listen_fd); !st.is_ok()) {
    ::close(impl->listen_fd);
    return st;
  }

  int pipefd[2];
  if (::pipe(pipefd) < 0) {
    ::close(impl->listen_fd);
    return Status{ErrorCode::kInternal, std::string("pipe: ") + std::strerror(errno)};
  }
  impl->wake_r = pipefd[0];
  impl->wake_w = pipefd[1];
  if (Status st = set_nonblocking(impl->wake_r); !st.is_ok()) {
    ::close(impl->listen_fd);
    ::close(impl->wake_r);
    ::close(impl->wake_w);
    return st;
  }
  // The write end stays blocking-safe too: wake() tolerates a full pipe.
  (void)set_nonblocking(impl->wake_w);

  Impl* ip = impl.get();  // Impl address is stable across Server moves
  impl->poll_thread = std::thread([ip] { ip->poll_main(); });
  return Server(std::move(impl));
}

void Server::stop() {
  Impl& im = *impl_;
  std::call_once(im.stop_once, [&im] {
    // Ordering contract: see stopping_ declaration — the release store
    // precedes the wake that makes the poll loop re-check it.
    im.stopping_.store(true, std::memory_order_release);
    im.wake();
    if (im.poll_thread.joinable()) im.poll_thread.join();
    ::close(im.listen_fd);
    // The poll thread is gone and every outbox is dead, but completion
    // callbacks for requests still inside the router may yet run — and
    // they write to the wake pipe.  Hold the pipe open until the last one
    // has finished, then reclaim the fds.
    {
      core::MutexLock lock(im.inflight_mu_);
      while (im.inflight_ != 0) im.inflight_zero_.wait(lock);
    }
    ::close(im.wake_r);
    ::close(im.wake_w);
  });
}

}  // namespace bitflow::net
