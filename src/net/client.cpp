#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace bitflow::net {

using core::ErrorCode;
using core::Status;

namespace {

core::Result<int> connect_fd(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status{ErrorCode::kInternal, std::string("socket: ") + std::strerror(errno)};
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status{ErrorCode::kBadInput, "invalid host " + host};
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    const Status st{ErrorCode::kUnavailable, "connect " + host + ":" +
                                                 std::to_string(port) + ": " +
                                                 std::strerror(errno)};
    ::close(fd);
    return st;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

Status send_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t rc = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status{ErrorCode::kUnavailable,
                    std::string("send: ") + std::strerror(errno)};
    }
    off += static_cast<std::size_t>(rc);
  }
  return {};
}

}  // namespace

Client::Client(int fd) : fd_(fd) {}
Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), reader_(std::move(other.reader_)) {}
Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    reader_ = std::move(other.reader_);
  }
  return *this;
}
Client::~Client() { close(); }

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

core::Result<Client> Client::connect(const std::string& host, std::uint16_t port) {
  core::Result<int> fd = connect_fd(host, port);
  if (!fd.is_ok()) return fd.status();
  return Client(fd.value());
}

core::Status Client::send(const RequestFrame& req) {
  if (fd_ < 0) return Status{ErrorCode::kUnavailable, "send: client is closed"};
  std::vector<std::uint8_t> bytes;
  bytes.reserve(kHeaderSize + 12 + req.data.size() * 4);
  append_request(bytes, req);
  return send_all(fd_, bytes.data(), bytes.size());
}

core::Result<DecodedFrame> Client::recv(std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Status{ErrorCode::kUnavailable, "recv: client is closed"};
  const auto give_up = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (std::optional<DecodedFrame> f = reader_.next()) return std::move(*f);
    const auto now = std::chrono::steady_clock::now();
    if (now >= give_up) {
      return Status{ErrorCode::kDeadlineExceeded, "recv: timed out"};
    }
    pollfd pfd{fd_, POLLIN, 0};
    const auto wait_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                             give_up - now).count();
    const int rc = ::poll(&pfd, 1, static_cast<int>(wait_ms) + 1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status{ErrorCode::kInternal, std::string("poll: ") + std::strerror(errno)};
    }
    if (rc == 0) continue;  // timeout re-checked above
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof buf);
    if (n == 0) {
      return Status{ErrorCode::kUnavailable, "recv: connection closed by server"};
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status{ErrorCode::kUnavailable,
                    std::string("recv: ") + std::strerror(errno)};
    }
    if (Status st = reader_.feed(buf, static_cast<std::size_t>(n)); !st.is_ok()) {
      return st;  // fail closed: the stream is poisoned
    }
  }
}

core::Result<std::vector<float>> Client::infer(const RequestFrame& req,
                                               std::chrono::milliseconds timeout) {
  if (Status st = send(req); !st.is_ok()) return st;
  core::Result<DecodedFrame> f = recv(timeout);
  if (!f.is_ok()) return f.status();
  if (auto* resp = std::get_if<ResponseFrame>(&f.value())) {
    if (resp->id != req.id) {
      return Status{ErrorCode::kInternal,
                    "response id " + std::to_string(resp->id) +
                        " does not echo request id " + std::to_string(req.id)};
    }
    return std::move(resp->scores);
  }
  if (auto* err = std::get_if<ErrorFrame>(&f.value())) {
    return Status{err->code, err->message};
  }
  return Status{ErrorCode::kBadInput, "infer: unexpected frame type from server"};
}

core::Result<std::string> Client::http_get(const std::string& host, std::uint16_t port,
                                           const std::string& target) {
  core::Result<int> fd = connect_fd(host, port);
  if (!fd.is_ok()) return fd.status();
  const std::string req = "GET " + target + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  if (Status st = send_all(fd.value(),
                           reinterpret_cast<const std::uint8_t*>(req.data()),
                           req.size());
      !st.is_ok()) {
    ::close(fd.value());
    return st;
  }
  std::string raw;
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::read(fd.value(), buf, sizeof buf);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd.value());
      return Status{ErrorCode::kUnavailable,
                    std::string("read: ") + std::strerror(errno)};
    }
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd.value());
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.substr(0, 9) != "HTTP/1.1 ") {
    return Status{ErrorCode::kBadInput, "http_get: malformed response"};
  }
  if (raw.substr(9, 3) != "200") {
    return Status{ErrorCode::kUnavailable,
                  "http_get " + target + ": HTTP " + raw.substr(9, 3)};
  }
  return raw.substr(head_end + 4);
}

}  // namespace bitflow::net
