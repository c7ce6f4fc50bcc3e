#include "server/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/rng.hpp"

namespace renuca::server {

namespace {

void setError(std::string* error, const std::string& what) {
  if (error) *error = what;
}

bool setBlocking(int fd, bool blocking) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  const int want = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  return flags == want || fcntl(fd, F_SETFL, want) == 0;
}

/// Milliseconds left until `deadline`, floored at 0; -1 for "no deadline".
int remainingMs(std::chrono::steady_clock::time_point deadline, bool bounded) {
  if (!bounded) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

/// Completes a (possibly in-progress) connect on a socket.  With
/// timeoutMs > 0 the socket is non-blocking and the connect is bounded;
/// otherwise plain blocking connect.  Leaves the socket blocking.
bool finishConnect(int fd, const sockaddr* addr, socklen_t len, int timeoutMs,
                   std::string& error) {
  if (timeoutMs <= 0) {
    if (::connect(fd, addr, len) != 0) {
      error = std::strerror(errno);
      return false;
    }
    return true;
  }
  if (!setBlocking(fd, false)) {
    error = std::string("fcntl: ") + std::strerror(errno);
    return false;
  }
  if (::connect(fd, addr, len) != 0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      error = std::strerror(errno);
      return false;
    }
    pollfd p{fd, POLLOUT, 0};
    const int n = ::poll(&p, 1, timeoutMs);
    if (n == 0) {
      error = "timeout after " + std::to_string(timeoutMs) + " ms";
      return false;
    }
    if (n < 0) {
      error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    int soErr = 0;
    socklen_t soLen = sizeof(soErr);
    if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &soErr, &soLen) != 0 || soErr != 0) {
      error = std::strerror(soErr != 0 ? soErr : errno);
      return false;
    }
  }
  setBlocking(fd, true);
  return true;
}

}  // namespace

bool splitHostPort(const std::string& hostPort, std::string& host,
                   std::uint16_t& port, std::string* error) {
  const std::size_t colon = hostPort.rfind(':');
  if (colon == std::string::npos) {
    setError(error, "bad address '" + hostPort + "' (want host:port)");
    return false;
  }
  const char* first = hostPort.data() + colon + 1;
  const char* last = hostPort.data() + hostPort.size();
  unsigned p = 0;
  const auto [end, ec] = std::from_chars(first, last, p);
  if (first == last || ec != std::errc() || end != last || p > 65535) {
    setError(error, "bad port in '" + hostPort + "'");
    return false;
  }
  host = hostPort.substr(0, colon);
  port = static_cast<std::uint16_t>(p);
  return true;
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      ioTimeoutMs_(other.ioTimeoutMs_),
      buf_(std::move(other.buf_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    ioTimeoutMs_ = other.ioTimeoutMs_;
    buf_ = std::move(other.buf_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

void Client::adoptFd(int fd) {
  close();
  fd_ = fd;
  applyBlockingMode();
}

int Client::releaseFd() {
  buf_.clear();
  if (fd_ >= 0) setBlocking(fd_, true);
  return std::exchange(fd_, -1);
}

void Client::setIoTimeout(int ms) {
  ioTimeoutMs_ = ms > 0 ? ms : 0;
  applyBlockingMode();
}

void Client::applyBlockingMode() {
  if (fd_ >= 0) setBlocking(fd_, ioTimeoutMs_ <= 0);
}

bool Client::connectUnix(const std::string& path, std::string* error,
                         int timeoutMs) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    setError(error, "socket path too long: " + path);
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    setError(error, std::string("socket: ") + std::strerror(errno));
    return false;
  }
  std::string err;
  if (!finishConnect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr),
                     timeoutMs, err)) {
    setError(error, path + ": " + err);
    close();
    return false;
  }
  applyBlockingMode();
  return true;
}

bool Client::connectTcp(const std::string& hostPort, std::string* error,
                        int timeoutMs) {
  close();
  std::string host;
  std::uint16_t port = 0;
  if (!splitHostPort(hostPort, host, port, error)) return false;
  if (host.empty()) host = "127.0.0.1";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    setError(error, "bad host '" + host + "'");
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    setError(error, std::string("socket: ") + std::strerror(errno));
    return false;
  }
  std::string err;
  if (!finishConnect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr),
                     timeoutMs, err)) {
    setError(error, hostPort + ": " + err);
    close();
    return false;
  }
  applyBlockingMode();
  return true;
}

bool Client::connectAddress(const std::string& addr, std::string* error,
                            int timeoutMs) {
  if (addr.rfind("unix:", 0) == 0)
    return connectUnix(addr.substr(5), error, timeoutMs);
  if (addr.find('/') != std::string::npos)
    return connectUnix(addr, error, timeoutMs);
  return connectTcp(addr, error, timeoutMs);
}

bool Client::connectAny(const std::vector<std::string>& addrs,
                        const RetryPolicy& policy, std::string* error) {
  if (addrs.empty()) {
    setError(error, "no addresses to connect to");
    return false;
  }
  Pcg32 rng(policy.jitterSeed, /*stream=*/0x636f6e6e);
  std::string last;
  for (int round = 0; round <= policy.retries; ++round) {
    if (round > 0) {
      // base * 2^(round-1), capped, then jittered to 50..150%.
      std::int64_t backoff = policy.backoffBaseMs;
      for (int r = 1; r < round; ++r) backoff *= 2;
      if (backoff > policy.backoffMaxMs) backoff = policy.backoffMaxMs;
      if (backoff > 0) {
        backoff = backoff / 2 + static_cast<std::int64_t>(
                                    rng.nextBelow(static_cast<std::uint32_t>(backoff) + 1));
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
    }
    for (const std::string& addr : addrs) {
      if (connectAddress(addr, &last, policy.connectTimeoutMs)) return true;
    }
  }
  setError(error, "all addresses failed after " +
                      std::to_string(policy.retries + 1) + " round(s); last: " + last);
  return false;
}

std::vector<std::string> Client::splitAddressList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

bool Client::send(const Message& m, std::string* error) {
  if (fd_ < 0) {
    setError(error, "not connected");
    return false;
  }
  const std::vector<std::uint8_t> frame = encodeFrame(m);
  const bool bounded = ioTimeoutMs_ > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ioTimeoutMs_);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && bounded) {
      const int left = remainingMs(deadline, bounded);
      if (left == 0) {
        setError(error, "timeout sending frame after " +
                            std::to_string(ioTimeoutMs_) + " ms");
        return false;
      }
      pollfd p{fd_, POLLOUT, 0};
      if (::poll(&p, 1, left) < 0 && errno != EINTR) {
        setError(error, std::string("poll: ") + std::strerror(errno));
        return false;
      }
      continue;
    }
    setError(error, std::string("send: ") + std::strerror(errno));
    return false;
  }
  return true;
}

std::string Client::submit(const std::string& spec, std::uint64_t requestId,
                           std::string* error) {
  static std::atomic<std::uint64_t> seq{0};
  const std::string id = "c" + std::to_string(static_cast<long>(::getpid())) +
                         "-" + std::to_string(seq.fetch_add(1) + 1);
  Message m;
  m.op = Op::Submit;
  m.requestId = requestId;
  m.text = spec;
  if (!m.text.empty() && m.text.back() != '\n') m.text += '\n';
  m.text += "job_id=" + id + "\n";
  if (!send(m, error)) return std::string();
  return id;
}

bool Client::receive(Message& m, std::string* error) {
  if (fd_ < 0) {
    setError(error, "not connected");
    return false;
  }
  const bool bounded = ioTimeoutMs_ > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ioTimeoutMs_);
  for (;;) {
    std::string err;
    switch (decodeFrame(buf_, kDefaultMaxFrameBytes, m, err)) {
      case DecodeStatus::Frame:
        return true;
      case DecodeStatus::BadPayload:
      case DecodeStatus::Fatal:
        setError(error, err);
        return false;
      case DecodeStatus::NeedMore:
        break;
    }
    std::uint8_t tmp[65536];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n > 0) {
      buf_.insert(buf_.end(), tmp, tmp + n);
      continue;
    }
    if (n == 0) {
      setError(error, "connection closed by server");
      return false;
    }
    if (errno == EINTR) continue;
    if ((errno == EAGAIN || errno == EWOULDBLOCK) && bounded) {
      const int left = remainingMs(deadline, bounded);
      if (left == 0) {
        setError(error, "timeout waiting for a frame after " +
                            std::to_string(ioTimeoutMs_) + " ms");
        return false;
      }
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, left) < 0 && errno != EINTR) {
        setError(error, std::string("poll: ") + std::strerror(errno));
        return false;
      }
      continue;
    }
    setError(error, std::string("recv: ") + std::strerror(errno));
    return false;
  }
}

}  // namespace renuca::server
