#include "server/session_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.hpp"
#include "server/client.hpp"

namespace renuca::server {

namespace {

/// Upper bound on one poll() wait; also the cadence of the daemons' timers
/// (heartbeats, lease expiry, coordinator reconnects).
constexpr int kPollMs = 100;

bool setNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string errnoString() { return std::strerror(errno); }

/// A non-blocking listening stream socket bound to `addr`; -1 (logged) on
/// failure.
int bindListener(const char* tag, int family, const sockaddr* addr, socklen_t len,
                 const std::string& what) {
  const int fd = ::socket(family, SOCK_STREAM, 0);
  if (fd < 0) {
    logMessage(LogLevel::Error, tag, "socket: " + errnoString());
    return -1;
  }
  const int one = 1;
  if (family == AF_INET) ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, addr, len) != 0 || ::listen(fd, 128) != 0 || !setNonBlocking(fd)) {
    logMessage(LogLevel::Error, tag, "bind/listen " + what + ": " + errnoString());
    ::close(fd);
    return -1;
  }
  logMessage(LogLevel::Info, tag, "listening on " + what);
  return fd;
}

}  // namespace

SessionLoop::SessionLoop(const SessionLoopConfig& cfg, Handler& handler,
                         const char* logTag, const char* opcodeContext,
                         telemetry::Counter protocolErrors)
    : cfg_(cfg),
      handler_(handler),
      logTag_(logTag),
      opcodeContext_(opcodeContext),
      protocolErrors_(protocolErrors) {
  if (pipe(wakePipe_) != 0) {
    logMessage(LogLevel::Error, logTag_, "pipe() failed: " + errnoString());
    wakePipe_[0] = wakePipe_[1] = -1;
  } else {
    setNonBlocking(wakePipe_[0]);
    setNonBlocking(wakePipe_[1]);
  }
}

SessionLoop::~SessionLoop() {
  for (auto& [id, s] : sessions_) ::close(s.fd);
  closeListeners();
  {
    std::lock_guard<std::mutex> lk(adoptMutex_);
    for (auto& [fd, opened] : adopted_) ::close(fd);
  }
  if (wakePipe_[0] >= 0) ::close(wakePipe_[0]);
  if (wakePipe_[1] >= 0) ::close(wakePipe_[1]);
}

bool SessionLoop::listen() {
  if (!cfg_.socketPath.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socketPath.size() >= sizeof(addr.sun_path)) {
      logMessage(LogLevel::Error, logTag_, "socket path too long: " + cfg_.socketPath);
      return false;
    }
    std::memcpy(addr.sun_path, cfg_.socketPath.c_str(), cfg_.socketPath.size() + 1);
    ::unlink(cfg_.socketPath.c_str());
    const int fd = bindListener(logTag_, AF_UNIX, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr), cfg_.socketPath);
    if (fd < 0) return false;
    listenFds_.push_back(fd);
  }
  if (!cfg_.listenHostPort.empty()) {
    std::string host, err;
    std::uint16_t port = 0;
    if (!splitHostPort(cfg_.listenHostPort, host, port, &err)) {
      logMessage(LogLevel::Error, logTag_, "listen: " + err);
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (host.empty() || host == "*") {
      addr.sin_addr.s_addr = htonl(INADDR_ANY);
    } else if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      logMessage(LogLevel::Error, logTag_, "bad listen host '" + host + "'");
      return false;
    }
    const int fd = bindListener(logTag_, AF_INET, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr), cfg_.listenHostPort);
    if (fd < 0) return false;
    listenFds_.push_back(fd);
  }
  if (listenFds_.empty()) {
    logMessage(LogLevel::Error, logTag_, "no listeners configured");
    return false;
  }
  return true;
}

void SessionLoop::adoptConnection(int fd, std::function<void(SessionId)> opened) {
  {
    std::lock_guard<std::mutex> lk(adoptMutex_);
    adopted_.emplace_back(fd, std::move(opened));
  }
  wake();
}

void SessionLoop::requestStop() {
  stopFlag_.store(true, std::memory_order_relaxed);
  wake();  // write() is on the async-signal-safe list.
}

void SessionLoop::wake() {
  if (wakePipe_[1] >= 0) {
    const char b = 'w';
    [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &b, 1);
  }
}

void SessionLoop::drainAdopted() {
  std::vector<std::pair<int, std::function<void(SessionId)>>> batch;
  {
    std::lock_guard<std::mutex> lk(adoptMutex_);
    batch.swap(adopted_);
  }
  for (auto& [fd, opened] : batch) {
    const SessionId id = addSession(fd);
    if (opened) opened(id);
  }
}

SessionLoop::SessionId SessionLoop::addSession(int fd) {
  setNonBlocking(fd);
  Session s;
  s.fd = fd;
  s.lastActive = Clock::now();
  const SessionId id = nextSessionId_++;
  sessions_.emplace(id, std::move(s));
  return id;
}

void SessionLoop::acceptPending(int listenFd) {
  for (;;) {
    const int fd = ::accept(listenFd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or a transient error; poll will retry.
    }
    addSession(fd);
  }
}

void SessionLoop::send(SessionId id, const Message& m) {
  auto it = sessions_.find(id);
  if (it != sessions_.end()) enqueue(id, it->second, m);
}

void SessionLoop::drop(SessionId id) {
  auto it = sessions_.find(id);
  if (it != sessions_.end()) it->second.dead = true;
}

bool SessionLoop::isOpen(SessionId id) const {
  auto it = sessions_.find(id);
  return it != sessions_.end() && !it->second.dead;
}

void SessionLoop::enqueue(SessionId id, Session& s, const Message& m) {
  if (s.dead) return;
  const std::vector<std::uint8_t> frame = encodeFrame(m);
  s.out.insert(s.out.end(), frame.begin(), frame.end());
  if (s.out.size() - s.outOff > cfg_.maxWriteBuffer) {
    logMessage(LogLevel::Warn, logTag_,
               "session " + std::to_string(id) + ": write backlog over " +
                   std::to_string(cfg_.maxWriteBuffer) + " bytes, dropping peer");
    s.dead = true;
  }
}

bool SessionLoop::flush(Session& s) {
  while (s.backlogged()) {
    const ssize_t n =
        ::send(s.fd, s.out.data() + s.outOff, s.out.size() - s.outOff, MSG_NOSIGNAL);
    if (n > 0) {
      s.outOff += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;  // Peer gone.
  }
  if (!s.backlogged()) {
    s.out.clear();
    s.outOff = 0;
  } else if (s.outOff > (1u << 20)) {
    s.out.erase(s.out.begin(), s.out.begin() + static_cast<std::ptrdiff_t>(s.outOff));
    s.outOff = 0;
  }
  return true;
}

bool SessionLoop::read(SessionId id, Session& s) {
  for (;;) {
    std::uint8_t tmp[65536];
    const ssize_t n = ::recv(s.fd, tmp, sizeof(tmp), 0);
    if (n > 0) {
      s.in.insert(s.in.end(), tmp, tmp + n);
      s.lastActive = Clock::now();
      if (static_cast<std::size_t>(n) < sizeof(tmp)) break;
      continue;
    }
    if (n == 0) return false;  // EOF.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return false;
  }
  for (;;) {
    Message m;
    std::string err;
    switch (decodeFrame(s.in, kDefaultMaxFrameBytes, m, err)) {
      case DecodeStatus::NeedMore:
        return true;
      case DecodeStatus::Frame:
        dispatch(id, s, m);
        break;
      case DecodeStatus::BadPayload: {
        // The frame boundary was sound, only the payload is damaged: tell
        // the peer and keep the session — the next frame decodes fine.
        protocolErrors_.inc();
        // requestId is best effort: 0 if the head section died.
        enqueue(id, s, {.op = Op::Error, .requestId = m.requestId, .text = err});
        logMessage(LogLevel::Warn, logTag_, "session " + std::to_string(id) + ": " + err);
        break;
      }
      case DecodeStatus::Fatal:
        protocolErrors_.inc();
        logMessage(LogLevel::Warn, logTag_,
                   "session " + std::to_string(id) + ": " + err + "; closing");
        return false;
    }
    if (s.dead) return true;  // Flagged mid-loop; reaped this round.
  }
}

void SessionLoop::dispatch(SessionId id, Session& s, const Message& m) {
  Message reply;
  reply.requestId = m.requestId;
  switch (m.op) {
    case Op::Ping:
      reply.op = Op::Pong;
      reply.text = m.text;
      break;
    case Op::Stats:
      reply.op = Op::StatsReply;
      reply.text = handler_.statsJson();
      break;
    case Op::Metrics:
      reply.op = Op::MetricsReply;
      reply.text = handler_.metricsText();
      break;
    case Op::Shutdown:
      reply.op = Op::Accepted;
      reply.text = "draining";
      logMessage(LogLevel::Info, logTag_,
                 "shutdown requested by session " + std::to_string(id));
      requestStop();
      break;
    default:
      if (handler_.onMessage(id, m)) return;
      protocolErrors_.inc();
      reply.op = Op::Error;
      reply.text = std::string("unexpected opcode ") + toString(m.op) + " " + opcodeContext_;
      break;
  }
  enqueue(id, s, reply);
}

void SessionLoop::reap() {
  const auto now = Clock::now();
  const auto idleTimeout = std::chrono::milliseconds(cfg_.idleTimeoutMs);
  std::vector<SessionId> toClose;
  for (auto& [id, s] : sessions_) {
    if (!s.dead && cfg_.idleTimeoutMs > 0 && !s.backlogged() &&
        now - s.lastActive > idleTimeout && !handler_.owesWork(id)) {
      logMessage(LogLevel::Info, logTag_, "session " + std::to_string(id) + ": idle timeout");
      s.dead = true;
    }
    // Dead sessions go now, however they got flagged: a peer that stopped
    // reading never raises the POLLOUT that would otherwise notice.
    if (s.dead) toClose.push_back(id);
  }
  for (SessionId id : toClose) {
    auto it = sessions_.find(id);
    flush(it->second);  // Best effort for already-queued replies.
    handler_.onClose(id);
    ::close(it->second.fd);
    sessions_.erase(it);
  }
}

void SessionLoop::closeListeners() {
  for (int fd : listenFds_) ::close(fd);
  listenFds_.clear();
}

void SessionLoop::run() {
  std::vector<pollfd> fds;
  std::vector<SessionId> fdSession;  // Parallel to fds; 0 = not a session.
  for (;;) {
    drainAdopted();
    if (stopFlag_.load(std::memory_order_relaxed) && !draining_) {
      draining_ = true;
      closeListeners();
      logMessage(LogLevel::Info, logTag_, "stop requested: draining");
    }
    handler_.onTick(Clock::now());
    if (draining_ && handler_.drained() &&
        std::all_of(sessions_.begin(), sessions_.end(),
                    [](const auto& e) { return e.second.dead || !e.second.backlogged(); }))
      return;

    fds.clear();
    fdSession.clear();
    if (wakePipe_[0] >= 0) {
      fds.push_back({wakePipe_[0], POLLIN, 0});
      fdSession.push_back(0);
    }
    for (int fd : listenFds_) {
      fds.push_back({fd, POLLIN, 0});
      fdSession.push_back(0);
    }
    for (auto& [id, s] : sessions_) {
      short events = 0;
      // Backpressure: a session with a deep unsent backlog stops being
      // read until its buffer drains — it cannot pump more requests in.
      if (!s.dead && s.out.size() - s.outOff < cfg_.softWriteBuffer) events |= POLLIN;
      if (s.backlogged()) events |= POLLOUT;
      if (events == 0 && !s.dead) events = POLLIN;
      fds.push_back({s.fd, events, 0});
      fdSession.push_back(id);
    }

    const int n = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), kPollMs);
    if (n < 0 && errno != EINTR) {
      logMessage(LogLevel::Error, logTag_, "poll: " + errnoString());
      return;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      if (p.revents == 0) continue;
      if (p.fd == wakePipe_[0]) {
        char buf[256];
        while (::read(wakePipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      if (fdSession[i] == 0) {
        acceptPending(p.fd);
        continue;
      }
      auto it = sessions_.find(fdSession[i]);
      if (it == sessions_.end()) continue;
      Session& s = it->second;
      bool alive = (p.revents & (POLLERR | POLLNVAL)) == 0;
      if (alive && (p.revents & POLLOUT)) alive = flush(s);
      if (alive && (p.revents & (POLLIN | POLLHUP))) alive = read(it->first, s);
      // One more flush so small replies leave without waiting a poll round.
      if (alive && s.backlogged()) alive = flush(s);
      if (!alive) s.dead = true;
    }
    reap();
  }
}

void SessionLoop::closeAll() {
  for (auto& [id, s] : sessions_) {
    flush(s);
    ::close(s.fd);
  }
  sessions_.clear();
  closeListeners();
  if (!cfg_.socketPath.empty()) ::unlink(cfg_.socketPath.c_str());
}

void writeRegistryJson(std::ostream& os, const telemetry::MetricsRegistry& registry) {
  const std::vector<std::string>& names = registry.names();
  const std::vector<double> values = registry.sample();
  os << '{';
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) os << ", ";
    os << '"' << names[i] << "\": " << values[i];
  }
  os << '}';
}

void writeHistogramsJson(
    std::ostream& os,
    std::initializer_list<std::pair<const char*, const Histogram*>> histograms) {
  for (const auto& [name, h] : histograms) {
    os << ", \"" << name << "\": {\"count\": " << h->total()
       << ", \"p50\": " << h->percentile(0.50) << ", \"p90\": " << h->percentile(0.90)
       << ", \"p99\": " << h->percentile(0.99) << "}";
  }
}

}  // namespace renuca::server
