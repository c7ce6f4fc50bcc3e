// SessionLoop: the one single-threaded poll() loop under renucad and
// renuca-coord.  It owns everything that is not daemon policy:
//
//  * listeners (Unix path, optional TCP "host:port"), thread-safe adoption
//    of connected sockets, and a self-pipe so other threads — and signal
//    handlers, via requestStop() — can interrupt poll();
//  * per-session buffers with slow-reader backpressure: past
//    softWriteBuffer unsent bytes a session stops being read, past
//    maxWriteBuffer it is dropped;
//  * frame decode (server/protocol.hpp): a corrupt payload gets an Error
//    reply and the session stays open, implausible framing closes it;
//  * PING, STATS, METRICS, SHUTDOWN and the "unexpected opcode" reply;
//  * idle reaping, closing every session flagged dead in the round it was
//    flagged (wherever the flag came from), and drain-then-flush exit.
//
// The daemon plugs in through Handler and keeps its per-session state
// keyed by SessionId.  Everything except adoptConnection(), wake() and
// requestStop() belongs to the thread inside run().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "server/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace renuca::server {

/// Listener and session settings shared by ServerConfig and
/// CoordinatorConfig.
struct SessionLoopConfig {
  /// Unix-domain listen path; empty = no Unix listener (tests adopt
  /// socketpair ends instead).
  std::string socketPath;
  /// Optional TCP listener, "host:port" ("" or "*" host = any interface).
  std::string listenHostPort;
  /// Sessions with no traffic that owe no work are closed after this long
  /// (<= 0 = never).
  int idleTimeoutMs = 0;
  /// Reading pauses for a session whose unsent backlog passes this...
  std::size_t softWriteBuffer = 1u << 20;
  /// ...and the session is dropped outright past this (a reader this slow
  /// would otherwise grow the buffer without bound).
  std::size_t maxWriteBuffer = 64u << 20;
};

class SessionLoop {
 public:
  using Clock = std::chrono::steady_clock;
  using SessionId = std::uint64_t;

  /// Daemon policy.  Every hook runs on the loop thread.
  class Handler {
   public:
    virtual ~Handler() = default;
    /// A decoded frame whose opcode is not one of the common ones.  False =
    /// not understood: the loop answers "unexpected opcode".
    virtual bool onMessage(SessionId id, const Message& m) = 0;
    /// Once per loop round, before poll().  draining() tells whether a
    /// stop request has been seen.
    virtual void onTick(Clock::time_point now) = 0;
    /// The session is about to be closed and forgotten.
    virtual void onClose(SessionId id) = 0;
    /// True while the session must not be idle-reaped (jobs in flight, a
    /// fleet link).
    virtual bool owesWork(SessionId id) const = 0;
    /// While draining: true once the daemon has produced everything it
    /// will; the loop exits when, in addition, every live session is flushed.
    virtual bool drained() = 0;
    virtual std::string statsJson() = 0;
    virtual std::string metricsText() = 0;
  };

  /// `logTag` prefixes log lines; `opcodeContext` finishes the
  /// "unexpected opcode X ..." reply; `protocolErrors` counts undecodable
  /// frames and unexpected opcodes.
  SessionLoop(const SessionLoopConfig& cfg, Handler& handler, const char* logTag,
              const char* opcodeContext, telemetry::Counter protocolErrors);
  ~SessionLoop();
  SessionLoop(const SessionLoop&) = delete;
  SessionLoop& operator=(const SessionLoop&) = delete;

  /// Binds the configured listeners.  False (with a log line) when a
  /// socket cannot be set up or none is configured.
  bool listen();

  /// Queues an already-connected stream socket; the loop turns it into a
  /// session and then calls `opened` with its id.  Thread-safe.
  void adoptConnection(int fd, std::function<void(SessionId)> opened = {});

  /// Runs rounds until a stop request has drained.  Sessions stay open;
  /// closeAll() ends them.
  void run();

  /// Best-effort flush, then closes every session and listener and removes
  /// the Unix socket path.
  void closeAll();

  /// Begins a graceful drain.  Async-signal-safe (an atomic store and a
  /// pipe write).
  void requestStop();
  /// Interrupts poll() so the next round starts now.  Thread-safe.
  void wake();

  /// Turns a connected socket into a session right away (loop thread).
  SessionId addSession(int fd);
  /// Queues one frame for the session; no-op when it is gone or dead.  A
  /// backlog past maxWriteBuffer flags the session dead.
  void send(SessionId id, const Message& m);
  /// Flags the session dead; it is closed at the end of this round.
  void drop(SessionId id);
  /// The session exists and is not flagged dead.
  bool isOpen(SessionId id) const;

  bool draining() const { return draining_; }
  std::size_t sessionCount() const { return sessions_.size(); }

 private:
  struct Session {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;  ///< Bytes [outOff, end) are unsent.
    std::size_t outOff = 0;
    bool dead = false;  ///< Closed at the end of the round.
    Clock::time_point lastActive;
    bool backlogged() const { return outOff < out.size(); }
  };

  void drainAdopted();
  void acceptPending(int listenFd);
  void enqueue(SessionId id, Session& s, const Message& m);
  bool flush(Session& s);
  bool read(SessionId id, Session& s);
  void dispatch(SessionId id, Session& s, const Message& m);
  void reap();
  void closeListeners();

  SessionLoopConfig cfg_;
  Handler& handler_;
  const char* logTag_;
  const char* opcodeContext_;
  telemetry::Counter protocolErrors_;

  std::vector<int> listenFds_;
  int wakePipe_[2] = {-1, -1};
  std::map<SessionId, Session> sessions_;
  SessionId nextSessionId_ = 1;
  bool draining_ = false;  ///< Loop-thread view of the stop request.
  std::atomic<bool> stopFlag_{false};

  std::mutex adoptMutex_;
  std::vector<std::pair<int, std::function<void(SessionId)>>> adopted_;
};

/// STATS JSON pieces shared by the daemons: the registry as a flat
/// {"name": value, ...} object, and `, "name": {count, p50, p90, p99}` per
/// histogram.
void writeRegistryJson(std::ostream& os, const telemetry::MetricsRegistry& registry);
void writeHistogramsJson(
    std::ostream& os,
    std::initializer_list<std::pair<const char*, const Histogram*>> histograms);

}  // namespace renuca::server
