// Protocol client for renucad / renuca-coord — the library behind
// tools/renuca_client, the fleet worker's coordinator link, and the
// in-process test harness.
//
// One connected stream socket, an internal decode buffer, and optional
// deadlines: with an I/O timeout configured the socket runs non-blocking
// and every send()/receive() is bounded by a poll() deadline (a timeout
// surfaces as an error beginning "timeout"); without one the calls block
// exactly like the original client.  connectAny() adds fleet-grade
// robustness on top: it walks an address list ("unix:/path", a bare
// socket path, or "host:port") with exponential backoff and deterministic
// jitter, so a client survives a coordinator restart or fails over to a
// standby address without the caller writing a retry loop.
//
// Multiplexing many in-flight submissions over one connection works by
// requestId (protocol.hpp); the caller matches replies itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.hpp"

namespace renuca::server {

/// Reconnect discipline for connectAny(): per-attempt connect deadline,
/// extra rounds over the whole address list, and exponential backoff with
/// deterministic jitter between rounds (so a thundering herd of clients
/// spreads out, reproducibly per seed).
struct RetryPolicy {
  int connectTimeoutMs = 5000;  ///< Per-address connect deadline (<=0 = blocking).
  int retries = 3;              ///< Extra rounds after the first pass fails.
  int backoffBaseMs = 100;      ///< Round r sleeps ~ base * 2^r, capped below.
  int backoffMaxMs = 2000;
  std::uint64_t jitterSeed = 1;  ///< Stream for the +/-50% jitter.
};

/// Splits "host:port" at the last ':'.  The host may be empty (each caller
/// picks its own default); the port must be 1-5 digits and <= 65535.  False
/// with `error` set ("bad address ..." / "bad port in ...") otherwise.
bool splitHostPort(const std::string& hostPort, std::string& host,
                   std::uint16_t& port, std::string* error = nullptr);

class Client {
 public:
  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a Unix-domain socket path / a "host:port" TCP address.
  /// False (with `error` filled when given) on failure.  `timeoutMs` > 0
  /// bounds the connect() itself (non-blocking + poll); <= 0 blocks.
  bool connectUnix(const std::string& path, std::string* error = nullptr,
                   int timeoutMs = 0);
  bool connectTcp(const std::string& hostPort, std::string* error = nullptr,
                  int timeoutMs = 0);

  /// Dispatches on the address form: "unix:PATH" or anything containing a
  /// '/' is a Unix-domain path, otherwise "host:port" TCP.
  bool connectAddress(const std::string& addr, std::string* error = nullptr,
                      int timeoutMs = 0);

  /// Tries every address in order, then backs off (exponential + jitter)
  /// and retries the whole list, `policy.retries` extra rounds.  On
  /// success the client is connected to the first address that answered.
  bool connectAny(const std::vector<std::string>& addrs, const RetryPolicy& policy,
                  std::string* error = nullptr);

  /// Splits a comma-separated address list ("a.sock,host:9901").
  static std::vector<std::string> splitAddressList(const std::string& csv);

  /// Takes ownership of an already-connected socket (tests pass one end of
  /// a socketpair()).
  void adoptFd(int fd);
  /// Releases ownership of the connected socket to the caller (the fleet
  /// worker hands the fd to its event loop).  Returns -1 when unconnected.
  int releaseFd();

  bool connected() const { return fd_ >= 0; }
  void close();

  /// Deadline for each subsequent send()/receive(), in ms; 0 restores the
  /// unbounded blocking behaviour.  A deadline that expires fails the call
  /// with an error starting "timeout" — the connection itself stays usable.
  void setIoTimeout(int ms);
  int ioTimeout() const { return ioTimeoutMs_; }

  /// Writes one frame; blocks until it is fully sent (or the deadline hits).
  bool send(const Message& m, std::string* error = nullptr);

  /// Submits a job spec, stamping it with a client-generated job id
  /// ("c<pid>-<seq>", appended as a job_id= line) that the server echoes in
  /// the report's provenance and its lifecycle trace.  Returns the id, or
  /// "" when the send fails (`error` says why).
  std::string submit(const std::string& spec, std::uint64_t requestId,
                     std::string* error = nullptr);

  /// Blocks until the next complete message arrives (or the deadline
  /// hits).  False on EOF, a socket error, a corrupt frame, or a timeout
  /// (`error` says which).
  bool receive(Message& m, std::string* error = nullptr);

 private:
  /// Applies the blocking mode implied by ioTimeoutMs_ to fd_.
  void applyBlockingMode();

  int fd_ = -1;
  int ioTimeoutMs_ = 0;
  std::vector<std::uint8_t> buf_;
};

}  // namespace renuca::server
