#include "server/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <sstream>

#include "common/log.hpp"
#include "server/client.hpp"
#include "server/jobspec.hpp"
#include "sim/report.hpp"
#include "telemetry/prometheus.hpp"

namespace renuca::server {

namespace {

/// Reconnect backoff cap after the coordinator link drops.
constexpr int kReconnectMaxMs = 10000;

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      pool_(std::make_unique<ThreadPool>(sim::resolveJobs(cfg_.jobs))),
      accepted_(metrics_.counter("server/accepted")),
      rejected_(metrics_.counter("server/rejected")),
      protocolErrors_(metrics_.counter("server/protocol_errors")),
      loop_(cfg_, *this, "server", "from a client", protocolErrors_),
      queueDepthHist_(1.0, cfg_.maxQueue + 2),
      latencyHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096),
      queueWaitHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096),
      execHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096),
      startTime_(std::chrono::steady_clock::now()) {
  if (cfg_.workerName.empty()) {
    cfg_.workerName = "w" + std::to_string(static_cast<long>(::getpid()));
  }
  if (!cfg_.traceJsonPath.empty()) {
    jobTracer_ =
        std::make_unique<telemetry::TraceWriter>(cfg_.traceJsonPath, 1);
    if (jobTracer_->ok()) {
      jobTracer_->nameProcess(1, "jobs");
    } else {
      jobTracer_.reset();
    }
  }
  metrics_.gauge("server/inflight",
                 [this] { return static_cast<double>(inflightA_.load()); });
  metrics_.gauge("server/completed",
                 [this] { return static_cast<double>(completedA_.load()); });
  metrics_.gauge("server/failed",
                 [this] { return static_cast<double>(failedA_.load()); });
  metrics_.gauge("server/queue_depth",
                 [this] { return static_cast<double>(queueDepthA_.load()); });
  metrics_.gauge("server/sessions",
                 [this] { return static_cast<double>(loop_.sessionCount()); });
}

void Server::adoptCoordinator(int fd) {
  loop_.adoptConnection(fd, [this](SessionId id) { attachCoordinator(id); });
}

void Server::postOutgoing(SessionId sessionId, Message m) {
  {
    std::lock_guard<std::mutex> lk(outgoingMutex_);
    outgoing_.push_back(Outgoing{sessionId, std::move(m)});
  }
  loop_.wake();
}

void Server::drainOutgoing() {
  std::deque<Outgoing> batch;
  {
    std::lock_guard<std::mutex> lk(outgoingMutex_);
    batch.swap(outgoing_);
  }
  for (Outgoing& o : batch) {
    auto it = inflight_.find(o.sessionId);
    if (it == inflight_.end()) continue;  // Client left; drop its events.
    if (o.msg.op == Op::Report && it->second > 0) --it->second;
    loop_.send(o.sessionId, o.msg);
  }
}

void Server::handleSubmit(SessionId id, const Message& m, bool lease) {
  // A LEASE is a SUBMIT whose job id the coordinator owns: every reply
  // echoes m.jobId (the fleet-global id) so the coordinator can route the
  // result, and rejections carry an ErrCode it can act on (BUSY = try
  // another worker, SIM = the spec itself is bad — don't retry).
  const auto reject = [&](Op op, ErrCode code, std::string why) {
    rejected_.inc();
    loop_.send(id, {.op = op, .requestId = m.requestId, .jobId = lease ? m.jobId : 0,
                    .errorCode = code, .text = std::move(why)});
  };
  if (loop_.draining()) return reject(Op::Busy, ErrCode::Busy, "server is draining");
  sim::Job job;
  std::string err;
  if (!parseJobSpec(m.text, job, err)) return reject(Op::Error, ErrCode::Sim, err);
  std::size_t depth = 0;
  const std::uint64_t jobId = nextJobId_;
  const std::uint64_t wireJobId = lease ? m.jobId : jobId;
  {
    std::lock_guard<std::mutex> lk(queueMutex_);
    if (pending_.size() >= cfg_.maxQueue) {
      return reject(Op::Busy, ErrCode::Busy,
                    "job queue full (" + std::to_string(cfg_.maxQueue) + ")");
    }
    QueuedJob q;
    q.jobId = jobId;
    q.wireJobId = wireJobId;
    q.sessionId = id;
    q.requestId = m.requestId;
    q.submitted = std::chrono::steady_clock::now();
    q.job = std::move(job);
    pending_.push_back(std::move(q));
    depth = pending_.size();
  }
  nextJobId_++;
  queueCv_.notify_one();
  queueDepthA_.store(depth, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(statsMutex_);
    queueDepthHist_.add(static_cast<double>(depth));
  }
  accepted_.inc();
  inflight_[id]++;
  loop_.send(id, {.op = Op::Accepted, .requestId = m.requestId, .jobId = wireJobId});
  loop_.send(id, {.op = Op::Status, .requestId = m.requestId, .jobId = wireJobId,
                  .state = JobState::Queued});
}

bool Server::onMessage(SessionId id, const Message& m) {
  switch (m.op) {
    case Op::Submit:
      handleSubmit(id, m, /*lease=*/false);
      return true;
    case Op::Lease:
      if (id == coordSessionId_) {
        handleSubmit(id, m, /*lease=*/true);
      } else {
        protocolErrors_.inc();
        loop_.send(id, {.op = Op::Error, .requestId = m.requestId, .jobId = m.jobId,
                        .errorCode = ErrCode::Sim,
                        .text = "LEASE on a non-coordinator session"});
      }
      return true;
    case Op::Pong:
      return true;  // Keepalive reply; nothing to do.
    default:
      return false;
  }
}

std::string Server::statsJson() {
  std::ostringstream os;
  os << "{\"server\": ";
  writeRegistryJson(os, metrics_);
  os << ", \"workers\": " << pool_->threadCount();
  {
    std::lock_guard<std::mutex> lk(statsMutex_);
    writeHistogramsJson(os, {{"queue_depth_hist", &queueDepthHist_},
                             {"job_latency_ms", &latencyHist_},
                             {"queue_wait_ms", &queueWaitHist_},
                             {"exec_ms", &execHist_}});
  }
  os << "}\n";
  return os.str();
}

std::string Server::metricsText() {
  std::lock_guard<std::mutex> lk(statsMutex_);
  return telemetry::renderPrometheus(metrics_,
                                     {{"queue_depth", &queueDepthHist_},
                                      {"job_latency_ms", &latencyHist_},
                                      {"queue_wait_ms", &queueWaitHist_},
                                      {"exec_ms", &execHist_}},
                                     "renucad_");
}

void Server::jobSpan(const char* stage, const QueuedJob& q, Cycle start, Cycle end) {
  if (!jobTracer_) return;
  std::lock_guard<std::mutex> lk(jobTracerMutex_);
  jobTracer_->span(stage, "job", /*pid=*/1,
                   static_cast<std::uint32_t>(q.jobId), start, end,
                   {{"job_id", static_cast<std::int64_t>(q.jobId)},
                    {"request_id", static_cast<std::int64_t>(q.requestId)},
                    {"session", static_cast<std::int64_t>(q.sessionId)}});
}

void Server::onClose(SessionId id) {
  if (id == coordSessionId_) {
    coordSessionId_ = 0;  // maintainCoordinatorLink() reconnects.
    logMessage(LogLevel::Warn, "server", "coordinator link lost");
  }
  inflight_.erase(id);
}

bool Server::owesWork(SessionId id) const {
  if (id == coordSessionId_) return true;  // The fleet link never idles out.
  auto it = inflight_.find(id);
  return it != inflight_.end() && it->second > 0;
}

void Server::onTick(std::chrono::steady_clock::time_point now) {
  // Draining: admitted jobs still run; the executor exits once they have.
  if (loop_.draining()) stopExecutor();
  drainOutgoing();
  maintainCoordinatorLink(now);
}

bool Server::drained() {
  // Everything produced; the loop exits once it is also delivered (or
  // undeliverable).
  if (!executorDone_.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lk(outgoingMutex_);
  return outgoing_.empty();
}

void Server::stopExecutor() {
  {
    std::lock_guard<std::mutex> lk(queueMutex_);
    drainRequested_ = true;
  }
  queueCv_.notify_all();
}

std::size_t Server::queueDepthNow() {
  std::lock_guard<std::mutex> lk(queueMutex_);
  return pending_.size();
}

void Server::attachCoordinator(SessionId id) {
  coordSessionId_ = id;
  lastHeartbeat_ = std::chrono::steady_clock::now();
  const std::string threads = std::to_string(pool_->threadCount());
  loop_.send(id, {.op = Op::Register,
                  .text = "name=" + cfg_.workerName + "\nthreads=" + threads +
                          "\ncapacity=" + threads + "\n"});
  logMessage(LogLevel::Info, "server",
             "registering with coordinator as " + cfg_.workerName);
}

void Server::maintainCoordinatorLink(std::chrono::steady_clock::time_point now) {
  // Heartbeats apply to any live coordinator link, including adopted
  // in-process ones; reconnecting needs a dial address.
  if (loop_.draining()) return;
  if (coordSessionId_ != 0) {
    if (loop_.isOpen(coordSessionId_)) {
      if (now - lastHeartbeat_ >= std::chrono::milliseconds(cfg_.heartbeatMs)) {
        lastHeartbeat_ = now;
        double p50 = 0.0;
        {
          std::lock_guard<std::mutex> lk(statsMutex_);
          p50 = queueWaitHist_.percentile(0.50);
        }
        loop_.send(coordSessionId_,
                   {.op = Op::Heartbeat,
                    .text = "queue_depth=" + std::to_string(queueDepthNow()) +
                            "\ninflight=" +
                            std::to_string(inflightA_.load(std::memory_order_relaxed)) +
                            "\nqueue_wait_p50_ms=" + std::to_string(p50) + "\n"});
      }
      return;
    }
    coordSessionId_ = 0;
  }
  if (cfg_.coordinatorAddr.empty()) return;
  if (now < nextCoordAttempt_) return;
  // One pass over the address list per attempt; backoff between attempts
  // happens here in the loop (never a blocking sleep), so live sessions
  // keep being served while the coordinator is down.
  Client c;
  std::string err;
  bool connected = false;
  for (const std::string& addr : Client::splitAddressList(cfg_.coordinatorAddr)) {
    if (c.connectAddress(addr, &err, /*timeoutMs=*/1000)) {
      connected = true;
      break;
    }
  }
  if (!connected) {
    coordBackoffMs_ = coordBackoffMs_ == 0
                          ? 500
                          : std::min(coordBackoffMs_ * 2, kReconnectMaxMs);
    nextCoordAttempt_ = now + std::chrono::milliseconds(coordBackoffMs_);
    logMessage(LogLevel::Warn, "server",
               "coordinator unreachable (" + err + "); next attempt in " +
                   std::to_string(coordBackoffMs_) + " ms");
    return;
  }
  coordBackoffMs_ = 0;
  attachCoordinator(loop_.addSession(c.releaseFd()));
}

void Server::executorLoop() {
  for (;;) {
    std::vector<QueuedJob> batch;
    {
      std::unique_lock<std::mutex> lk(queueMutex_);
      queueCv_.wait(lk, [&] { return drainRequested_ || !pending_.empty(); });
      if (pending_.empty()) break;  // Drain requested and nothing left.
      batch.insert(batch.end(), std::make_move_iterator(pending_.begin()),
                   std::make_move_iterator(pending_.end()));
      pending_.clear();
    }
    queueDepthA_.store(0, std::memory_order_relaxed);
    inflightA_.fetch_add(batch.size(), std::memory_order_relaxed);

    const auto usOf = [this](std::chrono::steady_clock::time_point tp) {
      return static_cast<Cycle>(
          std::chrono::duration_cast<std::chrono::microseconds>(tp - startTime_)
              .count());
    };

    sim::SweepPlan plan;
    for (QueuedJob& q : batch) {
      q.admitted = std::chrono::steady_clock::now();
      jobSpan("queued", q, usOf(q.submitted), usOf(q.admitted));
      postOutgoing(q.sessionId, {.op = Op::Status, .requestId = q.requestId,
                                 .jobId = q.wireJobId, .state = JobState::Running});
      plan.add(q.job);
    }

    sim::SweepOptions opts;
    opts.pool = pool_.get();
    opts.warmStartDir = cfg_.snapshotDir;
    opts.onJobStart = [this, &batch, usOf](std::size_t i) {
      QueuedJob& q = batch[i];
      q.execStart = std::chrono::steady_clock::now();
      jobSpan("admitted", q, usOf(q.admitted), usOf(q.execStart));
      {
        std::lock_guard<std::mutex> lk(statsMutex_);
        queueWaitHist_.add(
            std::chrono::duration<double>(q.execStart - q.submitted).count() *
            1000.0);
      }
    };
    opts.onJobDone = [this, &batch, usOf](std::size_t i, const sim::RunResult& r) {
      const QueuedJob& q = batch[i];
      const auto done = std::chrono::steady_clock::now();
      const double wallSec =
          std::chrono::duration<double>(done - q.submitted).count();
      jobSpan("executing", q, usOf(q.execStart), usOf(done));
      if (jobTracer_) {
        std::lock_guard<std::mutex> lk(jobTracerMutex_);
        jobTracer_->instant("completed", "job", /*pid=*/1,
                            static_cast<std::uint32_t>(q.jobId), usOf(done),
                            {{"failed", r.error.empty() ? 0 : 1}});
      }
      {
        std::lock_guard<std::mutex> lk(statsMutex_);
        latencyHist_.add(wallSec * 1000.0);
        execHist_.add(
            std::chrono::duration<double>(done - q.execStart).count() * 1000.0);
      }
      const bool ok = r.error.empty();
      (ok ? completedA_ : failedA_).fetch_add(1, std::memory_order_relaxed);
      const ErrCode ec =
          ok ? ErrCode::None : (r.errorCode == "io" ? ErrCode::Io : ErrCode::Sim);

      const JobState state = ok ? JobState::Done : JobState::Failed;
      postOutgoing(q.sessionId, {.op = Op::Status, .requestId = q.requestId,
                                 .jobId = q.wireJobId, .state = state,
                                 .errorCode = ec, .text = ok ? "" : r.error});
      postOutgoing(q.sessionId,
                   {.op = Op::Report, .requestId = q.requestId, .jobId = q.wireJobId,
                    .state = state, .errorCode = ec,
                    .text = sim::runReportJson("renucad", q.job.config,
                                               {{q.job.label, r}}, wallSec,
                                               pool_->threadCount(), q.job.clientJobId)});
      inflightA_.fetch_sub(1, std::memory_order_relaxed);
    };
    sim::runPlan(plan, opts);
  }
  executorDone_.store(true, std::memory_order_relaxed);
  loop_.wake();
}

int Server::run() {
  executor_ = std::thread(&Server::executorLoop, this);
  loop_.run();
  // The executor may still be waiting on the cv if stop arrived with an
  // empty queue (or poll() failed); this only wakes it.
  stopExecutor();
  executor_.join();
  drainOutgoing();
  loop_.closeAll();
  if (jobTracer_) {
    std::lock_guard<std::mutex> lk(jobTracerMutex_);
    jobTracer_->close();
  }
  logMessage(LogLevel::Info, "server", "drained; exiting");
  return 0;
}

}  // namespace renuca::server
