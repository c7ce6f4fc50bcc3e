#include "server/coordinator.hpp"

#include <sstream>

#include "common/kvconfig.hpp"
#include "common/log.hpp"
#include "server/jobspec.hpp"
#include "telemetry/json.hpp"
#include "telemetry/prometheus.hpp"

namespace renuca::server {

namespace {

/// The synthetic report body for a job the fleet itself failed (attempts
/// exhausted, drain with no workers) — same "error" / "error_code" keys a
/// worker-produced failure report carries.
std::string failReportJson(const std::string& why, ErrCode code) {
  return std::string("{\"error\": \"") + telemetry::jsonEscape(why) +
         "\", \"error_code\": \"" + toString(code) + "\"}\n";
}

double msSince(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count() * 1000.0;
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig cfg)
    : cfg_(std::move(cfg)),
      submitted_(metrics_.counter("coord/submitted")),
      rejected_(metrics_.counter("coord/rejected")),
      protocolErrors_(metrics_.counter("coord/protocol_errors")),
      loop_(cfg_, *this, "coord", "at the coordinator", protocolErrors_),
      leaseWaitHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096),
      latencyHist_(/*bucketWidth=*/25.0, /*numBuckets=*/4096) {
  redispatched_ = metrics_.counter("coord/redispatched");
  duplicatesDiscarded_ = metrics_.counter("coord/duplicates_discarded");
  workersLost_ = metrics_.counter("coord/workers_lost");
  canceled_ = metrics_.counter("coord/canceled");
  // Gauges are sampled only from the loop thread (STATS/METRICS replies),
  // so they may walk the job table directly.
  metrics_.gauge("coord/pending", [this] {
    double n = 0;
    for (const auto& [id, j] : jobs_) n += j.phase == FleetJob::Phase::Pending;
    return n;
  });
  metrics_.gauge("coord/leased", [this] {
    double n = 0;
    for (const auto& [id, j] : jobs_) n += j.phase == FleetJob::Phase::Leased;
    return n;
  });
  metrics_.gauge("coord/completed",
                 [this] { return static_cast<double>(completed_); });
  metrics_.gauge("coord/failed", [this] { return static_cast<double>(failed_); });
  metrics_.gauge("coord/workers_live",
                 [this] { return static_cast<double>(liveWorkers()); });
  metrics_.gauge("coord/sessions",
                 [this] { return static_cast<double>(loop_.sessionCount()); });
}

bool Coordinator::onMessage(SessionId id, const Message& m) {
  switch (m.op) {
    case Op::Submit:
      handleSubmit(id, m);
      return true;
    case Op::Register:
      handleRegister(id, m);
      return true;
    case Op::Heartbeat:
      handleHeartbeat(id, m);
      return true;
    case Op::Accepted:
    case Op::Busy:
    case Op::Error:
    case Op::Status:
    case Op::Report: {
      auto wit = workers_.find(id);
      if (wit != workers_.end()) {
        handleWorkerResult(id, wit->second, m);
        return true;
      }
      protocolErrors_.inc();
      logMessage(LogLevel::Warn, "coord",
                 "session " + std::to_string(id) + ": " + toString(m.op) +
                     " from a non-worker peer");
      return true;
    }
    default:
      return false;
  }
}

void Coordinator::handleSubmit(SessionId id, const Message& m) {
  const auto reject = [&](Op op, ErrCode code, std::string why) {
    rejected_.inc();
    loop_.send(id, {.op = op, .requestId = m.requestId, .errorCode = code,
                    .text = std::move(why)});
  };
  if (loop_.draining()) return reject(Op::Busy, ErrCode::Busy, "coordinator is draining");
  // Validate the spec here so a typo costs one Error frame, not a lease.
  sim::Job job;
  std::string err;
  if (!parseJobSpec(m.text, job, err)) return reject(Op::Error, ErrCode::Sim, err);
  if (pendingQ_.size() >= cfg_.maxQueue) {
    return reject(Op::Busy, ErrCode::Busy,
                  "fleet backlog full (" + std::to_string(cfg_.maxQueue) + ")");
  }
  const std::uint64_t jobId = nextJobId_++;
  FleetJob& j = jobs_[jobId];
  j.id = jobId;
  j.clientSession = id;
  j.clientRequest = m.requestId;
  j.spec = m.text;
  j.submitted = Clock::now();
  pendingQ_.push_back(jobId);
  Submitter& sub = submitters_[id];
  sub.order.push_back(jobId);
  sub.undelivered++;
  submitted_.inc();
  loop_.send(id, {.op = Op::Accepted, .requestId = m.requestId, .jobId = jobId});
  loop_.send(id, {.op = Op::Status, .requestId = m.requestId, .jobId = jobId,
                  .state = JobState::Queued});
}

void Coordinator::handleRegister(SessionId id, const Message& m) {
  // REGISTER and HEARTBEAT bodies are "key=value" lines, like job specs.
  const KvConfig kv = KvConfig::fromString(m.text);
  Worker& w = workers_[id];
  w.name = kv.getOr("name", std::string());
  if (w.name.empty()) w.name = "worker-" + std::to_string(id);
  const double cap = kv.getOr("capacity", 0.0);
  w.capacity = cap >= 1.0 ? static_cast<std::size_t>(cap) : 1;
  w.lastSeen = Clock::now();
  noteWorkerStats(w.name);
  workerLoad_[w.name].live = 1;
  logMessage(LogLevel::Info, "coord",
             "worker " + w.name + " registered (session " + std::to_string(id) +
                 ", capacity " + std::to_string(w.capacity) + ")");
}

void Coordinator::handleHeartbeat(SessionId id, const Message& m) {
  auto wit = workers_.find(id);
  if (wit == workers_.end()) {
    protocolErrors_.inc();
    logMessage(LogLevel::Warn, "coord",
               "session " + std::to_string(id) + ": HEARTBEAT before REGISTER");
    return;
  }
  Worker& w = wit->second;
  const auto now = Clock::now();
  w.lastSeen = now;
  const KvConfig kv = KvConfig::fromString(m.text);
  WorkerLoad& load = workerLoad_[w.name];
  load.queueDepth = kv.getOr("queue_depth", 0.0);
  load.inflight = kv.getOr("inflight", 0.0);
  load.queueWaitP50Ms = kv.getOr("queue_wait_p50_ms", 0.0);
  load.live = 1;
  // A breathing worker renews its leases: expiry exists to catch dead or
  // partitioned holders, not long jobs on a healthy one.
  for (std::uint64_t jobId : w.leases) {
    auto it = jobs_.find(jobId);
    if (it != jobs_.end()) {
      it->second.deadline = now + std::chrono::milliseconds(cfg_.leaseTimeoutMs);
    }
  }
}

void Coordinator::handleWorkerResult(SessionId id, Worker& w, const Message& m) {
  if (m.jobId == 0) return;  // Admission ack for nothing we track.
  auto it = jobs_.find(m.jobId);
  if (it == jobs_.end()) {
    // Already committed and delivered — a zombie's late duplicate.
    if (m.op == Op::Report) duplicatesDiscarded_.inc();
    return;
  }
  FleetJob& job = it->second;
  switch (m.op) {
    case Op::Accepted:
      return;  // The worker admitted the lease; nothing to record.
    case Op::Busy: {
      // Saturation, not failure: refund the attempt, put the job back, and
      // skip this worker for a beat so the next dispatch spreads out.
      if (job.phase == FleetJob::Phase::Leased && job.worker == id) {
        job.attempts = job.attempts > 0 ? job.attempts - 1 : 0;
        w.backoffUntil = Clock::now() + std::chrono::milliseconds(cfg_.busyBackoffMs);
        requeue(job, "worker busy");
      }
      return;
    }
    case Op::Error: {
      // Only the current lease holder's verdict counts; a stale holder's
      // error is superseded by the re-dispatch already in motion.
      if (job.phase != FleetJob::Phase::Leased || job.worker != id) return;
      if (retryable(m.errorCode)) {
        requeue(job, "worker error");
      } else {
        // The worker rejected the spec deterministically (parse failure):
        // any retry would bounce identically.
        failJob(job, m.errorCode == ErrCode::None ? ErrCode::Sim : m.errorCode,
                m.text);
      }
      return;
    }
    case Op::Status: {
      if (job.phase == FleetJob::Phase::Done) return;
      if (m.state == JobState::Running && !job.canceled) {
        Message fwd = m;
        fwd.requestId = job.clientRequest;
        loop_.send(job.clientSession, fwd);
      } else if (m.state == JobState::Done || m.state == JobState::Failed) {
        // Stash the final status; the Report that follows on the same
        // stream commits both in order.
        job.finalStatus = m;
      }
      return;
    }
    case Op::Report: {
      if (job.phase == FleetJob::Phase::Done) {
        duplicatesDiscarded_.inc();
        return;
      }
      if (m.state == JobState::Failed && retryable(m.errorCode) &&
          job.attempts < cfg_.maxAttempts) {
        requeue(job, std::string("retryable failure (" +
                                 std::string(toString(m.errorCode)) + ")")
                         .c_str());
        return;
      }
      Message status = job.finalStatus;
      if (status.op != Op::Status) {  // Worker's Status frame got lost.
        status.op = Op::Status;
        status.jobId = m.jobId;
        status.state = m.state;
        status.errorCode = m.errorCode;
      }
      commit(job, status, m);
      return;
    }
    default:
      return;
  }
}

void Coordinator::dispatch(Clock::time_point now) {
  while (!pendingQ_.empty()) {
    // Least-loaded healthy worker with lease capacity to spare.
    SessionId bestId = 0;
    Worker* best = nullptr;
    for (auto& [sid, w] : workers_) {
      if (w.leases.size() >= w.capacity || w.backoffUntil > now) continue;
      if (!loop_.isOpen(sid)) continue;
      if (!best || w.leases.size() < best->leases.size()) {
        best = &w;
        bestId = sid;
      }
    }
    if (!best) return;
    const std::uint64_t id = pendingQ_.front();
    pendingQ_.pop_front();
    auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.phase != FleetJob::Phase::Pending) {
      continue;  // Canceled or committed while queued; stale entry.
    }
    FleetJob& job = it->second;
    job.phase = FleetJob::Phase::Leased;
    job.worker = bestId;
    job.attempts++;
    job.deadline = now + std::chrono::milliseconds(cfg_.leaseTimeoutMs);
    if (job.firstLease == std::chrono::steady_clock::time_point{}) {
      job.firstLease = now;
      leaseWaitHist_.add(msSince(job.submitted, now));
    }
    best->leases.insert(id);
    loop_.send(bestId, {.op = Op::Lease, .requestId = id, .jobId = id, .text = job.spec});
  }
}

void Coordinator::expireLeases(Clock::time_point now) {
  // Workers silent past the heartbeat window are dead; their sessions get
  // dropped and the close path re-queues their leases.
  for (auto& [sid, w] : workers_) {
    if (loop_.isOpen(sid) &&
        now - w.lastSeen > std::chrono::milliseconds(cfg_.heartbeatTimeoutMs)) {
      logMessage(LogLevel::Warn, "coord",
                 "worker " + w.name + " missed heartbeats; dropping");
      loop_.drop(sid);
    }
  }
  std::vector<std::uint64_t> expired;
  for (auto& [id, j] : jobs_) {
    if (j.phase == FleetJob::Phase::Leased && now > j.deadline) {
      expired.push_back(id);
    }
  }
  for (std::uint64_t id : expired) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    logMessage(LogLevel::Warn, "coord",
               "lease for job " + std::to_string(id) + " expired");
    // Deprioritize the stalled holder so the redispatch prefers a
    // different worker; a lone worker becomes eligible again after the
    // backoff window.
    auto wit = workers_.find(it->second.worker);
    if (wit != workers_.end())
      wit->second.backoffUntil = now + std::chrono::milliseconds(cfg_.busyBackoffMs);
    requeue(it->second, "lease expired");
  }
}

void Coordinator::releaseLease(FleetJob& job) {
  if (job.phase == FleetJob::Phase::Leased) {
    auto wit = workers_.find(job.worker);
    if (wit != workers_.end()) wit->second.leases.erase(job.id);
  }
  job.worker = 0;
}

void Coordinator::requeue(FleetJob& job, const char* why) {
  releaseLease(job);
  job.phase = FleetJob::Phase::Pending;
  if (job.attempts >= cfg_.maxAttempts) {
    failJob(job, ErrCode::WorkerLost,
            "gave up after " + std::to_string(job.attempts) + " attempts (" +
                why + ")");
    return;
  }
  redispatched_.inc();
  pendingQ_.push_back(job.id);
  logMessage(LogLevel::Info, "coord",
             "job " + std::to_string(job.id) + " re-queued (" + why +
                 "), attempt " + std::to_string(job.attempts) + "/" +
                 std::to_string(cfg_.maxAttempts));
}

void Coordinator::failJob(FleetJob& job, ErrCode code, const std::string& why) {
  commit(job,
         {.op = Op::Status, .jobId = job.id, .state = JobState::Failed,
          .errorCode = code, .text = why},
         {.op = Op::Report, .jobId = job.id, .state = JobState::Failed,
          .errorCode = code, .text = failReportJson(why, code)});
}

void Coordinator::commit(FleetJob& job, Message status, Message report) {
  // First result wins; callers already filtered Phase::Done duplicates.
  releaseLease(job);
  job.phase = FleetJob::Phase::Done;
  (report.state == JobState::Failed ? failed_ : completed_)++;
  latencyHist_.add(msSince(job.submitted, Clock::now()));
  if (job.canceled) {
    jobs_.erase(job.id);  // Nobody is waiting; drop the result.
    return;
  }
  status.requestId = job.clientRequest;
  status.jobId = job.id;
  report.requestId = job.clientRequest;
  report.jobId = job.id;
  job.finalStatus = std::move(status);
  job.finalReport = std::move(report);
  deliverReady(job.clientSession);
}

void Coordinator::deliverReady(SessionId clientSessionId) {
  auto sit = submitters_.find(clientSessionId);
  if (sit == submitters_.end()) return;
  Submitter& cs = sit->second;
  // Plan-order streaming: a finished job's report leaves only when every
  // job this client submitted before it has left too.
  while (!cs.order.empty()) {
    auto jit = jobs_.find(cs.order.front());
    if (jit == jobs_.end()) {
      cs.order.pop_front();
      continue;
    }
    FleetJob& j = jit->second;
    if (j.phase != FleetJob::Phase::Done) break;
    loop_.send(clientSessionId, j.finalStatus);
    loop_.send(clientSessionId, j.finalReport);
    if (cs.undelivered > 0) --cs.undelivered;
    cs.order.pop_front();
    jobs_.erase(jit);
  }
}

void Coordinator::onClose(SessionId id) {
  if (auto wit = workers_.find(id); wit != workers_.end()) {
    Worker& w = wit->second;
    workersLost_.inc();
    workerLoad_[w.name].live = 0;
    if (!w.leases.empty()) {
      logMessage(LogLevel::Warn, "coord",
                 "worker " + w.name + " lost with " + std::to_string(w.leases.size()) +
                     " lease(s); re-queueing");
    }
    const std::vector<std::uint64_t> held(w.leases.begin(), w.leases.end());
    for (std::uint64_t jobId : held) {
      auto it = jobs_.find(jobId);
      if (it != jobs_.end()) requeue(it->second, "worker lost");
    }
    workers_.erase(wit);
  }
  if (auto sit = submitters_.find(id); sit != submitters_.end()) {
    // A departed client abandons its undelivered jobs.
    for (std::uint64_t jobId : sit->second.order) {
      auto it = jobs_.find(jobId);
      if (it == jobs_.end()) continue;
      switch (it->second.phase) {
        case FleetJob::Phase::Pending:
          canceled_.inc();
          jobs_.erase(it);  // pendingQ_ entry goes stale; dispatch skips it.
          break;
        case FleetJob::Phase::Leased:
          // The worker finishes anyway; the result is discarded at commit.
          canceled_.inc();
          it->second.canceled = true;
          break;
        case FleetJob::Phase::Done:
          jobs_.erase(it);  // Buffered but never deliverable now.
          break;
      }
    }
    submitters_.erase(sit);
  }
}

bool Coordinator::owesWork(SessionId id) const {
  if (workers_.count(id)) return true;  // Workers never idle out.
  auto it = submitters_.find(id);
  return it != submitters_.end() && it->second.undelivered > 0;
}

std::size_t Coordinator::liveWorkers() const {
  std::size_t n = 0;
  for (const auto& [id, w] : workers_) n += loop_.isOpen(id);
  return n;
}

void Coordinator::noteWorkerStats(const std::string& name) {
  // One gauge set per worker *name*, registered on first sight; the map
  // node is stable, so reconnects under the same name reuse it.
  if (workerLoad_.count(name)) return;
  WorkerLoad& load = workerLoad_[name];
  const std::string base = "coord/worker/" + name + "/";
  metrics_.gauge(base + "live", [&load] { return load.live; });
  metrics_.gauge(base + "queue_depth", [&load] { return load.queueDepth; });
  metrics_.gauge(base + "inflight", [&load] { return load.inflight; });
  metrics_.gauge(base + "queue_wait_p50_ms",
                 [&load] { return load.queueWaitP50Ms; });
}

std::string Coordinator::statsJson() {
  std::ostringstream os;
  os << "{\"coordinator\": ";
  writeRegistryJson(os, metrics_);
  os << ", \"workers\": {";
  bool first = true;
  for (const auto& [name, load] : workerLoad_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << telemetry::jsonEscape(name) << "\": {\"live\": " << load.live
       << ", \"queue_depth\": " << load.queueDepth
       << ", \"inflight\": " << load.inflight
       << ", \"queue_wait_p50_ms\": " << load.queueWaitP50Ms << "}";
  }
  os << "}";
  writeHistogramsJson(os, {{"lease_wait_ms", &leaseWaitHist_},
                           {"job_latency_ms", &latencyHist_}});
  os << "}\n";
  return os.str();
}

std::string Coordinator::metricsText() {
  // Registry names already start with "coord/", so the prefix is just the
  // product family: coord/submitted -> renuca_coord_submitted.
  return telemetry::renderPrometheus(metrics_,
                                     {{"coord/lease_wait_ms", &leaseWaitHist_},
                                      {"coord/job_latency_ms", &latencyHist_}},
                                     "renuca_");
}

void Coordinator::onTick(Clock::time_point now) {
  expireLeases(now);
  dispatch(now);
  if (loop_.draining() && liveWorkers() == 0 && !jobs_.empty()) failStranded();
}

bool Coordinator::drained() { return jobs_.empty(); }

void Coordinator::failStranded() {
  // Nothing left to run the work; fail it rather than hang the drain.
  std::vector<std::uint64_t> ids;
  for (auto& [id, j] : jobs_) {
    if (j.phase != FleetJob::Phase::Done) ids.push_back(id);
  }
  for (std::uint64_t id : ids) {
    auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    releaseLease(it->second);
    it->second.phase = FleetJob::Phase::Pending;
    failJob(it->second, ErrCode::Canceled, "no workers left during drain");
  }
  pendingQ_.clear();
}

int Coordinator::run() {
  loop_.run();
  loop_.closeAll();
  logMessage(LogLevel::Info, "coord", "drained; exiting");
  return 0;
}

}  // namespace renuca::server
