#include "fleet.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/jobspec.hpp"
#include "server/protocol.hpp"
#include "sim/sweep.hpp"
#include "telemetry/json.hpp"

namespace perfbench {

using namespace renuca;

namespace {

constexpr int kWorkers = 2;
/// Fleet start-ups measured for setup_s; the last fleet serves the run.
constexpr int kSetupReps = 20;
/// Consecutive reports a rate is measured over: about two seconds of the
/// closed loop.
constexpr std::size_t kRateJobs = 128;
const char kCoordSock[] = "coord.sock";

/// The perf_baseline job set: apps x criticality thresholds on the
/// single-core rig, prewarm 100k + warm-up 5k + 20k measured instructions
/// (plus the 400k placement refresh every single-core job runs).
const char* const kApps[] = {"mcf",   "GemsFDTD", "lbm",   "milc",
                             "astar", "bwaves",   "bzip2", "leslie3d"};
const int kThresholds[] = {5, 25, 75};

std::vector<std::string> servedSpecs(const Options& o) {
  const std::uint64_t prewarm = o.tiny ? 10000 : 100000;
  const std::uint64_t warmup = o.tiny ? 500 : 5000;
  const std::uint64_t instr = o.tiny ? 2000 : 20000;
  std::vector<std::string> grid;
  for (const char* app : kApps) {
    for (int x : kThresholds) {
      grid.push_back("app=" + std::string(app) + "\nthreshold_pct=" + std::to_string(x) +
                     "\nprewarm=" + std::to_string(prewarm) +
                     "\nwarmup=" + std::to_string(warmup) +
                     "\ninstr_per_core=" + std::to_string(instr) +
                     "\nseed=" + std::to_string(o.seed) + "\nlabel=" + app + "/x" +
                     std::to_string(x) + "\n");
    }
  }
  // The seed also picks where the cycle through the grid starts.
  std::rotate(grid.begin(), grid.begin() + static_cast<long>(o.seed % grid.size()),
              grid.end());
  return grid;
}

sim::Job parseSpec(const std::string& spec) {
  sim::Job job;
  std::string err;
  if (!server::parseJobSpec(spec, job, err)) {
    std::fprintf(stderr, "perfbench: bad job spec: %s\n", err.c_str());
  }
  return job;
}

pid_t spawn(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // A daemon must never outlive the benchmark, however it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);
    ::execv(cargv[0], cargv.data());
    std::fprintf(stderr, "perfbench: execv %s: %s\n", cargv[0], std::strerror(errno));
    _exit(127);
  }
  return pid;
}

bool isSocket(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 && S_ISSOCK(st.st_mode);
}

double number(const telemetry::JsonValue* v) {
  return v != nullptr && v->isNumber() ? v->number : 0.0;
}

/// One request/reply on a fresh connection (STATS, PING).
std::optional<server::Message> ask(const std::string& sock, server::Op op) {
  server::Client c;
  if (!c.connectUnix(sock, nullptr, 2000)) return std::nullopt;
  c.setIoTimeout(5000);
  server::Message m;
  m.op = op;
  m.requestId = 1;
  server::Message reply;
  if (!c.send(m) || !c.receive(reply)) return std::nullopt;
  return reply;
}

std::optional<telemetry::JsonValue> statsOf(const std::string& sock) {
  const std::optional<server::Message> reply = ask(sock, server::Op::Stats);
  if (!reply || reply->op != server::Op::StatsReply) return std::nullopt;
  return telemetry::parseJson(reply->text);
}

/// renuca-coord plus kWorkers renucad workers (one sweep thread each),
/// all in the working directory.  Every worker also listens on its own
/// socket so the benchmark can read its STATS.
class Fleet {
 public:
  explicit Fleet(std::string binDir) : bin_(std::move(binDir)) {}
  ~Fleet() { killAll(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  static std::string workerSock(int i) { return "w" + std::to_string(i) + ".sock"; }

  /// Starts the daemons and returns once every worker has registered.
  bool start(std::string& err) {
    ::unlink(kCoordSock);
    for (int i = 0; i < kWorkers; ++i) ::unlink(workerSock(i).c_str());
    pids_.push_back(spawn({bin_ + "/renuca-coord", std::string("socket=") + kCoordSock,
                           "log_level=error"}));
    if (!waitFor([] { return isSocket(kCoordSock); })) {
      err = "coordinator socket never appeared";
      return false;
    }
    for (int i = 0; i < kWorkers; ++i) {
      pids_.push_back(spawn({bin_ + "/renucad", std::string("coordinator=./") + kCoordSock,
                             "socket=" + workerSock(i), "worker_name=w" + std::to_string(i),
                             "jobs=1", "log_level=error"}));
    }
    const bool ok = waitFor([] {
      for (int i = 0; i < kWorkers; ++i) {
        if (!isSocket(workerSock(i))) return false;
      }
      const std::optional<telemetry::JsonValue> st = statsOf(kCoordSock);
      const telemetry::JsonValue* coord = st ? st->find("coordinator") : nullptr;
      return coord != nullptr && number(coord->find("coord/workers_live")) >= kWorkers;
    });
    if (!ok) err = "workers never registered";
    return ok;
  }

  /// Peak resident memory of the daemons, summed.
  double peakRssMb() const {
    double mb = 0.0;
    for (pid_t p : pids_) mb += perfbench::peakRssMb(static_cast<int>(p));
    return mb;
  }

  /// Graceful stop: SHUTDOWN drains the coordinator, SIGTERM the workers.
  /// True when every daemon exited 0.
  bool stop() {
    if (pids_.empty()) return true;
    ask(kCoordSock, server::Op::Shutdown);
    bool clean = reap(pids_[0]);
    for (std::size_t i = 1; i < pids_.size(); ++i) ::kill(pids_[i], SIGTERM);
    for (std::size_t i = 1; i < pids_.size(); ++i) clean = reap(pids_[i]) && clean;
    pids_.clear();
    return clean;
  }

 private:
  template <typename Pred>
  static bool waitFor(Pred ready) {
    const Clock::time_point t0 = Clock::now();
    while (secondsSince(t0) < 10.0) {
      if (ready()) return true;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    return false;
  }

  static bool reap(pid_t pid) {
    int status = 0;
    // Bounded: a daemon that will not drain within 10 s is killed.
    for (int i = 0; i < 10000; ++i) {
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid) return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      if (r < 0) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return false;
  }

  void killAll() {
    for (pid_t p : pids_) ::kill(p, SIGKILL);
    for (pid_t p : pids_) ::waitpid(p, nullptr, 0);
    pids_.clear();
  }

  std::string bin_;
  std::vector<pid_t> pids_;  ///< [0] is the coordinator.
};

/// One served job as the client saw it.
struct Served {
  std::size_t spec = 0;
  double latencyMs = 0;
  double arrivalSec = 0;  ///< Report arrival, seconds into the loop.
  std::string report;
  bool done = false;
};

struct LoopOut {
  std::vector<Served> served;
  std::uint64_t busy = 0, errors = 0;
  double wallSec = 0;
};

/// Closed loop: `conns` connections, each submitting its next job when the
/// previous job's report arrives, until `seconds` have passed.  Latency is
/// submit -> report arrival, on the client's own clock.
LoopOut closedLoop(const std::vector<std::string>& specs, double seconds, std::size_t conns) {
  LoopOut out;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < conns; ++t) {
    threads.emplace_back([&] {
      std::vector<Served> mine;
      std::uint64_t busy = 0, errors = 0;
      server::Client c;
      std::string err;
      if (!c.connectUnix(kCoordSock, &err, 5000)) {
        std::fprintf(stderr, "perfbench: connect: %s\n", err.c_str());
        ++errors;
      } else {
        c.setIoTimeout(60000);
        std::uint64_t requestId = 0;
        while (secondsSince(t0) < seconds) {
          Served s;
          s.spec = next.fetch_add(1) % specs.size();
          ++requestId;
          const Clock::time_point sent = Clock::now();
          if (c.submit(specs[s.spec], requestId, &err).empty()) {
            ++errors;
            break;
          }
          bool finished = false;
          while (!finished) {
            server::Message m;
            if (!c.receive(m, &err)) {
              ++errors;
              break;
            }
            if (m.op == server::Op::Busy) {
              ++busy;
              finished = true;
            } else if (m.op == server::Op::Error) {
              ++errors;
              finished = true;
            } else if (m.op == server::Op::Report) {
              s.latencyMs = std::chrono::duration<double, std::milli>(Clock::now() - sent)
                                .count();
              s.arrivalSec = secondsSince(t0);
              s.done = m.state == server::JobState::Done;
              s.report = std::move(m.text);
              mine.push_back(std::move(s));
              finished = true;
            }
          }
          if (!finished) break;
        }
      }
      std::lock_guard<std::mutex> lk(mu);
      for (Served& s : mine) out.served.push_back(std::move(s));
      out.busy += busy;
      out.errors += errors;
    });
  }
  for (std::thread& t : threads) t.join();
  out.wallSec = secondsSince(t0);
  return out;
}

std::size_t connections() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// Checks every served report, and returns the simulated instructions each
/// served job executed (0 for a failed one).  Also fills the statistics
/// digest and the sampled served-versus-local comparison.
std::vector<std::uint64_t> checkServed(const Options& o, const std::vector<std::string>& specs,
                                       const LoopOut& loop, Result& res) {
  std::vector<std::uint64_t> instrs;
  std::map<std::size_t, std::string> firstTail;  // spec -> stable report
  bool deterministic = true;
  double ipcSum = 0, minLife = 0;
  for (const Served& s : loop.served) {
    const std::optional<telemetry::JsonValue> doc = telemetry::parseJson(s.report);
    const telemetry::JsonValue* runs = doc ? doc->find("runs") : nullptr;
    const telemetry::JsonValue* run =
        runs != nullptr && runs->isArray() && !runs->array.empty() ? &runs->array[0] : nullptr;
    const bool ok = s.done && run != nullptr && run->find("error") == nullptr;
    res.check(ok, "served job " + std::to_string(s.spec) + " failed");
    std::uint64_t& instr = instrs.emplace_back(0);
    if (run == nullptr) continue;
    const telemetry::JsonValue* cap = run->find("hit_max_cycles");
    res.check(cap != nullptr && cap->isBool() && !cap->boolean,
              "served job " + std::to_string(s.spec) + " hit maxCycles");
    const sim::SystemConfig cfg = parseSpec(specs[s.spec]).config;
    instr += (cfg.prewarmInstrPerCore + cfg.warmupInstrPerCore +
              cfg.placementRefreshInstrPerCore) *
             cfg.numCores;
    if (const telemetry::JsonValue* committed = run->find("core_committed");
        committed != nullptr && committed->isArray()) {
      for (const telemetry::JsonValue& v : committed->array) {
        instr += static_cast<std::uint64_t>(number(&v));
      }
    }
    const std::string tail = stableTail(s.report);
    const auto [it, fresh] = firstTail.emplace(s.spec, tail);
    if (!fresh && it->second != tail) deterministic = false;
    if (fresh) {
      ipcSum += number(run->find("system_ipc"));
      const double life = number(run->find("min_bank_lifetime_years"));
      minLife = firstTail.size() == 1 ? life : std::min(minLife, life);
    }
  }
  res.check(deterministic, "served reports of one job spec differ");
  std::printf("sim.system_ipc %.6f ipc (simulated, mean over job specs)\n",
              firstTail.empty() ? 0.0 : ipcSum / static_cast<double>(firstTail.size()));
  std::printf("sim.min_lifetime_years %.6f years (simulated)\n", minLife);
  std::printf("sim.renuca_gain_pct 0 %% (simulated; no R-NUCA/Re-NUCA pair in this job set)\n");

  // Digest over the distinct job specs served, in grid order.
  std::uint64_t h = fnv1a("served");
  for (const auto& [spec, tail] : firstTail) h = fnv1a(tail, h);
  res.digest = hex(h) + " over " + std::to_string(firstTail.size()) + " job specs";

  // One sampled job, chosen by the seed, run locally through runPlan.
  if (!firstTail.empty()) {
    auto it = firstTail.find(o.seed % specs.size());
    if (it == firstTail.end()) it = firstTail.begin();
    sim::Job job = parseSpec(specs[it->first]);
    const std::string label = job.label;
    const sim::SystemConfig cfg = job.config;
    sim::SweepPlan plan;
    plan.add(std::move(job));
    const std::vector<sim::RunResult> local = sim::runPlan(plan);
    res.check(stableReport(cfg, label, local[0]) == it->second,
              "served report of job " + std::to_string(it->first) +
                  " differs from a local runPlan");
  }
  return instrs;
}

/// Reads the daemons' STATS: the queue-wait / exec / lease-wait split
/// (their histograms have 25 ms buckets) and the BUSY refusals.
void readDaemonStats(RunStats& st) {
  double queueWait = 0, exec = 0, rejects = 0;
  for (int i = 0; i < kWorkers; ++i) {
    const std::optional<telemetry::JsonValue> w = statsOf(Fleet::workerSock(i));
    if (!w) continue;
    if (const telemetry::JsonValue* q = w->find("queue_wait_ms")) {
      queueWait += number(q->find("p50")) / kWorkers;
    }
    if (const telemetry::JsonValue* e = w->find("exec_ms")) exec += number(e->find("p50")) / kWorkers;
    if (const telemetry::JsonValue* s = w->find("server")) {
      rejects += number(s->find("server/rejected"));
    }
  }
  if (const std::optional<telemetry::JsonValue> c = statsOf(kCoordSock)) {
    if (const telemetry::JsonValue* l = c->find("lease_wait_ms")) {
      st.leaseWaitP50Ms = number(l->find("p50"));
    }
    if (const telemetry::JsonValue* s = c->find("coordinator")) {
      rejects += number(s->find("coord/rejected"));
    }
  }
  st.queueWaitP50Ms = queueWait;
  st.execP50Ms = exec;
  st.busyRejects = rejects;

  // Round trip of an idle PING to the coordinator, median of 200.
  server::Client c;
  std::vector<double> rtts;
  if (c.connectUnix(kCoordSock, nullptr, 2000)) {
    c.setIoTimeout(5000);
    for (int i = 0; i < 200; ++i) {
      server::Message m;
      m.op = server::Op::Ping;
      m.requestId = static_cast<std::uint64_t>(i) + 1;
      server::Message reply;
      const Clock::time_point t0 = Clock::now();
      if (!c.send(m) || !c.receive(reply)) break;
      rtts.push_back(secondsSince(t0) * 1e6);
    }
  }
  st.pingRttUs = median(rtts);
}

}  // namespace

void probeFleet(const Options& o, double seconds, Result& res, RunStats& st) {
  Fleet fleet(o.binDir);
  std::string err;
  res.check(fleet.start(err), "fleet start: " + err);
  const std::vector<std::string> specs = servedSpecs(o);
  const LoopOut loop = closedLoop(specs, seconds, connections());
  res.check(loop.busy == 0 && loop.errors == 0, "served jobs refused or lost");
  readDaemonStats(st);
  res.check(fleet.stop(), "fleet did not shut down cleanly");
}

Result runServedFleet(const Options& o) {
  Result res;
  Spans spans(o.trace ? o.workload + ".trace.json" : "");
  const std::vector<std::string> specs = servedSpecs(o);

  if (o.trace) {
    // Per-layer costs of the served jobs run locally: untraced, traced and
    // untraced passes (the overhead compares the traced pass with the mean
    // of the two around it), with fast-forward-only runs in the traced one.
    RunStats st;
    LayerCosts lc;
    std::uint64_t digest = fnv1a("served");
    for (int pass = 0; pass < 3; ++pass) {
      const bool traced = pass == 1;
      Spans off("");
      Spans& sp = traced ? spans : off;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const sim::Job job = parseSpec(specs[i]);
        sim::System sys(job.config, job.mix);
        sim::RunResult r;
        const double sec = sp.time("System::run " + job.label, "sim", 1, [&] { r = sys.run(); });
        if (!traced) {
          st.untracedSec += 0.5 * sec;
          continue;
        }
        st.fullSec += sec;
        checkJob(res, job.label, sys, r);
        digest = fnv1a(stableReport(job.config, job.label, r), digest);
        collectRunStats(st, sys, r);
        const std::uint64_t all = executedInstructions(job.config, r, false, true);
        sim::SystemConfig ffCfg = job.config;
        ffCfg.warmupInstrPerCore = 0;
        ffCfg.instrPerCore = 0;
        sim::System ff(ffCfg, job.mix);
        st.ffSec += spans.time("System::run fast-forward only " + job.label, "sim", 1,
                               [&] { ff.run(); });
        st.ffInstr += (ffCfg.prewarmInstrPerCore + ffCfg.placementRefreshInstrPerCore) *
                      ffCfg.numCores;
        st.timedInstr += all - (ffCfg.prewarmInstrPerCore +
                                ffCfg.placementRefreshInstrPerCore) * ffCfg.numCores;
        st.cptInstr += all;
      }
    }
    {
      sim::Job job = parseSpec(specs[0]);
      sim::SystemConfig w = job.config;
      w.warmupInstrPerCore = 0;
      w.instrPerCore = 0;
      w.snapshotSavePath = "served.ckpt";
      { sim::System writer(w, job.mix); writer.run(); }
      sim::System reader(job.config, job.mix);
      bool restored = false;
      st.restoreSec = spans.time("System::restoreFrom", "serial", 1,
                                 [&] { restored = reader.restoreFrom("served.ckpt"); });
      res.check(restored, "snapshot restore of " + job.label);
      struct stat sb{};
      if (::stat("served.ckpt", &sb) == 0) st.snapshotMb = static_cast<double>(sb.st_size) / 1e6;
      ::unlink("served.ckpt");
    }
    for (const char* app : kApps) {
      sim::SystemConfig cfg = sim::singleCore();
      cfg.seed = o.seed;
      workload::WorkloadMix mix{app, {app}};
      replayLayers(cfg, mix, o.tiny ? 4000 : 40000, spans, lc);
    }
    probeFleet(o, std::max(1.0, o.seconds / 2), res, st);
    setLayerMetrics(res, lc, st);
    res.digest = hex(digest) + " over " + std::to_string(specs.size()) + " job specs";
    res.check(spans.flush(), "span file not written");
    return res;
  }

  // Set-up: start the fleet several times; the last one serves the run.
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (fleet) res.check(fleet->stop(), "fleet did not shut down cleanly");
    fleet = std::make_unique<Fleet>(o.binDir);
    std::string err;
    bool ok = false;
    setups.push_back(spans.time("fleet start", "server", 1, [&] { ok = fleet->start(err); }));
    res.check(ok, "fleet start: " + err);
  }

  const LoopOut loop = closedLoop(specs, o.seconds, connections());
  const double daemonsMb = fleet->peakRssMb();
  res.check(fleet->stop(), "fleet did not shut down cleanly");
  for (std::uint64_t i = 0; i < loop.busy; ++i) res.check(false, "BUSY refusal");
  for (std::uint64_t i = 0; i < loop.errors; ++i) res.check(false, "job lost or refused");
  const std::vector<std::uint64_t> instrs = checkServed(o, specs, loop, res);

  // Rates and latency of the window's best stretch of kRateJobs consecutive
  // reports, not of the whole window: on a shared host the same jobs run up
  // to ~1.7x slower for seconds at a time, while the best stretch repeats
  // within a few percent from run to run.  Reports arriving after the
  // window (the drain, with fewer jobs in flight) count in none.
  std::vector<std::size_t> order;
  std::vector<double> lat;
  for (std::size_t i = 0; i < loop.served.size(); ++i) {
    lat.push_back(loop.served[i].latencyMs);
    if (loop.served[i].arrivalSec < o.seconds) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return loop.served[x].arrivalSec < loop.served[y].arrivalSec;
  });
  const std::size_t k = std::min(kRateJobs, order.empty() ? 0 : order.size() - 1);
  double bestJobs = 0, bestInstr = 0, bestLatMs = 0;
  for (std::size_t i = 0; k > 0 && i + k < order.size(); ++i) {
    // Reports i+1..i+k arrived within (arrival[i], arrival[i+k]].
    const double span =
        loop.served[order[i + k]].arrivalSec - loop.served[order[i]].arrivalSec;
    double instr = 0;
    std::vector<double> l;
    for (std::size_t j = i + 1; j <= i + k; ++j) {
      instr += static_cast<double>(instrs[order[j]]);
      l.push_back(loop.served[order[j]].latencyMs);
    }
    if (span <= 0) continue;
    bestJobs = std::max(bestJobs, static_cast<double>(k) / span);
    bestInstr = std::max(bestInstr, instr / span);
    const double p50 = median(std::move(l));
    if (bestLatMs == 0 || p50 < bestLatMs) bestLatMs = p50;
  }
  res.check(bestJobs > 0, "too few served reports for a rate");
  const double n = static_cast<double>(loop.served.size());
  res.set("sim_instr_per_s", bestInstr, "1/s");
  res.set("jobs_per_s", bestJobs, "1/s");
  res.set("job_latency_p50_ms", bestLatMs, "ms");
  res.set("setup_s", median(setups), "s");
  res.set("peak_rss_mb", peakRssMb(0) + daemonsMb, "MB");
  std::printf("best stretch of %zu reports; whole window: %.6g jobs/s, job latency p50 %.4f ms\n",
              k, n / loop.wallSec, median(lat));
  // The tail percentile needs at least ten samples beyond it.
  if (n >= 100) {
    std::printf("job_latency_p90_ms %.4f ms (%zu samples, whole window)\n", quantile(lat, 0.9),
                loop.served.size());
  } else {
    std::printf("job_latency_p90_ms not reported: %zu samples, 100 needed\n",
                loop.served.size());
  }
  return res;
}

}  // namespace perfbench
