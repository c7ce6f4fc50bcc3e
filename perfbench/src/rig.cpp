#include "rig.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "fleet.hpp"
#include "layers.hpp"
#include "workload/mixes.hpp"

namespace perfbench {

using namespace renuca;

namespace {

/// Snapshot writes measured for setup_s (warm workload).
constexpr int kSnapshotReps = 3;

/// One rig workload: the mix, the policies it runs (in this order, one
/// job each per pass), per-core budgets, and the LLC write model.
struct RigSpec {
  workload::WorkloadMix mix;
  std::vector<core::PolicyKind> policies;
  std::uint64_t prewarm = 0, warmup = 0, instr = 0, refresh = 0;
  compress::Kind compress = compress::Kind::None;
  /// Restore every job's post-prewarm state from a set-up snapshot.
  bool warm = false;
  /// Instructions per core the traced run replays through each layer.
  std::uint64_t replayInstr = 0;
};

RigSpec rigSpec(const Options& o) {
  RigSpec s;
  if (o.workload == "rig16_cold") {
    // One standard mix (5 high / 5 medium / 6 low write intensity), cold:
    // the functional fast-forward dominates host time.
    s.mix = workload::standardMixes()[0];
    s.policies = {core::PolicyKind::SNuca, core::PolicyKind::RNuca,
                  core::PolicyKind::ReNuca};
    // The measured window runs until the slowest core reaches its budget,
    // so fast cores commit several times more; the short timed budgets
    // keep the fast-forward at about 70 % of host time.
    s.prewarm = o.tiny ? 20000 : 600000;
    s.warmup = o.tiny ? 1000 : 2000;
    s.instr = o.tiny ? 2000 : 8000;
    s.refresh = o.tiny ? 10000 : 300000;
    s.replayInstr = o.tiny ? 3000 : 40000;
  } else {
    // A write-intensive mix (10 high / 4 medium / 2 low, drawn from the
    // seed) on a compressed LLC, restored warm: the timed loop dominates.
    s.mix = workload::makeMix("WW", 16, 10, 4, 2, /*seed=*/0x5757);
    s.policies = {core::PolicyKind::RNuca, core::PolicyKind::ReNuca};
    s.prewarm = o.tiny ? 20000 : 200000;
    s.warmup = o.tiny ? 1000 : 10000;
    s.instr = o.tiny ? 4000 : 60000;
    s.refresh = o.tiny ? 2000 : 10000;
    s.compress = compress::Kind::BdiFpc;
    s.warm = true;
    s.replayInstr = o.tiny ? 3000 : 40000;
  }
  return s;
}

std::string snapshotPath(core::PolicyKind p) {
  return std::string("warm-") + core::toString(p) + ".ckpt";
}

sim::SystemConfig rigConfig(const RigSpec& s, core::PolicyKind p, std::uint64_t seed) {
  sim::SystemConfig c = sim::defaultConfig();  // Table I: 16 cores, 4x4 mesh
  c.policy = p;
  c.seed = seed;
  c.prewarmInstrPerCore = s.prewarm;
  c.warmupInstrPerCore = s.warmup;
  c.instrPerCore = s.instr;
  c.placementRefreshInstrPerCore = s.refresh;
  c.compress = s.compress;
  if (s.warm) c.snapshotLoadPath = snapshotPath(p);
  return c;
}

/// The same job stopped right after the snapshot point: no warm-up, no
/// refresh, no measured window.
sim::SystemConfig snapshotWriterConfig(sim::SystemConfig c, const std::string& path) {
  c.warmupInstrPerCore = 0;
  c.instrPerCore = 0;
  c.placementRefreshInstrPerCore = 0;
  c.snapshotLoadPath.clear();
  c.snapshotSavePath = path;
  return c;
}

bool fileExists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// Writes a warm-state snapshot for every config; returns the seconds taken.
double writeSnapshots(const std::vector<sim::SystemConfig>& cfgs,
                      const workload::WorkloadMix& mix, Spans& spans, Result& res) {
  double sec = 0.0;
  for (const sim::SystemConfig& cfg : cfgs) {
    const std::string path = cfg.snapshotLoadPath;
    ::unlink(path.c_str());
    const sim::SystemConfig w = snapshotWriterConfig(cfg, path);
    sec += spans.time("System+run (snapshot write)", "serial", 1, [&] {
      sim::System sys(w, mix);
      sys.run();
    });
    res.check(fileExists(path), "snapshot " + path + " not written");
  }
  return sec;
}

/// One pass: every policy's job once, constructed then run.
struct Pass {
  double constructSec = 0, runSec = 0;
  std::uint64_t instr = 0;
  std::vector<double> jobSec;
  std::vector<std::uint64_t> jobInstr;
  std::vector<bool> jobCpt;
  std::vector<sim::RunResult> results;
  std::string reports;  ///< Concatenated stable reports: the digest input.
};

Pass runPass(const std::vector<sim::SystemConfig>& cfgs, const RigSpec& spec, Spans& spans,
             Result& res, RunStats* st) {
  Pass p;
  for (const sim::SystemConfig& cfg : cfgs) {
    const std::string label = spec.mix.name + "/" + core::toString(cfg.policy);
    std::unique_ptr<sim::System> sys;
    p.constructSec += spans.time("System::System " + label, "sim", 1, [&] {
      sys = std::make_unique<sim::System>(cfg, spec.mix);
    });
    sim::RunResult r;
    const double sec = spans.time("System::run " + label, "sim", 1, [&] { r = sys->run(); });
    checkJob(res, label, *sys, r);
    const bool cpt = sys->predictor(0) != nullptr;
    if (st != nullptr) collectRunStats(*st, *sys, r);
    const std::uint64_t instr = executedInstructions(cfg, r, spec.warm, cpt);
    p.runSec += sec;
    p.instr += instr;
    p.jobSec.push_back(sec);
    p.jobInstr.push_back(instr);
    p.jobCpt.push_back(cpt);
    p.reports += stableReport(cfg, label, r);
    p.results.push_back(std::move(r));
  }
  return p;
}

double lifetimeOf(const sim::RunResult& r) {
  return r.compressKind != compress::Kind::None ? r.minBankLifetimeBits()
                                                : r.minBankLifetime();
}

/// Re-NUCA's raw-min lifetime over R-NUCA's on the same mix, in percent.
double renucaGainPct(const RigSpec& spec, const Pass& p) {
  double re = 0, r = 0;
  for (std::size_t i = 0; i < spec.policies.size(); ++i) {
    if (spec.policies[i] == core::PolicyKind::ReNuca) re = lifetimeOf(p.results[i]);
    if (spec.policies[i] == core::PolicyKind::RNuca) r = lifetimeOf(p.results[i]);
  }
  return r > 0 ? (re / r - 1.0) * 100.0 : 0.0;
}

/// The traced run: per-layer metrics only.
void tracedRig(const Options& o, const RigSpec& spec, const std::vector<sim::SystemConfig>& cfgs,
               Spans& spans, Result& res) {
  RunStats st;
  Spans off("");
  // Untraced passes before and after the traced one, so neither side of
  // trace.overhead_pct is the pass that first touches memory.
  const Pass before = runPass(cfgs, spec, off, res, nullptr);
  const Pass traced = runPass(cfgs, spec, spans, res, &st);
  const Pass after = runPass(cfgs, spec, off, res, nullptr);
  res.check(before.reports == traced.reports && after.reports == traced.reports,
            "traced pass changed simulated results");
  st.untracedSec = 0.5 * (before.runSec + after.runSec);
  st.fullSec = traced.runSec;
  st.renucaGainPct = renucaGainPct(spec, traced);

  // Fast-forward-only runs: the same jobs with the timed budgets at zero.
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    sim::SystemConfig ff = cfgs[i];
    ff.warmupInstrPerCore = 0;
    ff.instrPerCore = 0;
    st.ffSec += spans.time("System::run fast-forward only", "sim", 1, [&] {
      sim::System sys(ff, spec.mix);
      sys.run();
    });
    const std::uint64_t ffInstr =
        ((spec.warm ? 0 : ff.prewarmInstrPerCore) +
         (traced.jobCpt[i] ? ff.placementRefreshInstrPerCore : 0)) *
        ff.numCores;
    st.ffInstr += ffInstr;
    st.timedInstr += traced.jobInstr[i] - ffInstr;
    if (traced.jobCpt[i]) st.cptInstr += traced.jobInstr[i];
  }

  // serial: restores of each job's warm state (the cold workload writes
  // one snapshot of its first job for this).  A warm job's fast-forward-
  // only run includes its restore, which is serial's share, not sim's.
  double restoreAll = 0.0;
  for (std::size_t i = 0; i < (spec.warm ? cfgs.size() : 1); ++i) {
    std::string snap = cfgs[i].snapshotLoadPath;
    if (snap.empty()) {
      snap = "cold.ckpt";
      sim::System writer(snapshotWriterConfig(cfgs[i], snap), spec.mix);
      writer.run();
    }
    sim::SystemConfig c = cfgs[i];
    c.snapshotLoadPath.clear();
    sim::System reader(c, spec.mix);
    bool ok = false;
    const double sec =
        spans.time("System::restoreFrom", "serial", 1, [&] { ok = reader.restoreFrom(snap); });
    res.check(ok, "snapshot restore from " + snap);
    restoreAll += sec;
    if (i == 0) {
      st.restoreSec = sec;
      struct stat sb{};
      if (::stat(snap.c_str(), &sb) == 0) st.snapshotMb = static_cast<double>(sb.st_size) / 1e6;
    }
  }
  if (spec.warm) st.ffSec = std::max(0.0, st.ffSec - restoreAll);

  LayerCosts lc;
  sim::SystemConfig replayCfg = cfgs.back();
  replayCfg.snapshotLoadPath.clear();
  replayLayers(replayCfg, spec.mix, spec.replayInstr, spans, lc);
  probeFleet(o, o.tiny ? 1.0 : 2.0, res, st);
  setLayerMetrics(res, lc, st);
  res.digest = hex(fnv1a(traced.reports));
}

}  // namespace

Result runRig(const Options& o) {
  const RigSpec spec = rigSpec(o);
  Result res;
  Spans spans(o.trace ? o.workload + ".trace.json" : "");
  std::vector<sim::SystemConfig> cfgs;
  for (core::PolicyKind p : spec.policies) cfgs.push_back(rigConfig(spec, p, o.seed));

  std::vector<double> snapshotSetups;
  if (spec.warm) {
    for (int rep = 0; rep < (o.trace ? 1 : kSnapshotReps); ++rep) {
      snapshotSetups.push_back(writeSnapshots(cfgs, spec.mix, spans, res));
    }
  }

  if (o.trace) {
    tracedRig(o, spec, cfgs, spans, res);
    res.check(spans.flush(), "span file not written");
    return res;
  }

  // Measured passes until the window is over (at least two, so every run
  // compares a pass against another).
  std::vector<Pass> passes;
  const Clock::time_point t0 = Clock::now();
  do {
    passes.push_back(runPass(cfgs, spec, spans, res, nullptr));
  } while (secondsSince(t0) < o.seconds || passes.size() < 2);
  for (std::size_t i = 1; i < passes.size(); ++i) {
    res.check(passes[i].reports == passes[0].reports,
              "pass " + std::to_string(i) + " differs from pass 0");
  }
  res.digest = hex(fnv1a(passes[0].reports));

  if (spec.warm) {
    // Every measured job must really have started warm, and a restored
    // run must equal the cold run (one job, chosen by the seed).
    for (const sim::SystemConfig& cfg : cfgs) {
      sim::SystemConfig c = cfg;
      c.snapshotLoadPath.clear();
      sim::System probe(c, spec.mix);
      res.check(probe.restoreFrom(cfg.snapshotLoadPath),
                "snapshot " + cfg.snapshotLoadPath + " does not restore");
    }
    const std::size_t i = o.seed % cfgs.size();
    sim::SystemConfig cold = cfgs[i];
    cold.snapshotLoadPath.clear();
    const std::string label = spec.mix.name + "/" + core::toString(cold.policy);
    sim::System sys(cold, spec.mix);
    const sim::RunResult r = sys.run();
    checkJob(res, label + " (cold)", sys, r);
    res.check(stableReport(cfgs[i], label, r) ==
                  stableReport(cfgs[i], label, passes[0].results[i]),
              label + ": restored run differs from the cold run");
  }

  // Each job's fastest pass, not totals over the window: on a shared host
  // the same job runs up to ~1.7x slower for seconds at a time, while its
  // fastest pass repeats within a few percent from run to run.  Every pass
  // executes the same instructions (checked above), so the rates are the
  // one pass of best times.
  double instr = 0, bestSec = 0;
  std::vector<double> constructs, jobMs;
  for (const Pass& p : passes) constructs.push_back(p.constructSec);
  for (std::size_t j = 0; j < cfgs.size(); ++j) {
    double best = passes[0].jobSec[j];
    for (const Pass& p : passes) best = std::min(best, p.jobSec[j]);
    instr += static_cast<double>(passes[0].jobInstr[j]);
    bestSec += best;
    jobMs.push_back(best * 1000.0);
  }
  res.set("sim_instr_per_s", instr / bestSec, "1/s");
  res.set("jobs_per_s", static_cast<double>(cfgs.size()) / bestSec, "1/s");
  res.set("job_latency_p50_ms", median(jobMs), "ms");
  res.set("setup_s", median(constructs) + median(snapshotSetups), "s");
  res.set("peak_rss_mb", peakRssMb(0), "MB");

  double ipc = 0, life = lifetimeOf(passes[0].results[0]);
  for (const sim::RunResult& r : passes[0].results) {
    ipc += r.systemIpc / static_cast<double>(passes[0].results.size());
    life = std::min(life, lifetimeOf(r));
  }
  std::printf("passes %zu, jobs %zu (job_latency_p90_ms not reported: one best time per job)\n",
              passes.size(), passes.size() * cfgs.size());
  std::printf("sim.system_ipc %.6f ipc (simulated)\n", ipc);
  std::printf("sim.min_lifetime_years %.6f years (simulated)\n", life);
  std::printf("sim.renuca_gain_pct %.4f %% (simulated)\n", renucaGainPct(spec, passes[0]));
  return res;
}

}  // namespace perfbench
