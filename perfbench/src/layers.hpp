// Per-layer host costs, timed from outside: each module's public entry
// point is replayed on an address stream drawn from the workload's own
// generators (same app profiles, same seeds as the System would use), with
// a span around every batch.  Nothing inside src/ is instrumented.
#pragma once

#include <cstdint>

#include "common.hpp"
#include "workload/mixes.hpp"

namespace perfbench {

/// Seconds and operation counts per layer, summed over every replay (the
/// served workload replays one single-core stream per app).
struct LayerCosts {
  double genSec = 0;
  std::uint64_t instrs = 0, memOps = 0, loads = 0;
  double tlbSec = 0;
  std::uint64_t tlbOps = 0;
  double l1Sec = 0;
  std::uint64_t l1Ops = 0, l1Misses = 0, l2Ops = 0, l2Misses = 0;
  double llcSec = 0;
  std::uint64_t llcOps = 0;
  double cptSec = 0;
  std::uint64_t cptOps = 0;
  double nocSec = 0;
  std::uint64_t nocOps = 0;
  double dramSec = 0;
  std::uint64_t dramOps = 0;
  double calSec = 0;
  std::uint64_t calOps = 0;
  double cmpSec = 0;
  std::uint64_t cmpOps = 0, cmpRaw = 0, cmpWrites = 0, cmpBits = 0;
  double walkFuncSec = 0;
  std::uint64_t walkFuncOps = 0;
  double walkTimedSec = 0;
  std::uint64_t walkTimedOps = 0;
};

/// Replays `instrPerCore` generated instructions per core of `mix` under
/// `cfg` through every layer and adds the costs to `acc`.
void replayLayers(const renuca::sim::SystemConfig& cfg,
                  const renuca::workload::WorkloadMix& mix, std::uint64_t instrPerCore,
                  Spans& spans, LayerCosts& acc);

/// Counts and rates of the real runs of the traced pass, read through
/// public accessors after each run, plus the timings the traced run
/// takes around whole calls.
struct RunStats {
  std::uint64_t jobs = 0;
  // sim: whole runs against fast-forward-only runs of the same jobs.
  double fullSec = 0, ffSec = 0;
  std::uint64_t ffInstr = 0, timedInstr = 0;
  std::uint64_t cptInstr = 0;  ///< Instructions of jobs with a CPT attached.
  double untracedSec = 0;  ///< The same jobs' run() time in an untraced pass.
  // Real-run counters.
  std::uint64_t tlbHits = 0, tlbMisses = 0;
  std::uint64_t llcReadHits = 0, llcReadMisses = 0;
  std::uint64_t robStallCycles = 0, coreCycles = 0;
  std::uint64_t cmpWrites = 0, cmpRaw = 0, cmpBits = 0;
  double wpkiSum = 0, nocLatSum = 0, dramRowHitSum = 0, bankCvSum = 0, ipcSum = 0;
  double cptAccSum = 0, nonCritWriteSum = 0;
  std::uint64_t cptJobs = 0;
  double minLifetimeYears = 0;  ///< Raw minimum over every job's banks.
  double renucaGainPct = 0;
  // serial: one restore of the workload's first job.
  double restoreSec = 0, snapshotMb = 0;
  // server: the fleet probe.
  double pingRttUs = 0, queueWaitP50Ms = 0, execP50Ms = 0, leaseWaitP50Ms = 0;
  double busyRejects = 0;
};

/// Adds one finished job's public statistics to `st`.
void collectRunStats(RunStats& st, renuca::sim::System& sys,
                     const renuca::sim::RunResult& r);

/// Sets every per-layer metric of the traced run.
void setLayerMetrics(Result& res, const LayerCosts& lc, const RunStats& st);

/// Nanoseconds per operation (0 when no operation ran).
inline double nsPer(double sec, std::uint64_t ops) {
  return ops ? sec * 1e9 / static_cast<double>(ops) : 0.0;
}

/// Ratio guarded against an empty denominator.
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

}  // namespace perfbench
