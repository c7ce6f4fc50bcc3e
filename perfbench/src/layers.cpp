#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "common/bitops.hpp"
#include "common/busy_calendar.hpp"
#include "compress/compress.hpp"
#include "core/cpt.hpp"
#include "dram/dram.hpp"
#include "mem/cache.hpp"
#include "noc/mesh.hpp"
#include "sim/memory_system.hpp"
#include "tlb/tlb.hpp"
#include "workload/app_profile.hpp"
#include "workload/generator.hpp"

namespace perfbench {

using namespace renuca;

namespace {

/// One memory instruction of the replayed stream.
struct MemOp {
  CoreId core = 0;
  bool load = true;
  Addr vaddr = 0;
  std::uint64_t pc = 0;
  Cycle at = 0;  ///< Issue cycle: the instruction's index in its core's stream.
};

/// A stream access that missed the private levels (the LLC's input).
struct LlcOp {
  CoreId core = 0;
  BlockAddr block = 0;
  bool write = false;
  Cycle at = 0;
};

}  // namespace

/// Runs body(from, to) over the warm-up prefix [0, split) untimed, then over
/// the measured part [split, n) inside a span; returns the span's seconds.
template <typename Body>
double warmThenTime(Spans& spans, const std::string& name, const std::string& layer,
                    std::size_t split, std::size_t n, Body&& body) {
  body(std::size_t{0}, split);
  return spans.time(name, layer, n - split, [&] { body(split, n); });
}

void replayLayers(const sim::SystemConfig& cfg, const workload::WorkloadMix& mix,
                  std::uint64_t instrPerCore, Spans& spans, LayerCosts& acc) {
  const std::uint32_t cores = cfg.numCores;
  // Each layer first sees kWarmFactor x the measured stream untimed, so
  // its state (TLB entries, cache contents, predictor tables, calendars)
  // is past the cold start when the measured part runs.
  constexpr std::uint64_t kWarmFactor = 3;
  const std::uint64_t warmInstr = kWarmFactor * instrPerCore;
  const std::uint64_t total = warmInstr + instrPerCore;

  // ---- workload: the generators the System would build (same seeds). ----
  std::vector<std::vector<workload::TraceRecord>> recs(cores);
  std::vector<std::unique_ptr<workload::SyntheticGenerator>> gens;
  for (CoreId c = 0; c < cores; ++c) {
    gens.push_back(std::make_unique<workload::SyntheticGenerator>(
        workload::profileByName(mix.appNames[c]), cfg.seed * 1000003ull + c));
    recs[c].resize(total);
  }
  acc.genSec += spans.time("SyntheticGenerator::nextBatch", "workload", total * cores, [&] {
    for (CoreId c = 0; c < cores; ++c) gens[c]->nextBatch(recs[c].data(), total);
  });
  acc.instrs += total * cores;

  // Interleave the cores in 4096-instruction chunks, as the fast-forward
  // does; `split` is the first memory op of the measured part.
  std::vector<MemOp> ops;
  const auto interleave = [&](std::uint64_t from, std::uint64_t to) {
    constexpr std::uint64_t kChunk = 4096;
    for (std::uint64_t done = from; done < to; done += kChunk) {
      const std::uint64_t end = std::min(to, done + kChunk);
      for (CoreId c = 0; c < cores; ++c) {
        for (std::uint64_t i = done; i < end; ++i) {
          const workload::TraceRecord& r = recs[c][i];
          if (r.kind == InstrKind::Alu) continue;
          ops.push_back(MemOp{c, r.kind == InstrKind::Load, r.vaddr, r.pc, i});
        }
      }
    }
  };
  interleave(0, warmInstr);
  const std::size_t split = ops.size();
  interleave(warmInstr, total);
  recs.clear();
  const std::size_t n = ops.size();
  acc.memOps += n - split;
  for (std::size_t i = split; i < n; ++i) acc.loads += ops[i].load ? 1 : 0;

  // ---- tlb: translate every access through per-core enhanced TLBs. ----
  tlb::PageTable pageTable;
  std::vector<std::unique_ptr<tlb::EnhancedTlb>> tlbs;
  for (CoreId c = 0; c < cores; ++c) {
    tlbs.push_back(std::make_unique<tlb::EnhancedTlb>(cfg.tlbCfg, &pageTable, c, "tlb"));
  }
  std::vector<BlockAddr> blocks(n);
  acc.tlbSec += warmThenTime(spans, "EnhancedTlb::translate", "tlb", split, n,
                             [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      blocks[i] = lineOf(tlbs[ops[i].core]->translate(ops[i].vaddr).paddr);
    }
  });
  acc.tlbOps += n - split;

  // ---- mem: private L1D (timed), then L2 for the L1 misses. ----
  std::vector<std::unique_ptr<mem::CacheBank>> l1, l2;
  for (CoreId c = 0; c < cores; ++c) {
    l1.push_back(std::make_unique<mem::CacheBank>(cfg.l1d, "l1d", cfg.seed * 131 + c));
    l2.push_back(std::make_unique<mem::CacheBank>(cfg.l2, "l2", cfg.seed * 137 + c));
  }
  std::vector<unsigned char> l1Miss(n, 0);
  acc.l1Sec += warmThenTime(spans, "CacheBank::access+insert (L1D)", "mem", split, n,
                            [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const AccessType t = ops[i].load ? AccessType::Read : AccessType::Write;
      if (!l1[ops[i].core]->access(blocks[i], t)) {
        l1[ops[i].core]->insert(blocks[i], !ops[i].load);
        l1Miss[i] = 1;
      }
    }
  });
  acc.l1Ops += n - split;
  // L2 misses (and the dirty L2 victims they evict) form the LLC's input;
  // a load that misses the L2 is miss-bound, the predictor's "stalled".
  std::vector<LlcOp> llcOps;
  std::size_t llcSplit = 0;
  std::vector<unsigned char> stalls(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == split) llcSplit = llcOps.size();
    if (!l1Miss[i]) continue;
    const MemOp& op = ops[i];
    const bool hit = l2[op.core]->access(blocks[i], AccessType::Read);
    if (i >= split) {
      ++acc.l1Misses;
      ++acc.l2Ops;
      acc.l2Misses += hit ? 0 : 1;
    }
    if (hit) continue;
    const mem::Eviction ev = l2[op.core]->insert(blocks[i], false);
    llcOps.push_back(LlcOp{op.core, blocks[i], false, op.at});
    if (ev.valid && ev.dirty) llcOps.push_back(LlcOp{op.core, ev.block, true, op.at});
    stalls[i] = op.load ? 1 : 0;
  }
  if (split == n) llcSplit = llcOps.size();  // empty measured part
  const std::size_t m = llcOps.size();

  // ---- core: the criticality predictor on every load (predict + train). ----
  {
    std::vector<std::unique_ptr<core::CriticalityPredictorTable>> cpts;
    for (CoreId c = 0; c < cores; ++c) {
      cpts.push_back(std::make_unique<core::CriticalityPredictorTable>(cfg.cpt));
    }
    const auto body = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        if (!ops[i].load) continue;
        cpts[ops[i].core]->predict(ops[i].pc);
        cpts[ops[i].core]->train(ops[i].pc, stalls[i] != 0);
      }
    };
    std::uint64_t loads = 0;
    for (std::size_t i = split; i < n; ++i) loads += ops[i].load ? 1 : 0;
    body(0, split);
    acc.cptSec += spans.time("CriticalityPredictorTable::predict+train", "core", loads,
                             [&] { body(split, n); });
    acc.cptOps += loads;
  }

  // ---- mem (LLC): S-NUCA-interleaved ReRAM banks, as configured. ----
  const std::uint32_t banks = cfg.l3.banks;
  mem::CacheConfig llcCfg;
  llcCfg.sizeBytes = cfg.l3.bankBytes;
  llcCfg.ways = cfg.l3.ways;
  llcCfg.latency = cfg.l3.latency;
  llcCfg.occupancy = cfg.l3.occupancy;
  llcCfg.trackFrameWrites = true;
  llcCfg.compress = cfg.compress;
  llcCfg.setIndexShift = banks > 1 ? log2Floor(banks) : 0;
  std::vector<std::unique_ptr<mem::CacheBank>> llc;
  for (BankId b = 0; b < banks; ++b) {
    llc.push_back(std::make_unique<mem::CacheBank>(llcCfg, "l3", cfg.seed * 139 + b));
  }
  const compress::Kind cmpKind =
      cfg.compress != compress::Kind::None ? cfg.compress : compress::Kind::BdiFpc;
  // Line contents as MemorySystem derives them: a class per block from the
  // owner's compressibility profile, a payload seed per write version.
  std::vector<compress::Compressibility> profiles;
  for (CoreId c = 0; c < cores; ++c) {
    profiles.push_back(workload::profileByName(mix.appNames[c]).compressibility);
  }
  const auto content = [&](const LlcOp& o, std::uint32_t version) {
    const std::uint64_t salt = cfg.seed * 1000003ull;
    compress::LineContent lc;
    lc.cls = compress::drawClass(
        profiles[o.core],
        static_cast<double>(compress::mix64(o.block ^ salt) >> 11) * 0x1.0p-53);
    lc.seed = compress::mix64(o.block ^ salt ^ (0x9e3779b97f4a7c15ull * (version + 1)));
    return lc;
  };
  std::vector<unsigned char> llcMiss(m, 0);
  acc.llcSec += warmThenTime(spans, "CacheBank::access/insert/writebackHit (LLC)", "mem",
                             llcSplit, m, [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const LlcOp& o = llcOps[i];
      mem::CacheBank& bank = *llc[o.block % banks];
      const compress::LineContent lc = content(o, o.write ? 1 : 0);
      const compress::LineContent* cp = cfg.compress != compress::Kind::None ? &lc : nullptr;
      if (o.write) {
        if (!bank.writebackHit(o.block, cp)) bank.insert(o.block, true, false, cp);
      } else if (!bank.access(o.block, AccessType::Read)) {
        bank.insert(o.block, false, false, cp);
        llcMiss[i] = 1;
      }
    }
  });
  acc.llcOps += m - llcSplit;

  // ---- noc: request to the home bank and data back, per LLC access. ----
  {
    noc::MeshNoc mesh(cfg.nocCfg);
    const std::uint32_t nodes = mesh.numNodes();
    acc.nocSec += warmThenTime(spans, "MeshNoc::traverse", "noc", llcSplit, m,
                               [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        const LlcOp& o = llcOps[i];
        const std::uint32_t src = o.core % nodes;
        const std::uint32_t dst = static_cast<std::uint32_t>(o.block % banks) % nodes;
        const Cycle arrive = mesh.traverse(src, dst, o.at, cfg.nocCfg.controlFlits);
        mesh.traverse(dst, src, arrive + cfg.l3.latency, cfg.nocCfg.dataFlits);
      }
    });
    acc.nocOps += 2 * (m - llcSplit);
  }

  // ---- dram: every LLC miss reads its line from the controller. ----
  {
    dram::DramController dram(cfg.dramCfg);
    std::uint64_t misses = 0;
    for (std::size_t i = llcSplit; i < m; ++i) misses += llcMiss[i];
    acc.dramSec += warmThenTime(spans, "DramController::access", "dram", llcSplit, m,
                                [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        if (llcMiss[i]) dram.access(lineBase(llcOps[i].block), AccessType::Read, llcOps[i].at);
      }
    });
    acc.dramOps += misses;
  }

  // ---- common: one busy calendar per bank, booked per LLC access. ----
  {
    std::vector<BusyCalendar> cal(banks);
    acc.calSec += warmThenTime(spans, "BusyCalendar::reserve", "common", llcSplit, m,
                               [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        cal[llcOps[i].block % banks].reserve(llcOps[i].at, cfg.l3.occupancy);
      }
    });
    acc.calOps += m - llcSplit;
  }

  // ---- compress: encode every LLC write's line (fills and write-backs);
  // uncompressed configurations measure what bdi+fpc would do. ----
  {
    std::vector<compress::CompressedLine> enc(m - llcSplit);
    acc.cmpSec += spans.time("compress::compressContent", "compress", m - llcSplit, [&] {
      for (std::size_t i = llcSplit; i < m; ++i) {
        compress::compressContent(cmpKind, content(llcOps[i], llcOps[i].write ? 1 : 0),
                                  enc[i - llcSplit]);
      }
    });
    acc.cmpOps += m - llcSplit;
    compress::CompressedLine prev;
    for (std::size_t i = llcSplit; i < m; ++i) {
      const compress::CompressedLine& e = enc[i - llcSplit];
      acc.cmpRaw += e.scheme == compress::Scheme::Raw ? 1 : 0;
      if (!llcOps[i].write) continue;
      // A write-back replaces the fill-time version of the same line.
      compress::compressContent(cmpKind, content(llcOps[i], 0), prev);
      acc.cmpBits += compress::bitsFlipped(prev, e);
      ++acc.cmpWrites;
    }
  }

  // ---- sim: the whole hierarchy walk, MemorySystem::load/store: the
  // warm-up prefix in warm-up (functional) mode, the rest timed. ----
  {
    sim::MemorySystem ms(cfg);
    if (cfg.compress != compress::Kind::None) ms.setCompressibility(profiles);
    const auto walk = [&](std::size_t from, std::size_t to, bool functional) {
      for (std::size_t i = from; i < to; ++i) {
        const MemOp& op = ops[i];
        const Cycle at = functional ? 0 : op.at;
        if (op.load) {
          ms.load(op.core, op.vaddr, op.pc, at, false);
        } else {
          ms.store(op.core, op.vaddr, op.pc, at);
        }
      }
    };
    ms.setWarmupMode(true);
    acc.walkFuncSec += spans.time("MemorySystem::load/store (warm-up mode)", "sim", split,
                                  [&] { walk(0, split, true); });
    acc.walkFuncOps += split;
    ms.setWarmupMode(false);
    acc.walkTimedSec += spans.time("MemorySystem::load/store (timed)", "sim", n - split,
                                   [&] { walk(split, n, false); });
    acc.walkTimedOps += n - split;
  }
}

}  // namespace perfbench

namespace perfbench {

void collectRunStats(RunStats& st, sim::System& sys, const sim::RunResult& r) {
  ++st.jobs;
  sim::MemorySystem& mem = sys.memory();
  const std::uint32_t cores = sys.config().numCores;
  for (CoreId c = 0; c < cores; ++c) {
    const StatSet& t = mem.tlbOf(c).stats();
    st.tlbHits += t.get("hits");
    st.tlbMisses += t.get("misses");
    st.robStallCycles += sys.core(c).stats().robHeadStallCycles;
    st.coreCycles += r.measuredCycles;
  }
  for (BankId b = 0; b < mem.numBanks(); ++b) {
    const StatSet& s = mem.llcBank(b).stats();
    st.llcReadHits += s.get("read_hits");
    st.llcReadMisses += s.get("read_misses");
  }
  const bool cmp = r.compressKind != compress::Kind::None;
  std::vector<double> perBank;
  for (BankId b = 0; b < r.bankWrites.size(); ++b) {
    perBank.push_back(static_cast<double>(cmp ? r.bankBitsFlipped[b] : r.bankWrites[b]));
  }
  if (cmp) {
    st.cmpWrites += r.cmpWrites;
    st.cmpRaw += r.cmpRawFallbacks;
    for (std::uint64_t bits : r.bankBitsFlipped) st.cmpBits += bits;
  }
  st.bankCvSum += coefVar(perBank);
  st.wpkiSum += r.avgWpki();
  st.nocLatSum += r.avgNocLatencyCycles;
  st.dramRowHitSum += r.dramRowHitRate;
  st.ipcSum += r.systemIpc;
  if (sys.predictor(0) != nullptr) {
    st.cptAccSum += r.cptAccuracy;
    st.nonCritWriteSum += r.nonCriticalWriteFrac;
    ++st.cptJobs;
  }
  const double life = cmp ? r.minBankLifetimeBits() : r.minBankLifetime();
  st.minLifetimeYears = st.jobs == 1 ? life : std::min(st.minLifetimeYears, life);
}

void setLayerMetrics(Result& res, const LayerCosts& lc, const RunStats& st) {
  const double jobs = static_cast<double>(std::max<std::uint64_t>(st.jobs, 1));
  const double cptJobs = static_cast<double>(std::max<std::uint64_t>(st.cptJobs, 1));
  const double timedSec = std::max(0.0, st.fullSec - st.ffSec);

  res.set("sim.ff_s", st.ffSec, "s");
  res.set("sim.ff_ns_per_instr", nsPer(st.ffSec, st.ffInstr), "ns");
  res.set("sim.timed_s", timedSec, "s");
  res.set("sim.timed_ns_per_instr", nsPer(timedSec, st.timedInstr), "ns");
  const double walkFuncNs = nsPer(lc.walkFuncSec, lc.walkFuncOps);
  const double walkTimedNs = nsPer(lc.walkTimedSec, lc.walkTimedOps);
  res.set("sim.walk_functional_ns", walkFuncNs, "ns");
  res.set("sim.walk_timed_ns", walkTimedNs, "ns");
  const double genNs = nsPer(lc.genSec, lc.instrs);
  res.set("workload.gen_ns_per_instr", genNs, "ns");
  res.set("tlb.translate_ns", nsPer(lc.tlbSec, lc.tlbOps), "ns");
  res.set("tlb.miss_rate",
          ratio(static_cast<double>(st.tlbMisses),
                static_cast<double>(st.tlbHits + st.tlbMisses)),
          "ratio");
  res.set("mem.l1.access_ns", nsPer(lc.l1Sec, lc.l1Ops), "ns");
  res.set("mem.l1.miss_rate",
          ratio(static_cast<double>(lc.l1Misses), static_cast<double>(lc.l1Ops)), "ratio");
  res.set("mem.l2.miss_rate",
          ratio(static_cast<double>(lc.l2Misses), static_cast<double>(lc.l2Ops)), "ratio");
  res.set("mem.llc.access_ns", nsPer(lc.llcSec, lc.llcOps), "ns");
  res.set("mem.llc.hit_rate",
          ratio(static_cast<double>(st.llcReadHits),
                static_cast<double>(st.llcReadHits + st.llcReadMisses)),
          "ratio");
  res.set("mem.llc.wpki", st.wpkiSum / jobs, "1/kinstr");
  const double cptNs = nsPer(lc.cptSec, lc.cptOps);
  res.set("core.cpt.predict_train_ns", cptNs, "ns");
  res.set("core.cpt.accuracy", st.cptAccSum / cptJobs, "ratio");
  res.set("core.noncritical_write_frac", st.nonCritWriteSum / cptJobs, "ratio");
  res.set("cpu.rob_head_stall_frac",
          ratio(static_cast<double>(st.robStallCycles), static_cast<double>(st.coreCycles)),
          "ratio");
  res.set("noc.traverse_ns", nsPer(lc.nocSec, lc.nocOps), "ns");
  res.set("noc.avg_latency_cycles", st.nocLatSum / jobs, "cycles");
  res.set("dram.access_ns", nsPer(lc.dramSec, lc.dramOps), "ns");
  res.set("dram.row_hit_rate", st.dramRowHitSum / jobs, "ratio");
  res.set("common.calendar_reserve_ns", nsPer(lc.calSec, lc.calOps), "ns");
  res.set("compress.line_ns", nsPer(lc.cmpSec, lc.cmpOps), "ns");
  // Compressed runs report their own counters; uncompressed ones what
  // bdi+fpc would do on the replayed lines.
  res.set("compress.raw_fallback_frac",
          st.cmpWrites ? ratio(static_cast<double>(st.cmpRaw), static_cast<double>(st.cmpWrites))
                       : ratio(static_cast<double>(lc.cmpRaw), static_cast<double>(lc.cmpOps)),
          "ratio");
  res.set("compress.bits_per_write",
          st.cmpWrites
              ? ratio(static_cast<double>(st.cmpBits), static_cast<double>(st.cmpWrites))
              : ratio(static_cast<double>(lc.cmpBits), static_cast<double>(lc.cmpWrites)),
          "bits");
  res.set("rram.bank_write_cv", st.bankCvSum / jobs, "ratio");
  res.set("serial.restore_s", st.restoreSec, "s");
  res.set("serial.snapshot_mb", st.snapshotMb, "MB");
  res.set("server.ping_rtt_us", st.pingRttUs, "us");
  res.set("server.queue_wait_p50_ms", st.queueWaitP50Ms, "ms");
  res.set("server.exec_p50_ms", st.execP50Ms, "ms");
  res.set("coord.lease_wait_p50_ms", st.leaseWaitP50Ms, "ms");
  res.set("server.busy_rejects", st.busyRejects, "count");
  res.set("sim.system_ipc", st.ipcSum / jobs, "ipc");
  res.set("sim.min_lifetime_years", st.minLifetimeYears, "years");
  res.set("sim.renuca_gain_pct", st.renucaGainPct, "%");

  res.set("trace.overhead_pct",
          st.untracedSec > 0 ? (st.fullSec - st.untracedSec) / st.untracedSec * 100.0 : 0.0,
          "%");
  // What the outside-in costs explain of the traced runs' wall time: the
  // generator for every instruction, a functional or timed walk for every
  // memory instruction of its phase, and a predictor lookup per load of
  // CPT jobs.  The rest is the cores' pipeline model and glue.
  const double memFrac = ratio(static_cast<double>(lc.memOps), static_cast<double>(lc.instrs));
  const double loadFrac = ratio(static_cast<double>(lc.loads), static_cast<double>(lc.instrs));
  const double attributedNs =
      genNs * static_cast<double>(st.ffInstr + st.timedInstr) +
      walkFuncNs * memFrac * static_cast<double>(st.ffInstr) +
      walkTimedNs * memFrac * static_cast<double>(st.timedInstr) +
      cptNs * loadFrac * static_cast<double>(st.cptInstr);
  res.set("layers.unattributed_share",
          st.fullSec > 0 ? 1.0 - attributedNs * 1e-9 / st.fullSec : 0.0, "ratio");
}

}  // namespace perfbench
