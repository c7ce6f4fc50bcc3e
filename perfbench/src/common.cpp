#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "sim/report.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

using namespace renuca;

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
}

Spans::Spans(std::string path) : path_(std::move(path)), origin_(Clock::now()) {}

void Spans::record(const std::string& name, const std::string& layer, std::uint64_t ops,
                   Clock::time_point start, Clock::time_point end) {
  spans_.push_back(Span{name, layer, ops, start, end});
}

bool Spans::flush() {
  if (!on()) return true;
  telemetry::TraceWriter w(path_, /*sampleEvery=*/1);
  if (!w.ok()) return false;
  // One lane (tid) per module, so a module's spans line up in the viewer.
  std::map<std::string, std::uint32_t> lanes;
  for (const Span& s : spans_) lanes.emplace(s.layer, 0);
  std::uint32_t next = 0;
  w.nameProcess(1, "perfbench");
  for (auto& [layer, tid] : lanes) {
    tid = next++;
    w.nameThread(1, tid, layer);
  }
  const auto us = [this](Clock::time_point t) {
    return static_cast<Cycle>(
        std::chrono::duration_cast<std::chrono::microseconds>(t - origin_).count());
  };
  for (const Span& s : spans_) {
    w.span(s.name.c_str(), s.layer.c_str(), 1, lanes[s.layer], us(s.start), us(s.end),
           {{"ops", static_cast<std::int64_t>(s.ops)},
            {"ns", static_cast<std::int64_t>(
                       std::chrono::duration_cast<std::chrono::nanoseconds>(s.end -
                                                                            s.start)
                           .count())}});
  }
  w.close();
  return true;
}

double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double coefVar(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  if (mean == 0.0) return 0.0;
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(xs.size())) / mean;
}

double peakRssMb(int pid) {
  std::ifstream is("/proc/" + (pid > 0 ? std::to_string(pid) : std::string("self")) +
                   "/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string stableTail(const std::string& reportJson) {
  const std::size_t pos = reportJson.find("\"config\"");
  return pos == std::string::npos ? reportJson : reportJson.substr(pos);
}

std::string stableReport(const sim::SystemConfig& cfg, const std::string& label,
                         const sim::RunResult& r) {
  return stableTail(sim::runReportJson("renucad", cfg, {{label, r}},
                                       /*wallSeconds=*/0.0, /*jobs=*/1));
}

std::uint64_t executedInstructions(const sim::SystemConfig& cfg, const sim::RunResult& r,
                                   bool restored, bool hasCpt) {
  std::uint64_t perCore = cfg.warmupInstrPerCore;
  if (!restored) perCore += cfg.prewarmInstrPerCore;
  if (hasCpt) perCore += cfg.placementRefreshInstrPerCore;
  std::uint64_t n = perCore * cfg.numCores;
  for (std::uint64_t c : r.coreCommitted) n += c;
  return n;
}

void checkJob(Result& res, const std::string& label, sim::System& sys,
              const sim::RunResult& r) {
  res.check(r.error.empty(), label + ": job error: " + r.error);
  res.check(!r.hitMaxCycles, label + ": hit maxCycles");
  bool conserved = true;
  const sim::MemorySystem& mem = sys.memory();
  for (BankId b = 0; b < mem.numBanks(); ++b) {
    const mem::CacheBank& bank = mem.llcBank(b);
    const std::vector<std::uint64_t>& frames = bank.frameWrites();
    const std::uint64_t sum = std::accumulate(frames.begin(), frames.end(), std::uint64_t{0});
    if (sum != bank.totalWrites()) conserved = false;
  }
  res.check(conserved, label + ": per-frame LLC writes do not sum to per-bank writes");
}

}  // namespace perfbench
