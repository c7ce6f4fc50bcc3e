// Shared plumbing for the benchmark driver: options, the result/metric
// record, output checks, outside-in span recording, and small statistics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sim/system.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options (main.cpp parses them).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny budgets for the self-test: every code path runs, in seconds.
  bool tiny = false;
  /// Directory holding the renucad and renuca-coord binaries.
  std::string binDir;
  /// Scratch directory for snapshots, sockets and the span file.
  std::string workDir;
};

/// One printed metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports: output-check tallies, end-to-end
/// metrics (untraced run) or per-layer metrics (traced run), plus the
/// statistics digest that a perf-only change must leave unchanged.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::string digest;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation or output check; a failure is logged to stderr.
  void check(bool ok, const std::string& what);
};

/// Outside-in span recorder.  Spans are kept in memory and written once,
/// through telemetry::TraceWriter, when the run ends (timestamps in
/// microseconds since the recorder was created).  An empty path records
/// nothing, so the untraced run pays one branch per span.
class Spans {
 public:
  explicit Spans(std::string path);
  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  bool on() const { return !path_.empty(); }

  /// Runs fn(), records a span `name` of module `layer` covering it with
  /// `ops` operations, and returns its duration in seconds.
  template <typename Fn>
  double time(const std::string& name, const std::string& layer, std::uint64_t ops,
              Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (on()) record(name, layer, ops, t0, t1);
    return std::chrono::duration<double>(t1 - t0).count();
  }

  /// Writes every recorded span; returns false when the file cannot be
  /// written.
  bool flush();

 private:
  struct Span {
    std::string name;
    std::string layer;
    std::uint64_t ops = 0;
    Clock::time_point start;
    Clock::time_point end;
  };
  void record(const std::string& name, const std::string& layer, std::uint64_t ops,
              Clock::time_point start, Clock::time_point end);

  std::string path_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double median(std::vector<double> xs);
/// Linear-interpolated quantile, q in [0, 1]; empty input -> 0.
double quantile(std::vector<double> xs, double q);
/// Standard deviation over mean; 0 for fewer than two values or mean 0.
double coefVar(const std::vector<double>& xs);

/// Peak resident set (VmHWM) of process `pid`, or of this process when
/// `pid` is 0, in MB; 0 when unreadable.
double peakRssMb(int pid);

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ull);
std::string hex(std::uint64_t v);

/// The deterministic part of a job's run report: everything from the
/// "config" key on (provenance such as timestamps and host comes first).
std::string stableTail(const std::string& reportJson);
/// Run report of one job, as renucad would serve it, minus provenance.
std::string stableReport(const renuca::sim::SystemConfig& cfg, const std::string& label,
                         const renuca::sim::RunResult& r);

/// Simulated instructions a job executes in every phase: the prewarm
/// fast-forward (unless restored), the warm-up (counted at its per-core
/// budget), the placement refresh when a CPT is attached, and the
/// measured window (each core's actual commits).
std::uint64_t executedInstructions(const renuca::sim::SystemConfig& cfg,
                                   const renuca::sim::RunResult& r, bool restored,
                                   bool hasCpt);

/// Checks the per-job invariants on a finished System: no error, no
/// maxCycles cap, and per-frame LLC writes summing to per-bank writes.
void checkJob(Result& res, const std::string& label, renuca::sim::System& sys,
              const renuca::sim::RunResult& r);

}  // namespace perfbench
