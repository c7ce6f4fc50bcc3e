// perfbench: the repository benchmark driver (see perfbench/README.md).
//
//   perfbench workload=rig16_cold|rig16_warm_writes|served_fleet seed=N
//             seconds=S trace=0|1 [tiny=1] bin=DIR work=DIR
//
// Runs one workload in `work` (snapshots, sockets and span files stay
// there), prints human-readable lines, and ends with one JSON line:
// {"workload", "correct", "attempted", "failed", "digest", "metrics"}.
// run.py builds this binary and turns that line into the benchmark result.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "common/kvconfig.hpp"
#include "common/log.hpp"
#include "fleet.hpp"
#include "rig.hpp"
#include "telemetry/json.hpp"

using namespace renuca;

int main(int argc, char** argv) {
  const KvConfig kv = KvConfig::fromArgs(argc, argv);
  perfbench::Options o;
  o.workload = kv.getOr("workload", std::string());
  o.seed = static_cast<std::uint64_t>(kv.getOr("seed", std::int64_t{1}));
  o.seconds = kv.getOr("seconds", 10.0);
  o.trace = kv.getOr("trace", std::int64_t{0}) != 0;
  o.tiny = kv.getOr("tiny", std::int64_t{0}) != 0;
  o.binDir = kv.getOr("bin", std::string());
  o.workDir = kv.getOr("work", std::string("."));
  if (o.workload != "rig16_cold" && o.workload != "rig16_warm_writes" &&
      o.workload != "served_fleet") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  if (o.binDir.empty() || ::chdir(o.workDir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: bin= and an existing work= directory are required\n");
    return 2;
  }
  setLogLevel(LogLevel::Warn);

  const perfbench::Result res = o.workload == "served_fleet" ? perfbench::runServedFleet(o)
                                                             : perfbench::runRig(o);

  for (const auto& [name, m] : res.metrics) {
    std::printf("%-28s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              res.attempted ? static_cast<double>(res.failed) / res.attempted : 0.0,
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  std::printf("statistics digest %s\n", res.digest.c_str());

  std::printf("{\"workload\": \"%s\", \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%s\", \"metrics\": {",
              o.workload.c_str(), res.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              telemetry::jsonEscape(res.digest).c_str());
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    // A non-finite value prints as null, which run.py rejects.
    char value[32] = "null";
    if (std::isfinite(m.value)) std::snprintf(value, sizeof(value), "%.17g", m.value);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
