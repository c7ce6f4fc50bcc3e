// The served path: renuca-coord fronting renucad workers, driven by one
// closed-loop client process.
#pragma once

#include "common.hpp"
#include "layers.hpp"

namespace perfbench {

/// served_fleet: a 2-worker fleet serving the perf_baseline job set.
Result runServedFleet(const Options& o);

/// Starts a fleet, serves the same job set for `seconds`, and fills the
/// server.* / coord.* fields of `st` (the rig workloads' traced runs use it
/// to report the server layer's fixed costs).  Job failures count in `res`.
void probeFleet(const Options& o, double seconds, Result& res, RunStats& st);

}  // namespace perfbench
