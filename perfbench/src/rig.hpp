// The paper's 16-core 4x4 Table I rig: rig16_cold and rig16_warm_writes.
#pragma once

#include "common.hpp"

namespace perfbench {

Result runRig(const Options& o);

}  // namespace perfbench
