// The traced round: per-layer metrics from a layer-by-layer replay, a
// per-call timed engine feed and a split fleet feed (see trace.cc).
#pragma once

#include <cstdint>
#include <string>

#include "workload.h"

namespace carrierbench {

int traced_round(Workload w, uint64_t seed, const std::string& rulesets);

}  // namespace carrierbench
