// Per-layer probes of the traced pass.  Each probe drives one module's
// public API with data from the workload itself: engine runs are built
// directly from the workload's sampled cells, and the view, calendar,
// ancestry, store and tracker probes replay the final BlockStore, Δ and
// honest count of the largest sampled run.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ProbeResults {
  std::map<std::string, double> metrics;  ///< per-layer metric name → value
  Checks checks;  ///< observed ≡ unobserved ≡ oracle-armed, repeat counts
};

[[nodiscard]] ProbeResults run_probes(
    const Workload& workload,
    const std::vector<neatbound::scenario::ScenarioSpec>& specs,
    Tracer* tracer);

}  // namespace perfbench
