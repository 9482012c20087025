// The benchmark's workloads. Each one drives smmkit's public API from
// outside with inputs generated from the seed, checks outputs against
// libs::naive_gemm, and reports either the end-to-end metrics (untraced
// run) or the per-layer metrics (traced run).
#pragma once

#include <string>
#include <vector>

#include "harness/bench.h"
#include "harness/host.h"

namespace smmbench {

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Run one workload end to end. Throws std::invalid_argument for an
/// unknown workload name.
RunResult run_workload(const RunConfig& config, const HostInfo& host);

}  // namespace smmbench
