// Per-layer probes: isolated timings of the public calls of each smmkit
// module on a workload's shape mix, plus the table that names every
// per-layer metric, its layer, and the end-to-end metric it should move.
#pragma once

#include <string>
#include <vector>

#include "harness/bench.h"
#include "src/common/types.h"

namespace smm::service {
class SmmService;
}

namespace smmbench {

/// One shape of a workload mix, with its share of the mix.
struct ProbeShape {
  smm::index_t m = 0, n = 0, k = 0;
  bool f64 = false;
  bool trans_a = false;
  double weight = 1.0;
};

/// A per-layer metric: what it is, and what it should move where.
struct LayerMetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
  const char* moves;   ///< end-to-end metric @ workload it should move
};

/// Every per-layer metric, in report order. The traced run reports
/// exactly these names on every workload.
const std::vector<LayerMetricDef>& layer_metric_defs();

/// Mix-weighted isolated timings of the core/plan/pack/tune/robust
/// public calls (warm lookups, execute, prepacked run, packs, ABFT,
/// guarded overhead, plan builds on a fresh cache). Appends metrics.
void probe_shape_layers(const std::vector<ProbeShape>& mix,
                        std::uint64_t seed, std::vector<Metric>& out,
                        std::vector<std::string>& notes);

/// core.cold_call_us / core.cold_remainder_us: the first call per shape
/// on an empty plan cache, split into the plan build and the rest (one
/// note line per shape, plus 32^3 at two threads).
void probe_cold_calls(const std::vector<ProbeShape>& mix, std::uint64_t seed,
                      std::vector<Metric>& out,
                      std::vector<std::string>& notes);

/// kernels.*: the main 8x12 f32 tile on packed operands at kc=256,
/// against the in-run f32 FMA peak.
void probe_kernel(double peak_f32_gflops, std::vector<Metric>& out);

/// threading.region_ns (warm process pool, 2 bodies) and
/// threading.cold_region_ns (first region of a fresh private pool).
void probe_threading(std::vector<Metric>& out);

/// Service-side isolated timings on `svc`: route_shard, submit and the
/// wait per priority, and ResilientClient::execute minus a raw
/// submit().wait() on the same shapes. `cubes` are f32 cube edges.
struct ServiceProbe {
  double route_ns = 0.0;
  double submit_ns = 0.0;
  double wait_us[3] = {0.0, 0.0, 0.0};  ///< by service::Priority
  double execute_overhead_us = 0.0;
  double attempts_per_request = 1.0;
};
ServiceProbe probe_service(smm::service::SmmService& svc,
                           const std::vector<int>& cubes,
                           std::uint64_t seed);

}  // namespace smmbench
