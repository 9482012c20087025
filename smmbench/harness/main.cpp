// smmbench: one seeded benchmark for the smmkit library and its service.
//
//   smmbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--inject-miscompute]
//   smmbench --describe
//
// Prints the host block, human-readable notes and every metric by name
// with its unit and base, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when any
// output failed the oracle check.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

#include "harness/bench.h"
#include "harness/host.h"
#include "harness/layers.h"
#include "harness/workloads.h"

namespace {

using namespace smmbench;

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "smmbench: %s\nusage: smmbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--inject-miscompute]\n       smmbench --describe\n",
               why);
  return 2;
}

void describe() {
  std::printf("{\"workloads\": [");
  const auto& names = workload_names();
  for (std::size_t i = 0; i < names.size(); ++i)
    std::printf("%s%s", i ? ", " : "", json_string(names[i]).c_str());
  std::printf("],\n \"per_layer\": [\n");
  const auto& defs = layer_metric_defs();
  for (std::size_t i = 0; i < defs.size(); ++i)
    std::printf("  {\"name\": %s, \"unit\": %s, \"better\": %s, \"moves\": "
                "%s}%s\n",
                json_string(defs[i].name).c_str(),
                json_string(defs[i].unit).c_str(),
                json_string(defs[i].better).c_str(),
                json_string(defs[i].moves).c_str(),
                i + 1 < defs.size() ? "," : "");
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--describe") {
      describe();
      return 0;
    }
    if (arg == "--inject-miscompute") {
      cfg.inject_miscompute = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = v;
        have[0] = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(v);
        have[1] = true;
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(v);
        have[2] = true;
      } else if (arg == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        cfg.trace = v == "1";
        have[3] = true;
      } else if (arg == "--out-dir") {
        cfg.out_dir = v;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    return usage("--workload, --seed, --seconds and --trace are required");
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0))
    return usage("--seconds must be in (0, 600]");
  bool known = false;
  for (const auto& n : workload_names()) known = known || n == cfg.workload;
  if (!known) return usage(("unknown workload " + cfg.workload).c_str());

  const HostInfo host = probe_host();
  std::printf("smmbench workload=%s seed=%llu seconds=%s trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              number(cfg.seconds).c_str(), cfg.trace ? 1 : 0);
  std::printf("host: %s\n", host.to_json().c_str());
  if (host.non_default())
    std::printf("WARNING: SMMKIT_* variables set; this run is non-default\n");

  RunResult res;
  try {
    res = run_workload(cfg, host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "smmbench: run failed: %s\n", e.what());
    return 1;
  }
  for (const std::string& note : res.notes) std::printf("  %s\n", note.c_str());

  // The traced run must report exactly the per-layer table.
  if (cfg.trace) {
    std::set<std::string> want, got;
    for (const auto& d : layer_metric_defs()) want.insert(d.name);
    for (const Metric& m : res.metrics) got.insert(m.name);
    if (want != got || got.size() != res.metrics.size()) {
      std::fprintf(stderr, "smmbench: traced metrics do not match the "
                           "per-layer table\n");
      return 1;
    }
  }

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "smmbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
    std::printf("  %-32s %14.6g %-8s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
    json += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
            number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return res.correct ? 0 : 1;
}
