// The benchmark's own tests: the oracle check bites, the metric set does
// not depend on the seed, and the self-time arithmetic is right.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <sys/wait.h>

#include "harness/host.h"
#include "harness/layers.h"
#include "harness/trace.h"
#include "harness/workloads.h"
#include "src/robust/fault_injection.h"

namespace smmbench {
namespace {

std::map<std::string, std::string> names_and_units(const RunResult& r) {
  std::map<std::string, std::string> out;
  for (const Metric& m : r.metrics) out[m.name] = m.unit;
  return out;
}

RunResult quick_run(const std::string& workload, std::uint64_t seed,
                    bool trace, bool inject = false) {
  static const HostInfo host = probe_host();
  RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = seed;
  cfg.seconds = 0.3;
  cfg.trace = trace;
  cfg.inject_miscompute = inject;
  cfg.out_dir = ".bench_out/tests";
  return run_workload(cfg, host);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  // root [0,100): children [10,40) and [30,60) overlap, [90,120) spills
  // past the root; [15,20) is a grandchild under the first child.
  const std::vector<Span> spans = {
      {1, 0, 7, "root", 0, 100},  {2, 1, 7, "child", 10, 40},
      {3, 1, 7, "child", 30, 60}, {4, 1, 7, "tail", 90, 120},
      {5, 2, 7, "leaf", 15, 20},  {6, 0, 8, "root", 200, 250},
  };
  const auto t = layer_times(spans);
  EXPECT_EQ(t.at("root").count, 2u);
  EXPECT_DOUBLE_EQ(t.at("root").total_ns, 150.0);
  // 100 - |[10,60) u [90,100)| = 40, plus the childless second root: 50.
  EXPECT_DOUBLE_EQ(t.at("root").self_ns, 40.0 + 50.0);
  EXPECT_DOUBLE_EQ(t.at("child").total_ns, 60.0);
  EXPECT_DOUBLE_EQ(t.at("child").self_ns, (30.0 - 5.0) + 30.0);
  EXPECT_DOUBLE_EQ(t.at("tail").self_ns, 30.0);
  EXPECT_DOUBLE_EQ(t.at("leaf").self_ns, 5.0);
}

TEST(SelfTime, TracerRecordsUntilFull) {
  Tracer tr(2);
  const auto a = tr.open("a", 1);
  const auto b = tr.open("b", 1, a);
  tr.close(b);
  tr.close(a);
  EXPECT_EQ(tr.open("c", 1), 0u);
  ASSERT_EQ(tr.spans().size(), 2u);
  EXPECT_EQ(tr.spans()[1].parent, a);
  EXPECT_LE(tr.spans()[0].start_ns, tr.spans()[1].start_ns);
  EXPECT_GE(tr.spans()[0].end_ns, tr.spans()[1].end_ns);
}

TEST(Metrics, SameNamesAndUnitsForDifferentSeeds) {
  for (const std::string& w : workload_names()) {
    const RunResult a = quick_run(w, 1, false);
    const RunResult b = quick_run(w, 2, false);
    EXPECT_TRUE(a.correct && b.correct) << w;
    EXPECT_EQ(a.failed + b.failed, 0u) << w;
    EXPECT_EQ(names_and_units(a), names_and_units(b)) << w;
    EXPECT_EQ(names_and_units(a).count("setup_s"), 1u) << w;
  }
  const RunResult a = quick_run("serve_sync", 1, true);
  const RunResult b = quick_run("serve_sync", 2, true);
  EXPECT_EQ(names_and_units(a), names_and_units(b));
  EXPECT_EQ(a.metrics.size(), layer_metric_defs().size());
}

TEST(Checker, InjectedMiscomputeFailsTheRun) {
  const RunResult r = quick_run("gemm_tiny", 3, false, true);
  smm::robust::FaultInjector::instance().disarm_all();
  EXPECT_FALSE(r.correct);
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.attempted, r.failed);
}

TEST(Checker, InjectedMiscomputeMakesTheCommandExitNonzero) {
  const std::string cmd = std::string(SMMBENCH_BIN) +
                          " --workload gemm_tiny --seed 3 --seconds 0.3 "
                          "--trace 0 --inject-miscompute "
                          "--out-dir .bench_out/tests 2>/dev/null";
  FILE* p = popen(cmd.c_str(), "r");
  ASSERT_NE(p, nullptr);
  std::string last, line;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), p) != nullptr) {
    line += buf;
    if (!line.empty() && line.back() == '\n') {
      last = line;
      line.clear();
    }
  }
  const int status = pclose(p);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_NE(WEXITSTATUS(status), 0);
  EXPECT_NE(last.find("\"correct\": false"), std::string::npos) << last;
  EXPECT_EQ(last.find("\"failed\": 0,"), std::string::npos) << last;
}

}  // namespace
}  // namespace smmbench
