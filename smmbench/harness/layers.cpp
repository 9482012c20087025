#include "harness/layers.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "src/common/aligned_buffer.h"
#include "src/common/rng.h"
#include "src/common/str.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/kernels/microkernel.h"
#include "src/matrix/matrix.h"
#include "src/pack/pack.h"
#include "src/plan/native_executor.h"
#include "src/resilient/resilient.h"
#include "src/robust/abft.h"
#include "src/robust/guarded_executor.h"
#include "src/service/smm_service.h"
#include "src/threading/worker_pool.h"
#include "src/tune/tune.h"

namespace smmbench {

using smm::index_t;

const std::vector<LayerMetricDef>& layer_metric_defs() {
  static const std::vector<LayerMetricDef> defs = {
      {"core.plan_lookup_ns", "ns", "lower",
       "gemm_tiny ops_per_s, latency_p50_us"},
      {"core.dispatch_residual_ns", "ns", "lower",
       "gemm_tiny ops_per_s, latency_p50_us"},
      {"core.warm_call_ns", "ns", "lower",
       "gemm_tiny ops_per_s, latency_p50_us"},
      {"core.plan_build_us", "us", "lower",
       "setup_s (all); serve_coalesce latency_p99_us"},
      {"core.cold_call_us", "us", "lower",
       "setup_s (all); serve_coalesce latency_p99_us"},
      {"core.cold_remainder_us", "us", "lower", "setup_s (all)"},
      {"core.plan_cache_hit_ratio", "ratio", "higher",
       "serve_coalesce ops_per_s, latency_p99_us"},
      {"plan.execute_ns", "ns", "lower", "gemm_mid gflops"},
      {"plan.prepacked_run_ns", "ns", "lower", "gemm_mid gflops"},
      {"pack.pack_a_gbps", "GB/s", "higher", "gemm_mid gflops"},
      {"pack.pack_b_gbps", "GB/s", "higher", "gemm_mid gflops"},
      {"kernels.tile_gflops", "GFLOP/s", "higher", "gemm_mid gflops"},
      {"kernels.frac_peak", "ratio", "higher", "gemm_mid gflops"},
      {"threading.region_ns", "ns", "lower", "gemm_mid latency_p99_us"},
      {"threading.cold_region_ns", "ns", "lower", "setup_s (all)"},
      {"threading.spawn_fallback_share", "ratio", "lower",
       "gemm_mid latency_p99_us"},
      {"tune.sample_share", "ratio", "lower",
       "gemm_tiny ops_per_s; serve_coalesce setup_s"},
      {"tune.observe_cost_ns", "ns", "lower",
       "gemm_tiny ops_per_s; serve_coalesce setup_s"},
      {"tune.replans", "count", "lower",
       "gemm_tiny ops_per_s; serve_coalesce setup_s"},
      {"robust.abft_verify_ns", "ns", "lower", "gemm_mid gflops"},
      {"robust.guarded_overhead_ns", "ns", "lower", "gemm_mid gflops"},
      {"robust.integrity_detected", "count", "lower",
       "must stay 0 on every workload"},
      {"service.submit_ns", "ns", "lower",
       "serve_coalesce, serve_sync latency_p50_us"},
      {"service.wait_us.low", "us", "lower",
       "serve_coalesce, serve_sync latency_p99_us"},
      {"service.wait_us.normal", "us", "lower",
       "serve_coalesce, serve_sync latency_p50_us"},
      {"service.wait_us.high", "us", "lower",
       "serve_coalesce, serve_sync latency_p50_us"},
      {"service.items_per_group", "ratio", "higher",
       "serve_coalesce ops_per_s"},
      {"service.coalesced_share", "ratio", "higher",
       "serve_coalesce ops_per_s"},
      {"service.steal_share", "ratio", "higher", "serve_coalesce ops_per_s"},
      {"service.refused_share", "ratio", "lower", "ok_frac (all serve_*)"},
      {"shard.route_ns", "ns", "lower", "serve_coalesce latency_p99_us"},
      {"shard.admit_imbalance", "ratio", "lower",
       "serve_coalesce latency_p99_us"},
      {"failover.hedged_share", "ratio", "lower",
       "serve_coalesce latency_p99_us, ops_per_s"},
      {"failover.hedge_win_ratio", "ratio", "higher",
       "serve_coalesce latency_p99_us, ops_per_s"},
      {"resilient.execute_overhead_us", "us", "lower",
       "serve_sync latency_p50_us, ops_per_s"},
      {"resilient.attempts_per_request", "ratio", "lower",
       "serve_sync latency_p50_us, ops_per_s"},
      {"resilient.limiter_dips", "count", "lower",
       "serve_sync latency_p50_us, ops_per_s"},
      {"trace.overhead_frac", "ratio", "lower",
       "none (traced vs untraced ops_per_s of this workload)"},
      {"trace.coverage", "ratio", "higher",
       "none (layer self-time sum / untraced per-op latency)"},
  };
  return defs;
}

namespace {

/// Per-call ns of `fn`: at least `min_reps` calls, then until `max_reps`
/// or `budget_ns` of measured time, whichever comes first.
std::vector<double> time_calls(const std::function<void()>& fn, int min_reps,
                               int max_reps, double budget_ns) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(max_reps));
  double spent = 0.0;
  for (int r = 0; r < max_reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    const double ns = static_cast<double>(now_ns() - t0);
    out.push_back(ns);
    spent += ns;
    if (r + 1 >= min_reps && spent >= budget_ns) break;
  }
  return out;
}

constexpr double kProbeBudgetNs = 15e6;

/// Median plan build (us) of one shape on a fresh PlanCache.
double probe_plan_build_us(const ProbeShape& s, int nthreads) {
  using namespace smm;
  core::SmmOptions opts;
  if (s.trans_a) opts.pack_a = core::SmmOptions::Packing::kAlways;
  const auto scalar = s.f64 ? plan::ScalarType::kF64 : plan::ScalarType::kF32;
  std::vector<double> us;
  for (int rep = 0; rep < 7; ++rep) {
    core::PlanCache fresh(core::reference_smm());
    const std::int64_t t0 = now_ns();
    core::cached_smm_plan(fresh, GemmShape{s.m, s.n, s.k}, scalar, nthreads,
                          opts);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

/// Isolated per-shape layer timings (ns unless noted).
struct ShapeLayers {
  double lookup = 0, execute = 0, warm = 0, build_us = 0, prepacked = 0;
  double pack_a_bytes = 0, pack_a_ns = 0, pack_b_bytes = 0, pack_b_ns = 0;
  double abft = 0, guarded = 0, observe = 0, off = 0;
  bool abft_clean = true;
};

template <typename T>
ShapeLayers probe_one(const ProbeShape& s, std::uint64_t seed) {
  using namespace smm;
  Rng rng(seed);
  Matrix<T> a_store(s.trans_a ? s.k : s.m, s.trans_a ? s.m : s.k);
  Matrix<T> b(s.k, s.n), c(s.m, s.n);
  a_store.fill_random(rng);
  b.fill_random(rng);
  c.fill(T(0));
  const Trans ta = s.trans_a ? Trans::kTrans : Trans::kNoTrans;
  const ConstMatrixView<T> a = apply_trans(ta, a_store.cview());
  const T alpha = T(1), beta = T(0);
  // smm_gemm's Trans overload packs a transposed A; mirror it so the
  // decomposed calls resolve the very plan the public call uses.
  core::SmmOptions opts;
  if (s.trans_a) opts.pack_a = core::SmmOptions::Packing::kAlways;
  const GemmShape shape{s.m, s.n, s.k};
  const auto scalar = s.f64 ? plan::ScalarType::kF64 : plan::ScalarType::kF32;
  const auto warm_call = [&] {
    core::smm_gemm(ta, Trans::kNoTrans, alpha, a_store.cview(), b.cview(),
                   beta, c.view(), 1);
  };
  for (int i = 0; i < 3; ++i) warm_call();
  const auto p = core::cached_smm_plan(core::smm_plan_cache(), shape, scalar,
                                       1, opts);
  ShapeLayers r;
  r.lookup = median(time_calls(
      [&] {
        core::cached_smm_plan(core::smm_plan_cache(), shape, scalar, 1, opts);
      },
      50, 2000, kProbeBudgetNs / 3));
  r.execute = median(time_calls(
      [&] { plan::execute_plan(*p, alpha, a, b.cview(), beta, c.view()); }, 5,
      2000, kProbeBudgetNs));
  r.warm = median(time_calls(warm_call, 5, 2000, kProbeBudgetNs));

  // tune: the same warm call with the tuner off vs observing; blocks
  // alternate so drift cancels. Means, because a sampled call is rare.
  std::vector<double> off, observe;
  for (int block = 0; block < 4; ++block) {
    tune::set_mode_override(tune::Mode::kOff);
    const auto o = time_calls(warm_call, 64, 512, kProbeBudgetNs / 8);
    off.insert(off.end(), o.begin(), o.end());
    tune::set_mode_override(tune::Mode::kObserve);
    const auto w = time_calls(warm_call, 64, 512, kProbeBudgetNs / 8);
    observe.insert(observe.end(), w.begin(), w.end());
  }
  tune::set_mode_override(tune::Mode::kAuto);
  r.off = mean(off);
  r.observe = mean(observe);

  const auto h = core::smm_prepack_b(b.cview(), s.m, 1, opts);
  r.prepacked = median(time_calls([&] { h.run(alpha, a, beta, c.view()); },
                                  5, 2000, kProbeBudgetNs));

  AlignedBuffer<T> pa(pack::packed_a_size(s.m, s.k, 8, true));
  AlignedBuffer<T> pb(pack::packed_b_size(s.k, s.n, 12, true));
  r.pack_a_ns = median(time_calls([&] { pack::pack_a(a, 8, true, pa.data()); },
                                  5, 2000, kProbeBudgetNs / 2));
  r.pack_b_ns = median(time_calls(
      [&] { pack::pack_b(b.cview(), 12, true, pb.data()); }, 5, 2000,
      kProbeBudgetNs / 2));
  r.pack_a_bytes = static_cast<double>(pack::pack_traffic_bytes<T>(s.m, s.k));
  r.pack_b_bytes = static_cast<double>(pack::pack_traffic_bytes<T>(s.k, s.n));

  warm_call();
  r.abft = median(time_calls(
      [&] {
        const auto rep = robust::verify_gemm_checksum(
            alpha, a, b.cview(), beta, static_cast<const T*>(nullptr), 0,
            c.cview());
        r.abft_clean = r.abft_clean && rep.ok;
      },
      5, 2000, kProbeBudgetNs / 2));

  robust::GuardOptions gopts;
  gopts.abft = integrity::AbftMode::kDetect;
  robust::GuardedExecutor guard(gopts);
  for (int i = 0; i < 3; ++i) guard.run(alpha, a, b.cview(), beta, c.view());
  const double guarded = median(time_calls(
      [&] { guard.run(alpha, a, b.cview(), beta, c.view()); }, 5, 2000,
      kProbeBudgetNs));
  r.guarded = guarded - median(time_calls(warm_call, 5, 2000, kProbeBudgetNs));
  r.build_us = probe_plan_build_us(s, 1);
  return r;
}

/// Σ w·x / Σ w over the mix.
struct Weighted {
  double num = 0.0, den = 0.0;
  void add(double w, double x) {
    num += w * x;
    den += w;
  }
  [[nodiscard]] double value() const { return den > 0.0 ? num / den : 0.0; }
};


}  // namespace


void probe_shape_layers(const std::vector<ProbeShape>& mix,
                        std::uint64_t seed, std::vector<Metric>& out,
                        std::vector<std::string>& notes) {
  Weighted lookup, residual, warm, build, execute, prepacked, abft, guarded,
      observe;
  double pa_bytes = 0, pa_ns = 0, pb_bytes = 0, pb_ns = 0;
  bool abft_clean = true;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const ProbeShape& s = mix[i];
    const ShapeLayers r = s.f64 ? probe_one<double>(s, seed + i)
                                : probe_one<float>(s, seed + i);
    const double w = s.weight;
    lookup.add(w, r.lookup);
    residual.add(w, r.warm - r.lookup - r.execute);
    warm.add(w, r.warm);
    build.add(w, r.build_us);
    execute.add(w, r.execute);
    prepacked.add(w, r.prepacked);
    abft.add(w, r.abft);
    guarded.add(w, r.guarded);
    observe.add(w, r.observe - r.off);
    pa_bytes += w * r.pack_a_bytes;
    pa_ns += w * r.pack_a_ns;
    pb_bytes += w * r.pack_b_bytes;
    pb_ns += w * r.pack_b_ns;
    abft_clean = abft_clean && r.abft_clean;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "layers %ldx%ldx%ld %s%s: lookup %.0f ns, execute %.0f ns, "
                  "warm %.0f ns, residual %.0f ns, build %.1f us",
                  static_cast<long>(s.m), static_cast<long>(s.n),
                  static_cast<long>(s.k), s.f64 ? "f64" : "f32",
                  s.trans_a ? " transA" : "", r.lookup, r.execute, r.warm,
                  r.warm - r.lookup - r.execute, r.build_us);
    notes.emplace_back(line);
  }
  const std::string base =
      "mix-weighted medians over " + std::to_string(mix.size()) + " shapes";
  out.push_back({"core.plan_lookup_ns", "ns", lookup.value(), base});
  out.push_back({"core.dispatch_residual_ns", "ns", residual.value(),
                 base + " (warm - lookup - execute)"});
  out.push_back({"core.warm_call_ns", "ns", warm.value(), base});
  out.push_back({"core.plan_build_us", "us", build.value(),
                 base + ", fresh PlanCache each"});
  out.push_back({"plan.execute_ns", "ns", execute.value(), base});
  out.push_back({"plan.prepacked_run_ns", "ns", prepacked.value(), base});
  out.push_back({"pack.pack_a_gbps", "GB/s", pa_ns > 0 ? pa_bytes / pa_ns : 0,
                 "pack_traffic_bytes / time, mr=8 padded"});
  out.push_back({"pack.pack_b_gbps", "GB/s", pb_ns > 0 ? pb_bytes / pb_ns : 0,
                 "pack_traffic_bytes / time, nr=12 padded"});
  out.push_back({"tune.observe_cost_ns", "ns", observe.value(),
                 "mean warm call kObserve - kOff, " + base});
  out.push_back({"robust.abft_verify_ns", "ns", abft.value(),
                 base + (abft_clean ? ", all clean" : ", NOT CLEAN")});
  out.push_back({"robust.guarded_overhead_ns", "ns", guarded.value(),
                 "GuardedExecutor::run(detect) - smm_gemm, " + base});
}

namespace {

/// Median wall time (us) of the first smm_gemm call of `s` after the
/// process plan cache was emptied.
template <typename T>
double cold_call_us(const ProbeShape& s, int nthreads, std::uint64_t seed) {
  using namespace smm;
  std::vector<double> us;
  for (int rep = 0; rep < 5; ++rep) {
    Rng rng(seed + static_cast<std::uint64_t>(rep));
    Matrix<T> a(s.trans_a ? s.k : s.m, s.trans_a ? s.m : s.k);
    Matrix<T> b(s.k, s.n), c(s.m, s.n);
    a.fill_random(rng);
    b.fill_random(rng);
    core::smm_plan_cache().clear();
    const std::int64_t t0 = now_ns();
    core::smm_gemm(s.trans_a ? Trans::kTrans : Trans::kNoTrans,
                   Trans::kNoTrans, T(1), a.cview(), b.cview(), T(0),
                   c.view(), nthreads);
    us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  return median(us);
}

}  // namespace

void probe_cold_calls(const std::vector<ProbeShape>& mix, std::uint64_t seed,
                      std::vector<Metric>& out,
                      std::vector<std::string>& notes) {
  // The mix at one thread, plus 32^3 at two threads (weight 0: reported,
  // not averaged) for the multi-thread cold outlier.
  std::vector<ProbeShape> shapes = mix;
  shapes.push_back({32, 32, 32, false, false, 0.0});
  Weighted cold, rest;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ProbeShape& s = shapes[i];
    const int nt = i + 1 == shapes.size() ? 2 : 1;
    const double call_us = s.f64 ? cold_call_us<double>(s, nt, seed)
                                 : cold_call_us<float>(s, nt, seed);
    const double build_us = probe_plan_build_us(s, nt);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "cold %ldx%ldx%ld %s%s t=%d: call %.1f us = plan build "
                  "%.1f us + remainder %.1f us",
                  static_cast<long>(s.m), static_cast<long>(s.n),
                  static_cast<long>(s.k), s.f64 ? "f64" : "f32",
                  s.trans_a ? " transA" : "", nt, call_us, build_us,
                  call_us - build_us);
    notes.emplace_back(line);
    cold.add(s.weight, call_us);
    rest.add(s.weight, call_us - build_us);
  }
  out.push_back({"core.cold_call_us", "us", cold.value(),
                 "mix-weighted median first call, empty plan cache"});
  out.push_back({"core.cold_remainder_us", "us", rest.value(),
                 "cold call - plan build (a cold pool's first region is "
                 "threading.cold_region_ns)"});
}

void probe_kernel(double peak_f32_gflops, std::vector<Metric>& out) {
  using namespace smm;
  constexpr index_t kMr = 8, kNr = 12, kKc = 256;
  AlignedBuffer<float> a(kMr * kKc), b(kKc * kNr), c(kMr * kNr);
  Rng rng(7);
  for (index_t i = 0; i < kMr * kKc; ++i)
    a.data()[i] = static_cast<float>(rng.uniform(-1, 1));
  for (index_t i = 0; i < kKc * kNr; ++i)
    b.data()[i] = static_cast<float>(rng.uniform(-1, 1));
  for (index_t i = 0; i < kMr * kNr; ++i) c.data()[i] = 0.0f;
  kern::KernelOperands<float> ops;
  kern::set_packed_a(ops, a.data(), kMr);
  kern::set_packed_b(ops, b.data(), kNr);
  ops.c = c.data();
  ops.c_rs = 1;
  ops.c_cs = kMr;
  constexpr int kCallsPerRep = 200;
  const double flops_per_call = 2.0 * kMr * kNr * kKc;
  const double bytes_per_call =
      static_cast<double>((kMr * kKc + kKc * kNr + 2 * kMr * kNr) *
                          static_cast<index_t>(sizeof(float)));
  const auto reps = time_calls(
      [&] {
        for (int i = 0; i < kCallsPerRep; ++i)
          kern::tile_microkernel<float, kMr, kNr>(kKc, 1.0f, 0.5f, ops, kMr,
                                                  kNr);
      },
      20, 400, 40e6);
  const double gflops = flops_per_call * kCallsPerRep / median(reps);
  const std::string base =
      smm::strprintf("8x12 f32 packed, kc=256: %.0f flop", flops_per_call) +
      smm::strprintf(" and %.0f B per call", bytes_per_call);
  out.push_back({"kernels.tile_gflops", "GFLOP/s", gflops, base});
  out.push_back({"kernels.frac_peak", "ratio",
                 peak_f32_gflops > 0 ? gflops / peak_f32_gflops : 0.0,
                 smm::strprintf("base: in-run f32 FMA peak %.2f GFLOP/s",
                     peak_f32_gflops)});
}

void probe_threading(std::vector<Metric>& out) {
  using smm::par::WorkerPool;
  const std::function<void(int)> body = [](int) {};
  const std::function<void()> on_fail = [] {};
  std::vector<std::exception_ptr> errors(2);
  WorkerPool& pool = WorkerPool::instance();
  for (int i = 0; i < 10; ++i) pool.try_run(2, body, on_fail, errors);
  const auto warm = time_calls(
      [&] { pool.try_run(2, body, on_fail, errors); }, 200, 2000, 10e6);
  std::vector<double> cold;
  for (int rep = 0; rep < 5; ++rep) {
    auto fresh = WorkerPool::create_private();
    const std::int64_t t0 = now_ns();
    fresh->try_run(2, body, on_fail, errors);
    cold.push_back(static_cast<double>(now_ns() - t0));
    fresh->release_threads();
  }
  out.push_back({"threading.region_ns", "ns", median(warm),
                 "WorkerPool::instance().try_run(2) median of " +
                     std::to_string(warm.size())});
  out.push_back({"threading.cold_region_ns", "ns", median(cold),
                 "first try_run(2) of a fresh private pool, median of 5"});
}

ServiceProbe probe_service(smm::service::SmmService& svc,
                           const std::vector<int>& cubes,
                           std::uint64_t seed) {
  using namespace smm;
  using service::Priority;
  ServiceProbe r;
  Rng rng(seed);
  std::vector<Matrix<float>> as, bs, cs;
  for (const int e : cubes) {
    as.emplace_back(e, e);
    bs.emplace_back(e, e);
    cs.emplace_back(e, e);
    as.back().fill_random(rng);
    bs.back().fill_random(rng);
    cs.back().fill(0.0f);
  }
  const std::size_t n = cubes.size();

  constexpr int kRouteBlock = 100;
  std::vector<double> route;
  for (int rep = 0; rep < 50; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kRouteBlock; ++i) {
      const int e = cubes[static_cast<std::size_t>(i) % n];
      (void)svc.route_shard(e, e, e, 0);
    }
    route.push_back(static_cast<double>(now_ns() - t0) / kRouteBlock);
  }
  r.route_ns = median(route);

  std::vector<double> submit, wait[3];
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t s = static_cast<std::size_t>(rep) % n;
    const auto prio = static_cast<Priority>(rep % 3);
    const std::int64_t t0 = now_ns();
    service::Ticket t = svc.submit(1.0f, as[s].cview(), bs[s].cview(), 0.0f,
                                   cs[s].view(), prio);
    const std::int64_t t1 = now_ns();
    t.wait();
    const std::int64_t t2 = now_ns();
    submit.push_back(static_cast<double>(t1 - t0));
    wait[rep % 3].push_back(static_cast<double>(t2 - t1) / 1e3);
  }
  r.submit_ns = median(submit);
  for (int p = 0; p < 3; ++p) r.wait_us[p] = median(wait[p]);

  resilient::ResilientClient client(svc);
  std::vector<double> raw, exec;
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t s = static_cast<std::size_t>(rep) % n;
    // Alternate which of the pair goes first.
    for (int k = 0; k < 2; ++k) {
      const std::int64_t t0 = now_ns();
      if ((k + rep) % 2 == 0) {
        svc.submit(1.0f, as[s].cview(), bs[s].cview(), 0.0f, cs[s].view())
            .wait();
        raw.push_back(static_cast<double>(now_ns() - t0));
      } else {
        client.execute(1.0f, as[s].cview(), bs[s].cview(), 0.0f,
                       cs[s].view());
        exec.push_back(static_cast<double>(now_ns() - t0));
      }
    }
  }
  r.execute_overhead_us = (median(exec) - median(raw)) / 1e3;
  const auto st = client.stats();
  if (st.calls > 0)
    r.attempts_per_request = static_cast<double>(st.calls + st.retries) /
                             static_cast<double>(st.calls);
  return r;
}

}  // namespace smmbench
