#include "src/core/parallel_cost.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "src/core/kernel_select.h"
#include "src/core/plan_builder.h"
#include "src/matrix/matrix.h"
#include "src/pack/pack.h"
#include "src/plan/native_executor.h"
#include "src/plan/plan.h"
#include "src/threading/barrier.h"
#include "src/threading/thread_pool.h"

namespace smm::core {

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Best-of-reps mean: run `fn` once to warm, then `reps` batches of
/// `iters` calls and return the fastest batch's per-call ns. The min
/// discards scheduler preemptions, which on a timeshared host dwarf the
/// quantities being measured.
template <typename Fn>
double min_of_reps_ns(int reps, int iters, Fn&& fn) {
  fn();
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_ns();
    for (int i = 0; i < iters; ++i) fn();
    const double per_call = (now_ns() - t0) / iters;
    if (r == 0 || per_call < best) best = per_call;
  }
  return best;
}

/// One measurement, guarded: calibration runs lazily on the first
/// measured-path call, possibly with fault injection armed or under a
/// sanitizer; any throw falls back to the reference constant instead of
/// leaking out of what callers see as a pure query.
template <typename Fn>
double measure_or(double fallback, Fn&& fn) {
  try {
    return fn();
  } catch (...) {
    return fallback;
  }
}

double measure_flop_ns() {
  // Warm single-thread 48^3 run through the same plan machinery the
  // serial path uses; end-to-end so the constant absorbs per-call fixed
  // costs the way the paper's effective-performance curves do.
  const GemmShape shape{48, 48, 48};
  const KernelChoice tile = choose_main_tile(shape);
  BuildSpec spec;
  spec.mr = tile.mr;
  spec.nr = tile.nr;
  spec.pack_a = false;
  spec.pack_b = false;
  plan::GemmPlan plan;
  plan.strategy = "smm-calibrate";
  plan.shape = shape;
  plan.scalar = plan::ScalarType::kF32;
  build_smm_plan(plan, spec);
  Matrix<float> a(shape.m, shape.k);
  Matrix<float> b(shape.k, shape.n);
  Matrix<float> c(shape.m, shape.n);
  a.fill(1.0f);
  b.fill(0.5f);
  c.fill(0.0f);
  const double flops = 2.0 * shape.m * shape.n * shape.k;
  const double ns = min_of_reps_ns(5, 8, [&] {
    plan::execute_plan<float>(plan, 1.0f, a.view(), b.view(), 0.0f, c.view());
  });
  return std::max(1e-4, ns / flops);
}

double measure_pack_ns_per_elem() {
  Matrix<float> b(256, 128);
  b.fill(1.0f);
  std::vector<float> dst(
      static_cast<std::size_t>(pack::packed_b_size(256, 128, 4, true)));
  const double elems = 256.0 * 128.0;
  const double ns = min_of_reps_ns(
      5, 8, [&] { pack::pack_b<float>(b.view(), 4, true, dst.data()); });
  return std::max(1e-3, ns / elems);
}

double measure_dispatch_ns(int hw) {
  // Empty 2-wide region: pure fork-join handshake. Oversubscribed hosts
  // get fewer iterations — each region already costs context switches.
  const int iters = hw >= 2 ? 32 : 8;
  const double ns =
      min_of_reps_ns(4, iters, [] { par::run_parallel(2, [](int) {}); });
  return std::max(50.0, ns);
}

double measure_barrier_ns(int hw, double dispatch_ns) {
  const int rounds = hw >= 2 ? 256 : 32;
  const double region_ns = min_of_reps_ns(3, 1, [&] {
    par::Barrier bar(2);
    // A worker that fails before its first arrival (an injected throw or
    // hang) would strand its peer at the barrier: poison it, so the
    // measurement throws and measure_or falls back instead of hanging.
    par::run_parallel(
        2,
        [&](int) {
          for (int r = 0; r < rounds; ++r) bar.arrive_and_wait();
        },
        [&] { bar.poison(); });
  });
  return std::max(1.0, (region_ns - dispatch_ns) / rounds);
}

model::ParallelCostModel calibrate() {
  const model::ParallelCostModel ref = model::reference_cost_model();
  model::ParallelCostModel m;
  m.hw_threads = par::native_threads_available();
  m.flop_ns = measure_or(ref.flop_ns, measure_flop_ns);
  m.pack_ns_per_elem =
      measure_or(ref.pack_ns_per_elem, measure_pack_ns_per_elem);
  m.dispatch_ns = measure_or(
      ref.dispatch_ns, [&] { return measure_dispatch_ns(m.hw_threads); });
  m.barrier_ns = measure_or(ref.barrier_ns, [&] {
    return measure_barrier_ns(m.hw_threads, m.dispatch_ns);
  });
  m.measured = true;
  return m;
}

/// Once-per-process slot the model is resolved into, either by measuring
/// (calibrated_cost_model) or by seeding from a persisted tune table
/// (set_calibrated_model) — whichever happens first pins it for the
/// process lifetime, so every consumer prices against one set of
/// constants.
struct ModelSlot {
  std::mutex mu;
  std::atomic<bool> ready{false};
  model::ParallelCostModel model;
};

ModelSlot& model_slot() {
  static ModelSlot* slot = new ModelSlot;  // immortal: fork/exit safe
  return *slot;
}

}  // namespace

const model::ParallelCostModel& calibrated_cost_model() {
  ModelSlot& slot = model_slot();
  if (!slot.ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.ready.load(std::memory_order_relaxed)) {
      slot.model = calibrate();
      slot.ready.store(true, std::memory_order_release);
    }
  }
  return slot.model;
}

bool set_calibrated_model(const model::ParallelCostModel& m) {
  ModelSlot& slot = model_slot();
  std::lock_guard<std::mutex> lock(slot.mu);
  if (slot.ready.load(std::memory_order_relaxed)) return false;
  slot.model = m;
  slot.model.measured = true;
  slot.ready.store(true, std::memory_order_release);
  return true;
}

}  // namespace smm::core
