#include "harness/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "harness/layers.h"
#include "harness/trace.h"
#include "src/common/error.h"
#include "src/common/rng.h"
#include "src/common/str.h"
#include "src/core/batched.h"
#include "src/core/plan_cache.h"
#include "src/core/smm.h"
#include "src/libs/naive.h"
#include "src/matrix/compare.h"
#include "src/matrix/matrix.h"
#include "src/plan/native_executor.h"
#include "src/resilient/resilient.h"
#include "src/robust/fault_injection.h"
#include "src/robust/guarded_executor.h"
#include "src/robust/health.h"
#include "src/service/smm_service.h"

namespace smmbench {

namespace {

using smm::ConstMatrixView;
using smm::index_t;
using smm::Matrix;
using smm::MatrixView;
using smm::Rng;
using smm::Trans;
using smm::service::Priority;

// One timed op in kSampleEvery has its output kept for the oracle check.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kMaxDeferredChecks = 2000;
// The traced phase stops here; the decomposed replay fills the rest.
constexpr std::size_t kTraceCapacity = 250000;
constexpr std::size_t kTracedPhaseSpans = 150000;


std::vector<double> zipf_weights(std::size_t n, double s) {
  std::vector<double> w(n);
  for (std::size_t r = 0; r < n; ++r)
    w[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
  return w;
}

/// `length` indices whose counts follow `weights` exactly (largest
/// remainder), in a seeded order: the mix is the same for every seed and
/// only the order and the operands vary.
std::vector<int> stratified(const std::vector<double>& weights,
                            std::size_t length, Rng& rng) {
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<std::size_t> count(weights.size());
  std::vector<std::pair<double, std::size_t>> rem;
  std::size_t used = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double exact = weights[i] / total * static_cast<double>(length);
    count[i] = static_cast<std::size_t>(exact);
    used += count[i];
    rem.emplace_back(exact - static_cast<double>(count[i]), i);
  }
  std::sort(rem.begin(), rem.end(), std::greater<>());
  for (std::size_t i = 0; used < length; ++i, ++used) count[rem[i].second]++;
  std::vector<int> seq;
  for (std::size_t i = 0; i < weights.size(); ++i)
    seq.insert(seq.end(), count[i], static_cast<int>(i));
  for (std::size_t i = seq.size(); i > 1; --i)
    std::swap(seq[i - 1], seq[static_cast<std::size_t>(
                              rng.next_index(static_cast<index_t>(i)))]);
  return seq;
}

// ------------------------------------------------------------------ checks

/// One output kept for the oracle: the operands as the call saw them,
/// the C it started from (beta != 0 only) and the C it produced.
template <typename T>
struct CheckRecord {
  std::string label;
  T alpha{}, beta{};
  ConstMatrixView<T> a, b;
  std::vector<T> c_in;
  std::vector<T> c_out;
};

template <typename T>
std::vector<T> copy_of(ConstMatrixView<T> c) {
  std::vector<T> out(static_cast<std::size_t>(c.rows() * c.cols()));
  for (index_t j = 0; j < c.cols(); ++j)
    for (index_t i = 0; i < c.rows(); ++i)
      out[static_cast<std::size_t>(i + j * c.rows())] = c(i, j);
  return out;
}

/// Compares kept outputs with libs::naive_gemm via gemm_allclose, always
/// outside the timed regions.
class Checker {
 public:
  /// Keep an output for the check; `c_in` empty means beta == 0.
  template <typename T>
  void keep(std::string label, T alpha, ConstMatrixView<T> a,
            ConstMatrixView<T> b, T beta, std::vector<T> c_in,
            ConstMatrixView<T> c_out) {
    CheckRecord<T> r{std::move(label), alpha, beta, a, b, std::move(c_in),
                     copy_of(c_out)};
    records<T>().push_back(std::move(r));
  }

  [[nodiscard]] std::size_t pending() const {
    return f32_.size() + f64_.size();
  }

  /// Verify and drop every kept output.
  void verify() {
    run(f32_);
    run(f64_);
  }

  [[nodiscard]] std::uint64_t checked() const { return checked_; }
  [[nodiscard]] std::uint64_t wrong() const { return wrong_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  template <typename T>
  std::vector<CheckRecord<T>>& records() {
    if constexpr (std::is_same_v<T, float>)
      return f32_;
    else
      return f64_;
  }

  template <typename T>
  void run(std::vector<CheckRecord<T>>& recs) {
    for (const auto& r : recs) {
      const index_t m = r.a.rows(), n = r.b.cols();
      Matrix<T> expected(m, n);
      double c_mag = 0.0;
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i) {
          const T v = r.c_in.empty()
                          ? T(0)
                          : r.c_in[static_cast<std::size_t>(i + j * m)];
          expected(i, j) = v;
          c_mag = std::max(c_mag, std::abs(static_cast<double>(v)));
        }
      smm::libs::naive_gemm(r.alpha, r.a, r.b, r.beta, expected.view());
      const ConstMatrixView<T> actual(r.c_out.data(), m, n, m);
      const double scale = std::abs(static_cast<double>(r.alpha)) +
                           std::abs(static_cast<double>(r.beta)) *
                               std::max(1.0, c_mag);
      ++checked_;
      if (!smm::gemm_allclose(actual, expected.cview(), r.a.cols(), scale)) {
        ++wrong_;
        if (failures_.size() < 8)
          failures_.push_back(
              r.label +
              smm::strprintf(": max |diff| %.3g",
                             smm::max_abs_diff(actual, expected.cview())));
      }
    }
    recs.clear();
  }

  std::vector<CheckRecord<float>> f32_;
  std::vector<CheckRecord<double>> f64_;
  std::uint64_t checked_ = 0;
  std::uint64_t wrong_ = 0;
  std::vector<std::string> failures_;
};

// ------------------------------------------------------------------ phases

enum class Outcome { kOk, kRefused, kStopped, kFailed };

Outcome outcome_of(const smm::service::Result& r) {
  using smm::ErrorCode;
  if (r.ok) return Outcome::kOk;
  if (r.code == ErrorCode::kOverloaded || r.code == ErrorCode::kShuttingDown)
    return Outcome::kRefused;
  if (r.code == ErrorCode::kCancelled ||
      r.code == ErrorCode::kDeadlineExceeded)
    return Outcome::kStopped;
  return Outcome::kFailed;
}

/// Outcome counts and timings of a workload's traffic, one window per
/// run_phase call. The end-to-end rates and latency quantiles are read
/// from the best-decile window (kBestDecile): on a shared host the
/// process spends stretches of a run slowed by other tenants (a 4-vCPU
/// KVM Xeon showed warm calls 1.7x slower for seconds at a time), and
/// that only ever makes windows worse, while a slower program moves every
/// window.
class PhaseStats {
 public:
  std::uint64_t attempted = 0, ok = 0, refused = 0, stopped = 0, failed = 0;

  /// Open a window at `t`.
  void begin(std::int64_t t) {
    windows_.emplace_back();
    window_start_ = t;
    window_paused_ = 0;
  }

  /// One op that ran from t0 to t1; `op_flops` counts when it was ok.
  void op(std::int64_t t0, std::int64_t t1, Outcome o, double op_flops) {
    ++attempted;
    ++(o == Outcome::kOk        ? ok
       : o == Outcome::kRefused ? refused
       : o == Outcome::kStopped ? stopped
                                : failed);
    const double ns = static_cast<double>(t1 - t0);
    latency_sum_ns_ += ns;
    Window& w = windows_.back();
    w.latency.add(ns);
    if (o == Outcome::kOk) {
      ++w.ok;
      w.flops += op_flops;
    }
  }

  /// Time the benchmark spent on its own work (keeping outputs for the
  /// check): off the clock.
  void pause(std::int64_t ns) { window_paused_ += ns; }

  /// Close the window at `t`.
  void end(std::int64_t t) {
    windows_.back().wall_ns =
        static_cast<double>(t - window_start_ - window_paused_);
  }

  /// Rate over every window (the traced run's overhead comparison).
  [[nodiscard]] double ops_per_s() const {
    double ok_ops = 0.0, wall = 0.0;
    for (const Window& w : windows_) {
      ok_ops += static_cast<double>(w.ok);
      wall += w.wall_ns;
    }
    return wall > 0.0 ? ok_ops / (wall * 1e-9) : 0.0;
  }
  [[nodiscard]] double wall_s() const {
    double wall = 0.0;
    for (const Window& w : windows_) wall += w.wall_ns;
    return wall * 1e-9;
  }
  [[nodiscard]] double mean_latency_ns() const {
    return attempted > 0 ? latency_sum_ns_ / static_cast<double>(attempted)
                         : 0.0;
  }
  [[nodiscard]] std::size_t windows() const { return windows_.size(); }
  [[nodiscard]] std::uint64_t min_window_ops() const {
    std::uint64_t m = windows_.empty() ? 0 : windows_.front().latency.count();
    for (const Window& w : windows_) m = std::min(m, w.latency.count());
    return m;
  }

  /// Ok ops per second of the best-decile window.
  [[nodiscard]] double window_ops_per_s() const {
    return over_windows(kBestDecile, [](const Window& w) {
      return static_cast<double>(w.ok) / (w.wall_ns * 1e-9);
    });
  }
  /// GFLOP/s (sum of 2mnk over ok ops / wall) of the best-decile window.
  [[nodiscard]] double window_gflops() const {
    return over_windows(kBestDecile,
                        [](const Window& w) { return w.flops / w.wall_ns; });
  }
  /// Per-op latency quantile `q` (ns) of the best-decile window.
  [[nodiscard]] double window_latency(double q) const {
    return over_windows(1.0 - kBestDecile, [q](const Window& w) {
      return w.latency.quantile(q);
    });
  }

  /// Windows are ranked by each figure; the one 90% of the way from
  /// worst to best is reported.
  static constexpr double kBestDecile = 0.9;

 private:
  struct Window {
    std::uint64_t ok = 0;
    double flops = 0.0;
    double wall_ns = 0.0;
    LatencySamples latency{std::size_t{1} << 13};
  };

  /// Quantile `q` over the windows of the figure `f`.
  template <typename F>
  double over_windows(double q, F f) const {
    std::vector<double> v;
    for (const Window& w : windows_)
      if (w.wall_ns > 0.0) v.push_back(f(w));
    return quantile(std::move(v), q);
  }

  std::vector<Window> windows_;
  std::int64_t window_start_ = 0;
  std::int64_t window_paused_ = 0;
  double latency_sum_ns_ = 0.0;
};

/// Set-up rounds after round 0, spread evenly between the measured
/// windows, so setup_s samples the same stretch of time as the traffic.
constexpr int kSpreadSetupRounds = 15;

/// Whether the output of this op is kept for the oracle.
class Sampler {
 public:
  explicit Sampler(std::uint64_t seed) : rng_(seed) {}
  bool take(const Checker& checker) {
    return rng_.next_u64() % kSampleEvery == 0 &&
           checker.pending() < kMaxDeferredChecks;
  }

 private:
  Rng rng_;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Fresh state, then the first call of every distinct (shape, entry
  /// point), each kept for the check. Returns the set-up seconds.
  virtual double setup_round(Checker& checker) = 0;
  /// Traffic for `seconds`. With a tracer, one span per public call;
  /// the phase ends early when `span_limit` spans are recorded.
  virtual void run_phase(double seconds, Tracer* tracer,
                         std::size_t span_limit, Checker& checker,
                         PhaseStats& stats) = 0;
  /// The traced run's decomposed replay of warm smm_gemm calls into
  /// cached_smm_plan + execute_plan spans, each paired with an untraced
  /// smm_gemm on the same operands. Returns the untraced calls' summed
  /// time (0: nothing to replay).
  virtual double replay(double /*seconds*/, Tracer& /*tracer*/) {
    return 0.0;
  }
  /// The shape mix the per-layer probes use.
  [[nodiscard]] virtual std::vector<ProbeShape> probe_mix() const = 0;
  /// Windows the untraced run is cut into: as many as keep more than
  /// 1000 ops in each (so each window's p99 has ten samples beyond it).
  [[nodiscard]] virtual int windows() const = 0;
  /// The workload's service, if it runs one, and its stats as the last
  /// set-up round left them.
  virtual smm::service::SmmService* service() { return nullptr; }
  [[nodiscard]] virtual smm::service::SmmService::Stats service_baseline()
      const {
    return {};
  }
  /// The workload's resilient client, if it drives one.
  virtual smm::resilient::ResilientClient* client() { return nullptr; }
};

// ------------------------------------------------------------------ GEMM

enum class Entry { kGemm, kPrepacked, kBatched, kGuarded };

struct ShapeDef {
  index_t m, n, k;
  bool f64;
  bool trans_a;
};

struct Combo {
  int shape;
  Entry entry;
  int nthreads;
  const char* span;  ///< name of the span around this public call
};

std::string shape_label(const ShapeDef& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%ldx%ldx%ld %s%s", static_cast<long>(s.m),
                static_cast<long>(s.n), static_cast<long>(s.k),
                s.f64 ? "f64" : "f32", s.trans_a ? " transA" : "");
  return buf;
}

const char* entry_span(Entry e, int nthreads) {
  switch (e) {
    case Entry::kGemm:
      return nthreads > 1 ? "core.smm_gemm.t2" : "core.smm_gemm";
    case Entry::kPrepacked: return "plan.prepacked_run";
    case Entry::kBatched: return "core.batched_smm_each";
    case Entry::kGuarded: return "robust.guarded_run";
  }
  return "?";
}

/// Items per batched_smm_each call (they share one B).
constexpr int kBatch = 4;
/// Operand sets per shape the calls rotate over.
constexpr int kSets = 4;

template <typename T>
struct Operands {
  ShapeDef shape{};
  std::vector<Matrix<T>> a;  ///< stored A (k x m when trans_a)
  std::vector<Matrix<T>> b;
  std::vector<Matrix<T>> c;
  std::unique_ptr<smm::plan::PrepackedB<T>> prepacked;  ///< over b[0]
  std::vector<smm::core::GemmBatchItem<T>> batch;       ///< b[0], sets 0..3

  [[nodiscard]] ConstMatrixView<T> op_a(int set) const {
    return smm::apply_trans(shape.trans_a ? Trans::kTrans : Trans::kNoTrans,
                            a[static_cast<std::size_t>(set)].cview());
  }
};

/// Warm calls against the library API from one caller thread.
class GemmWorkload final : public Workload {
 public:
  GemmWorkload(std::vector<ShapeDef> shapes, std::vector<Combo> combos,
               const std::vector<double>& combo_weights, std::size_t length,
               float alpha, int windows, std::uint64_t seed)
      : shapes_(std::move(shapes)),
        combos_(std::move(combos)),
        weights_(combo_weights),
        alpha_(alpha),
        windows_(windows),
        sampler_(seed ^ 0x5a5a5a5aULL) {
    Rng rng(seed);
    for (const ShapeDef& s : shapes_) {
      slot_.push_back(s.f64 ? static_cast<int>(f64_.size())
                            : static_cast<int>(f32_.size()));
      if (s.f64)
        f64_.push_back(make_operands<double>(s, rng));
      else
        f32_.push_back(make_operands<float>(s, rng));
    }
    const std::vector<int> order = stratified(weights_, length, rng);
    for (const int c : order)
      seq_.push_back({c, static_cast<int>(rng.next_index(kSets))});
  }

  double setup_round(Checker& checker) override {
    using namespace smm;
    const std::int64_t t0 = now_ns();
    core::smm_plan_cache().clear();
    batch_cache_ = std::make_unique<core::PlanCache>(core::reference_smm());
    robust::GuardOptions gopts;
    gopts.abft = integrity::AbftMode::kDetect;
    guard_ = std::make_unique<robust::GuardedExecutor>(gopts);
    for (auto& o : f32_) o.prepacked.reset();
    for (auto& o : f64_) o.prepacked.reset();
    std::int64_t checks_ns = 0;
    for (std::size_t c = 0; c < combos_.size(); ++c) {
      run_op(c, 0);
      const std::int64_t k0 = now_ns();
      keep(c, 0, checker);
      checks_ns += now_ns() - k0;
    }
    return static_cast<double>(now_ns() - t0 - checks_ns) * 1e-9;
  }

  void run_phase(double seconds, Tracer* tracer, std::size_t span_limit,
                 Checker& checker, PhaseStats& st) override {
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    st.begin(start);
    std::int64_t end = start;
    while (end < deadline) {
      if (tracer != nullptr && tracer->spans().size() >= span_limit) break;
      const Step& e = seq_[pos_++ % seq_.size()];
      const auto c = static_cast<std::size_t>(e.combo);
      const std::int64_t t0 = now_ns();
      const bool ok = run_op(c, e.set);
      const std::int64_t t1 = now_ns();
      end = t1;
      st.op(t0, t1, ok ? Outcome::kOk : Outcome::kFailed, flops(combos_[c]));
      if (tracer != nullptr)
        tracer->add(combos_[c].span, st.attempted, 0, t0, t1);
      if (ok && sampler_.take(checker)) {
        keep(c, e.set, checker);
        end = now_ns();
        st.pause(end - t1);
      }
    }
    st.end(end);
  }

  double replay(double seconds, Tracer& tracer) override {
    const auto deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    double untraced_ns = 0.0;
    std::uint64_t req = 1u << 31;
    std::size_t replayed = 0;
    for (std::size_t i = 0; now_ns() < deadline && tracer.spans().size() + 3 <=
                                                        kTraceCapacity;
         ++i) {
      const Step& e = seq_[i % seq_.size()];
      const auto c = static_cast<std::size_t>(e.combo);
      if (combos_[c].entry != Entry::kGemm) continue;
      // Each decomposed call is paired with the untraced public call on
      // the same operands, alternating which goes first, so drift in the
      // host's speed and cache warmth cancel out of the coverage ratio.
      const bool plain_first = replayed++ % 2 == 0;
      const auto plain = [&] {
        const std::int64_t t0 = now_ns();
        run_op(c, e.set);
        untraced_ns += static_cast<double>(now_ns() - t0);
      };
      if (plain_first) plain();
      const ShapeDef& s = shapes_[static_cast<std::size_t>(combos_[c].shape)];
      if (s.f64)
        replay_one(f64_[slot(combos_[c].shape)], combos_[c], e.set, ++req,
                   tracer);
      else
        replay_one(f32_[slot(combos_[c].shape)], combos_[c], e.set, ++req,
                   tracer);
      if (!plain_first) plain();
    }
    return untraced_ns;
  }

  [[nodiscard]] int windows() const override { return windows_; }

  [[nodiscard]] std::vector<ProbeShape> probe_mix() const override {
    std::vector<double> w(shapes_.size(), 0.0);
    for (std::size_t c = 0; c < combos_.size(); ++c)
      w[static_cast<std::size_t>(combos_[c].shape)] += weights_[c];
    std::vector<ProbeShape> mix;
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      const ShapeDef& s = shapes_[i];
      mix.push_back({s.m, s.n, s.k, s.f64, s.trans_a, w[i]});
    }
    return mix;
  }

 private:
  struct Step {
    int combo;
    int set;
  };

  template <typename T>
  static Operands<T> make_operands(const ShapeDef& s, Rng& rng) {
    Operands<T> o;
    o.shape = s;
    for (int i = 0; i < kSets; ++i) {
      o.a.emplace_back(s.trans_a ? s.k : s.m, s.trans_a ? s.m : s.k);
      o.b.emplace_back(s.k, s.n);
      o.c.emplace_back(s.m, s.n);
      o.a.back().fill_random(rng);
      o.b.back().fill_random(rng);
      o.c.back().fill(T(0));
    }
    for (int i = 0; i < kBatch; ++i)
      o.batch.push_back({o.op_a(i), o.b[0].cview(),
                         o.c[static_cast<std::size_t>(i)].view()});
    return o;
  }

  std::size_t slot(int shape) const {
    return static_cast<std::size_t>(slot_[static_cast<std::size_t>(shape)]);
  }

  double flops(const Combo& c) const {
    const ShapeDef& s = shapes_[static_cast<std::size_t>(c.shape)];
    const double f = 2.0 * static_cast<double>(s.m) *
                     static_cast<double>(s.n) * static_cast<double>(s.k);
    return c.entry == Entry::kBatched ? f * kBatch : f;
  }

  bool run_op(std::size_t c, int set) {
    const Combo& combo = combos_[c];
    if (shapes_[static_cast<std::size_t>(combo.shape)].f64)
      return run_typed(f64_[slot(combo.shape)], combo, set);
    return run_typed(f32_[slot(combo.shape)], combo, set);
  }

  template <typename T>
  bool run_typed(Operands<T>& o, const Combo& combo, int set) {
    using namespace smm;
    const T alpha = static_cast<T>(alpha_);
    const auto si = static_cast<std::size_t>(set);
    try {
      switch (combo.entry) {
        case Entry::kGemm:
          core::smm_gemm(o.shape.trans_a ? Trans::kTrans : Trans::kNoTrans,
                         Trans::kNoTrans, alpha, o.a[si].cview(),
                         o.b[si].cview(), T(0), o.c[si].view(),
                         combo.nthreads);
          return true;
        case Entry::kPrepacked:
          if (!o.prepacked)
            o.prepacked = std::make_unique<plan::PrepackedB<T>>(
                core::smm_prepack_b(o.b[0].cview(), o.shape.m, 1));
          o.prepacked->run(alpha, o.op_a(set), T(0), o.c[si].view());
          return true;
        case Entry::kBatched: {
          const auto status = core::batched_smm_each(alpha, o.batch, T(0),
                                                     *batch_cache_, 1);
          for (const auto& s : status)
            if (!s.ok) return false;
          return true;
        }
        case Entry::kGuarded:
          return guard_
              ->run(alpha, o.op_a(set), o.b[si].cview(), T(0), o.c[si].view())
              .ok();
      }
    } catch (const Error&) {
      return false;
    }
    return false;
  }

  void keep(std::size_t c, int set, Checker& checker) {
    const Combo& combo = combos_[c];
    if (shapes_[static_cast<std::size_t>(combo.shape)].f64)
      keep_typed(f64_[slot(combo.shape)], combo, set, checker);
    else
      keep_typed(f32_[slot(combo.shape)], combo, set, checker);
  }

  template <typename T>
  void keep_typed(const Operands<T>& o, const Combo& combo, int set,
                  Checker& checker) {
    const std::string label =
        shape_label(o.shape) + " " + entry_span(combo.entry, combo.nthreads);
    const T alpha = static_cast<T>(alpha_);
    if (combo.entry == Entry::kBatched) {
      for (int i = 0; i < kBatch; ++i)
        checker.keep<T>(label, alpha, o.op_a(i), o.b[0].cview(), T(0), {},
                        o.c[static_cast<std::size_t>(i)].cview());
      return;
    }
    const auto& b = combo.entry == Entry::kPrepacked
                        ? o.b[0]
                        : o.b[static_cast<std::size_t>(set)];
    checker.keep<T>(label, alpha, o.op_a(set), b.cview(), T(0), {},
                    o.c[static_cast<std::size_t>(set)].cview());
  }

  template <typename T>
  void replay_one(Operands<T>& o, const Combo& combo, int set,
                  std::uint64_t req, Tracer& tracer) {
    using namespace smm;
    // The Trans overload of smm_gemm packs a transposed A; resolve the
    // same plan it would.
    core::SmmOptions opts;
    if (o.shape.trans_a) opts.pack_a = core::SmmOptions::Packing::kAlways;
    const auto si = static_cast<std::size_t>(set);
    const auto scalar =
        o.shape.f64 ? plan::ScalarType::kF64 : plan::ScalarType::kF32;
    const std::uint32_t root =
        tracer.open("core.smm_gemm.decomposed", req);
    const std::uint32_t lookup =
        tracer.open("core.cached_smm_plan", req, root);
    const auto p = core::cached_smm_plan(
        core::smm_plan_cache(), GemmShape{o.shape.m, o.shape.n, o.shape.k},
        scalar, combo.nthreads, opts);
    tracer.close(lookup);
    const std::uint32_t exec = tracer.open("plan.execute_plan", req, root);
    plan::execute_plan(*p, static_cast<T>(alpha_), o.op_a(set),
                       o.b[si].cview(), T(0), o.c[si].view());
    tracer.close(exec);
    tracer.close(root);
  }

  std::vector<ShapeDef> shapes_;
  std::vector<Combo> combos_;
  std::vector<double> weights_;
  float alpha_;
  int windows_;
  Sampler sampler_;
  std::vector<int> slot_;  ///< shape -> index into f32_ / f64_
  std::vector<Operands<float>> f32_;
  std::vector<Operands<double>> f64_;
  std::vector<Step> seq_;
  std::size_t pos_ = 0;
  std::unique_ptr<smm::core::PlanCache> batch_cache_;
  std::unique_ptr<smm::robust::GuardedExecutor> guard_;
};

std::unique_ptr<Workload> make_gemm_tiny(std::uint64_t seed) {
  // Dispatch-dominated shapes, most frequent first (Zipf s=1.1). The
  // rank order puts the mix's median inside one shape's latency cluster
  // (6^3 f64 spans the 42nd..60th percentile) and its 99th inside another
  // (32^3, the top 3.7%), so neither quantile flips between two shapes
  // when the host's speed shifts.
  std::vector<ShapeDef> shapes = {
      {4, 4, 4, false, false},    {6, 6, 6, true, false},
      {12, 12, 12, true, false},  {13, 17, 19, false, false},
      {8, 8, 8, false, false},    {16, 16, 16, false, false},
      {16, 16, 16, false, true},  {32, 32, 32, false, false},
      {2, 32, 32, false, false},  {32, 4, 32, true, false},
      {24, 24, 24, false, false}};
  std::vector<Combo> combos;
  for (std::size_t i = 0; i < shapes.size(); ++i)
    combos.push_back({static_cast<int>(i), Entry::kGemm, 1,
                      entry_span(Entry::kGemm, 1)});
  return std::make_unique<GemmWorkload>(
      std::move(shapes), std::move(combos), zipf_weights(11, 1.1), 2000, 1.0f,
      75, seed);
}

std::unique_ptr<Workload> make_gemm_mid(std::uint64_t seed) {
  // Kernel- and pack-dominated shapes (operands overflow L1, fit L2),
  // each through every entry point with equal weight.
  std::vector<ShapeDef> shapes = {
      {48, 48, 48, false, false},   {64, 64, 64, false, false},
      {96, 96, 96, false, false},   {128, 128, 128, false, false},
      {100, 100, 100, true, false}, {72, 40, 56, true, false},
      {2, 96, 96, false, false},    {64, 8, 64, false, false},
      {16, 16, 256, false, false}};
  std::vector<Combo> combos;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const int s = static_cast<int>(i);
    combos.push_back({s, Entry::kGemm, 1, entry_span(Entry::kGemm, 1)});
    combos.push_back({s, Entry::kGemm, 2, entry_span(Entry::kGemm, 2)});
    combos.push_back(
        {s, Entry::kPrepacked, 1, entry_span(Entry::kPrepacked, 1)});
    combos.push_back({s, Entry::kBatched, 1, entry_span(Entry::kBatched, 1)});
    combos.push_back({s, Entry::kGuarded, 1, entry_span(Entry::kGuarded, 1)});
  }
  const std::vector<double> weights(combos.size(), 1.0);
  // ~1500 ops/s: 20 windows keep >1000 ops in each at 20 s.
  return std::make_unique<GemmWorkload>(std::move(shapes), std::move(combos),
                                        weights, 900, 0.75f, 20, seed);
}

// ------------------------------------------------------------------ service

/// f32 cube edges of the service mix, most frequent first (Zipf s=1.2).
const std::vector<int> kCubes = {8, 12, 16, 24, 32, 48, 64};

Priority priority_of(int i) { return static_cast<Priority>(i); }

const char* wait_span(Priority p) {
  switch (p) {
    case Priority::kLow: return "service.wait.low";
    case Priority::kNormal: return "service.wait.normal";
    case Priority::kHigh: return "service.wait.high";
  }
  return "service.wait";
}

/// Cube operands shared by both service workloads: one B per cube (so
/// coalesced groups take the pack-once path) and kSets As and Cs.
struct CubeOperands {
  std::vector<Matrix<float>> a, c;
  Matrix<float> b;
};

std::vector<CubeOperands> make_cubes(Rng& rng) {
  std::vector<CubeOperands> out;
  for (const int e : kCubes) {
    CubeOperands o;
    o.b = Matrix<float>(e, e);
    o.b.fill_random(rng);
    for (int i = 0; i < kSets; ++i) {
      o.a.emplace_back(e, e);
      o.a.back().fill_random(rng);
      o.c.emplace_back(e, e);
      o.c.back().fill_random(rng);
    }
    out.push_back(std::move(o));
  }
  return out;
}

/// One request of the service mix: a cube (or -1 for a tail shape), its
/// operand set and priority. Priorities are low/normal/high 30/50/20.
struct Req {
  int cube;
  int set;
  Priority prio;
};

std::vector<Req> make_requests(std::size_t length, double tail_share,
                               Rng& rng) {
  std::vector<double> w = zipf_weights(kCubes.size(), 1.2);
  double total = 0.0;
  for (double x : w) total += x;
  if (tail_share > 0.0) w.push_back(total * tail_share / (1.0 - tail_share));
  const std::vector<int> shapes = stratified(w, length, rng);
  const std::vector<int> prios = stratified({0.3, 0.5, 0.2}, length, rng);
  std::vector<Req> out;
  for (std::size_t i = 0; i < length; ++i) {
    const int s = shapes[i];
    out.push_back({s == static_cast<int>(kCubes.size()) ? -1 : s,
                   static_cast<int>(rng.next_index(kSets)),
                   priority_of(prios[i])});
  }
  return out;
}

std::vector<ProbeShape> cube_mix() {
  const std::vector<double> w = zipf_weights(kCubes.size(), 1.2);
  std::vector<ProbeShape> mix;
  for (std::size_t i = 0; i < kCubes.size(); ++i)
    mix.push_back({kCubes[i], kCubes[i], kCubes[i], false, false, w[i]});
  return mix;
}

double cube_flops(int e) { return 2.0 * e * e * e; }

/// service.* / shard.* / failover.* ratios from two Stats readings.
void service_stat_metrics(const smm::service::SmmService::Stats& before,
                          const smm::service::SmmService::Stats& after,
                          std::vector<Metric>& out) {
  const auto d = [](std::size_t a, std::size_t b) {
    return static_cast<double>(a - b);
  };
  const double groups = d(after.coalesced_groups, before.coalesced_groups);
  const double items = d(after.coalesced_items, before.coalesced_items);
  const double completed = d(after.completed, before.completed);
  const double submitted = d(after.submitted, before.submitted);
  const double hedged = d(after.hedged, before.hedged);
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto base = [](const char* what, double v) {
    return smm::strprintf("base: %s = %.0f", what, v);
  };
  out.push_back({"service.items_per_group", "ratio", ratio(items, groups),
                 base("coalesced_groups", groups)});
  out.push_back({"service.coalesced_share", "ratio", ratio(items, completed),
                 base("completed", completed)});
  out.push_back({"service.steal_share", "ratio",
                 ratio(d(after.steals, before.steals), completed),
                 base("completed", completed)});
  out.push_back({"service.refused_share", "ratio",
                 ratio(d(after.rejected, before.rejected), submitted),
                 base("submitted", submitted)});
  double mx = 0.0, sum = 0.0;
  const std::size_t shards = after.admitted_per_shard.size();
  for (std::size_t i = 0; i < shards; ++i) {
    const double a =
        d(after.admitted_per_shard[i],
          i < before.admitted_per_shard.size() ? before.admitted_per_shard[i]
                                               : 0);
    mx = std::max(mx, a);
    sum += a;
  }
  out.push_back({"shard.admit_imbalance", "ratio",
                 sum > 0.0 ? mx / (sum / static_cast<double>(shards)) : 0.0,
                 "max/mean admitted_per_shard over " +
                     std::to_string(shards) + " shards"});
  out.push_back({"failover.hedged_share", "ratio", ratio(hedged, submitted),
                 base("submitted", submitted)});
  out.push_back({"failover.hedge_win_ratio", "ratio",
                 ratio(d(after.hedge_wins, before.hedge_wins), hedged),
                 base("hedged", hedged)});
}

/// shards=2, lanes=1 behind a closed-loop client with a fixed window of
/// outstanding tickets; 5% of requests are distinct odd tail shapes.
class ServeCoalesce final : public Workload {
 public:
  static constexpr int kWindow = 16;
  static constexpr std::size_t kTailShapes = 640;
  static constexpr long kHighDeadlineMs = 100;

  explicit ServeCoalesce(std::uint64_t seed)
      : sampler_(seed ^ 0x5a5a5a5aULL), rng_(seed) {
    cubes_ = make_cubes(rng_);
    reqs_ = make_requests(2000, 0.05, rng_);
    // The tail: odd shapes no cube shares, more than a shard's 256-entry
    // PlanCache holds, visited in a seeded cyclic order so each one has
    // aged out of the LRU by the time it returns.
    pool_ = Matrix<float>(1 << 20, 1);
    pool_.fill_random(rng_);
    std::set<std::tuple<index_t, index_t, index_t>> seen;
    while (tail_.size() < kTailShapes) {
      const index_t m = 5 + 2 * rng_.next_index(21);
      const index_t n = 5 + 2 * rng_.next_index(21);
      const index_t k = 5 + 2 * rng_.next_index(21);
      if (!seen.emplace(m, n, k).second) continue;
      const index_t room = (1 << 20) - 47 * 47;
      tail_.push_back({m, n, k, rng_.next_index(room), rng_.next_index(room)});
    }
    for (int i = 0; i < kWindow; ++i) slot_c_.emplace_back(64, 64);
  }

  double setup_round(Checker& checker) override {
    svc_.reset();
    const std::int64_t t0 = now_ns();
    smm::service::ServiceOptions opts;
    opts.shards = 2;
    opts.lanes = 1;
    svc_ = std::make_unique<smm::service::SmmService>(opts);
    before_ = svc_->stats();
    for (std::size_t i = 0; i < kCubes.size(); ++i) {
      CubeOperands& o = cubes_[i];
      svc_->submit(1.0f, o.a[0].cview(), o.b.cview(), 0.0f, o.c[0].view())
          .wait();
    }
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < kCubes.size(); ++i) {
      CubeOperands& o = cubes_[i];
      checker.keep<float>("service cube " + std::to_string(kCubes[i]), 1.0f,
                          o.a[0].cview(), o.b.cview(), 0.0f, {},
                          o.c[0].cview());
    }
    return static_cast<double>(t1 - t0) * 1e-9;
  }

  void run_phase(double seconds, Tracer* tracer, std::size_t span_limit,
                 Checker& checker, PhaseStats& st) override {
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    st.begin(start);
    for (Slot& s : slots_) submit(s);
    std::int64_t now = start;
    bool open = true;
    while (true) {
      open = open && now < deadline &&
             (tracer == nullptr || tracer->spans().size() + 3 <= span_limit);
      bool progressed = false;
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot& s = slots_[i];
        if (!s.active || !s.ticket.done()) continue;
        complete(s, i, now_ns(), tracer, checker, st);
        if (open) submit(s);
        progressed = true;
      }
      if (!progressed) {
        Slot* oldest = nullptr;
        std::size_t oi = 0;
        for (std::size_t i = 0; i < slots_.size(); ++i)
          if (slots_[i].active &&
              (oldest == nullptr || slots_[i].t_submit < oldest->t_submit)) {
            oldest = &slots_[i];
            oi = i;
          }
        if (oldest == nullptr) break;
        oldest->ticket.wait();
        complete(*oldest, oi, now_ns(), tracer, checker, st);
        if (open) submit(*oldest);
      }
      now = now_ns();
    }
    st.end(now);
  }

  [[nodiscard]] std::vector<ProbeShape> probe_mix() const override {
    return cube_mix();
  }
  [[nodiscard]] int windows() const override { return 75; }
  smm::service::SmmService* service() override { return svc_.get(); }
  [[nodiscard]] smm::service::SmmService::Stats service_baseline()
      const override {
    return before_;
  }

 private:
  struct Tail {
    index_t m, n, k, a_off, b_off;
  };
  struct Slot {
    smm::service::Ticket ticket;
    std::int64_t t_submit = 0;
    std::int64_t t_submitted = 0;
    Req req{};
    int tail = -1;
    bool active = false;
    bool sampled = false;
  };

  void submit(Slot& s) {
    s.req = reqs_[pos_++ % reqs_.size()];
    s.tail = s.req.cube < 0 ? static_cast<int>(tail_pos_++ % tail_.size())
                            : -1;
    s.sampled = false;
    const auto [a, b, c] = views(s);
    const long deadline = s.req.prio == Priority::kHigh ? kHighDeadlineMs : 0;
    s.t_submit = now_ns();
    s.ticket = svc_->submit(1.0f, a, b, 0.0f, c, s.req.prio, deadline);
    s.t_submitted = now_ns();
    s.active = true;
  }

  /// Account one terminal request, observed at `t_done`.
  void complete(Slot& s, std::size_t slot_index, std::int64_t t_done,
                Tracer* tracer, Checker& checker, PhaseStats& st) {
    s.active = false;
    const smm::service::Result& r = s.ticket.wait();
    const auto [a, b, c] = views(s);
    st.op(s.t_submit, t_done, outcome_of(r),
          2.0 * static_cast<double>(a.rows()) *
              static_cast<double>(b.cols()) * static_cast<double>(a.cols()));
    if (tracer != nullptr) {
      const std::uint64_t req = st.attempted;
      const std::uint32_t root =
          tracer->add("serve.request", req, 0, s.t_submit, t_done);
      tracer->add("service.submit", req, root, s.t_submit, s.t_submitted);
      tracer->add(wait_span(s.req.prio), req, root, s.t_submitted, t_done);
    }
    if (!r.ok || !sampler_.take(checker)) return;
    const std::int64_t k0 = now_ns();
    checker.keep<float>("serve_coalesce slot " + std::to_string(slot_index),
                        1.0f, a, b, 0.0f, {}, c);
    st.pause(now_ns() - k0);
  }

  std::tuple<ConstMatrixView<float>, ConstMatrixView<float>,
             MatrixView<float>>
  views(Slot& s) {
    Matrix<float>& cbuf = slot_c_[static_cast<std::size_t>(&s - slots_.data())];
    if (s.tail >= 0) {
      const Tail& t = tail_[static_cast<std::size_t>(s.tail)];
      const float* p = pool_.data();
      return {ConstMatrixView<float>(p + t.a_off, t.m, t.k, t.m),
              ConstMatrixView<float>(p + t.b_off, t.k, t.n, t.k),
              MatrixView<float>(cbuf.data(), t.m, t.n, t.m)};
    }
    const CubeOperands& o = cubes_[static_cast<std::size_t>(s.req.cube)];
    const index_t e = kCubes[static_cast<std::size_t>(s.req.cube)];
    return {o.a[static_cast<std::size_t>(s.req.set)].cview(), o.b.cview(),
            MatrixView<float>(cbuf.data(), e, e, e)};
  }

  Sampler sampler_;
  Rng rng_;
  std::vector<CubeOperands> cubes_;
  std::vector<Req> reqs_;
  std::size_t pos_ = 0;
  Matrix<float> pool_;
  std::vector<Tail> tail_;
  std::size_t tail_pos_ = 0;
  std::vector<Matrix<float>> slot_c_;
  std::vector<Slot> slots_ = std::vector<Slot>(kWindow);
  std::unique_ptr<smm::service::SmmService> svc_;
  smm::service::SmmService::Stats before_;
};

/// shards=1, lanes=1, one synchronous caller through ResilientClient,
/// beta != 0 so the C snapshot/restore path runs.
class ServeSync final : public Workload {
 public:
  static constexpr float kBeta = 0.5f;

  explicit ServeSync(std::uint64_t seed) : sampler_(seed ^ 0x5a5a5a5aULL) {
    Rng rng(seed);
    cubes_ = make_cubes(rng);
    reqs_ = make_requests(2000, 0.0, rng);
  }

  double setup_round(Checker& checker) override {
    client_.reset();
    svc_.reset();
    const std::int64_t t0 = now_ns();
    smm::service::ServiceOptions opts;
    opts.shards = 1;
    opts.lanes = 1;
    svc_ = std::make_unique<smm::service::SmmService>(opts);
    client_ = std::make_unique<smm::resilient::ResilientClient>(*svc_);
    before_ = svc_->stats();
    std::int64_t checks_ns = 0;
    for (std::size_t i = 0; i < kCubes.size(); ++i) {
      CubeOperands& o = cubes_[i];
      const std::int64_t k0 = now_ns();
      std::vector<float> c_in = copy_of(o.c[0].cview());
      checks_ns += now_ns() - k0;
      client_->execute(1.0f, o.a[0].cview(), o.b.cview(), kBeta,
                       o.c[0].view());
      const std::int64_t k1 = now_ns();
      checker.keep<float>("serve_sync cube " + std::to_string(kCubes[i]), 1.0f,
                          o.a[0].cview(), o.b.cview(), kBeta, std::move(c_in),
                          o.c[0].cview());
      checks_ns += now_ns() - k1;
    }
    return static_cast<double>(now_ns() - t0 - checks_ns) * 1e-9;
  }

  void run_phase(double seconds, Tracer* tracer, std::size_t span_limit,
                 Checker& checker, PhaseStats& st) override {
    const std::int64_t start = now_ns();
    const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    st.begin(start);
    std::int64_t end = start;
    while (end < deadline) {
      if (tracer != nullptr && tracer->spans().size() + 2 > span_limit) break;
      const Req& r = reqs_[pos_++ % reqs_.size()];
      CubeOperands& o = cubes_[static_cast<std::size_t>(r.cube)];
      const auto set = static_cast<std::size_t>(r.set);
      const bool sampled = sampler_.take(checker);
      std::vector<float> c_in;
      if (sampled) {
        const std::int64_t k0 = now_ns();
        c_in = copy_of(o.c[set].cview());
        st.pause(now_ns() - k0);
      }
      const std::int64_t t0 = now_ns();
      const smm::service::Result res = client_->execute(
          1.0f, o.a[set].cview(), o.b.cview(), kBeta, o.c[set].view(),
          r.prio);
      const std::int64_t t1 = now_ns();
      end = t1;
      st.op(t0, t1, outcome_of(res),
            cube_flops(kCubes[static_cast<std::size_t>(r.cube)]));
      if (tracer != nullptr) {
        const std::uint32_t root =
            tracer->add("serve.request", st.attempted, 0, t0, t1);
        tracer->add("resilient.execute", st.attempted, root, t0, t1);
      }
      if (res.ok && sampled) {
        checker.keep<float>("serve_sync", 1.0f, o.a[set].cview(), o.b.cview(),
                            kBeta, std::move(c_in), o.c[set].cview());
        end = now_ns();
        st.pause(end - t1);
      }
    }
    st.end(end);
  }

  [[nodiscard]] std::vector<ProbeShape> probe_mix() const override {
    return cube_mix();
  }
  [[nodiscard]] int windows() const override { return 75; }
  smm::service::SmmService* service() override { return svc_.get(); }
  [[nodiscard]] smm::service::SmmService::Stats service_baseline()
      const override {
    return before_;
  }
  smm::resilient::ResilientClient* client() override { return client_.get(); }

 private:
  Sampler sampler_;
  std::vector<CubeOperands> cubes_;
  std::vector<Req> reqs_;
  std::size_t pos_ = 0;
  std::unique_ptr<smm::service::SmmService> svc_;
  std::unique_ptr<smm::resilient::ResilientClient> client_;
  smm::service::SmmService::Stats before_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "gemm_tiny") return make_gemm_tiny(seed);
  if (name == "gemm_mid") return make_gemm_mid(seed);
  if (name == "serve_coalesce") return std::make_unique<ServeCoalesce>(seed);
  if (name == "serve_sync") return std::make_unique<ServeSync>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

// ------------------------------------------------------------------ report

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void end_to_end_metrics(const std::vector<double>& setup_rounds,
                        const PhaseStats& st, std::vector<Metric>& out) {
  const std::string windows = smm::strprintf(
      "best-decile window of %zu over %.2f s, %llu ops", st.windows(),
      st.wall_s(), static_cast<unsigned long long>(st.attempted));
  const std::string samples =
      windows + smm::strprintf(", >= %llu ops per window",
                               static_cast<unsigned long long>(
                                   st.min_window_ops()));
  out.push_back({"setup_s", "s", median(setup_rounds),
                 "median of " + std::to_string(setup_rounds.size()) +
                     " set-up rounds"});
  out.push_back({"ops_per_s", "op/s", st.window_ops_per_s(), windows});
  out.push_back({"gflops", "GFLOP/s", st.window_gflops(),
                 "sum 2mnk over ok ops / wall, " + windows});
  out.push_back({"latency_p50_us", "us", st.window_latency(0.5) / 1e3,
                 samples});
  out.push_back({"latency_p99_us", "us", st.window_latency(0.99) / 1e3,
                 samples});
  out.push_back({"ok_frac", "ratio",
                 st.attempted > 0 ? static_cast<double>(st.ok) /
                                        static_cast<double>(st.attempted)
                                  : 0.0,
                 "base: attempted = " + std::to_string(st.attempted)});
  out.push_back({"peak_rss_mb", "MB", peak_rss_mb(), "getrusage ru_maxrss"});
}

/// Ratios and counts from robust::health() deltas over the traffic.
void health_metrics(const smm::robust::HealthSnapshot& a,
                    const smm::robust::HealthSnapshot& b, double calls,
                    std::vector<Metric>& out) {
  const auto d = [](std::size_t x, std::size_t y) {
    return static_cast<double>(x - y);
  };
  const double hits = d(b.plan_cache_hits, a.plan_cache_hits);
  const double misses = d(b.plan_cache_misses, a.plan_cache_misses);
  const double regions = d(b.pool_regions, a.pool_regions);
  const double samples = d(b.tune_samples, a.tune_samples);
  out.push_back({"core.plan_cache_hit_ratio", "ratio",
                 hits + misses > 0 ? hits / (hits + misses) : 0.0,
                 smm::strprintf("base: hits+misses = %.0f", hits + misses)});
  out.push_back({"threading.spawn_fallback_share", "ratio",
                 regions > 0
                     ? d(b.pool_spawn_fallbacks, a.pool_spawn_fallbacks) /
                           regions
                     : 0.0,
                 smm::strprintf("base: pool_regions = %.0f", regions)});
  out.push_back({"tune.sample_share", "ratio",
                 calls > 0 ? samples / calls : 0.0,
                 smm::strprintf("base: calls = %.0f", calls)});
  out.push_back({"tune.replans", "count", d(b.tune_replans, a.tune_replans),
                 "health delta over the traffic phases"});
  out.push_back({"resilient.limiter_dips", "count",
                 d(b.limiter_dips, a.limiter_dips),
                 "health delta over the traffic phases"});
}

/// The traced run: untraced and traced traffic (their ops/s gap is the
/// tracing overhead), the decomposed replay, then the isolated per-layer
/// probes. Appends every per-layer metric but
/// robust.integrity_detected; traffic outcomes accumulate into `st`.
void traced_run(const RunConfig& cfg, const HostInfo& host, Workload& w,
                Checker& checker, PhaseStats& st, RunResult& res) {
  using smm::robust::health;
  // Untraced and traced stretches alternate, so a change in the host's
  // speed during the run does not show up as tracing overhead.
  const auto before = health().snapshot();
  PhaseStats traced;
  Tracer tracer(kTraceCapacity);
  constexpr int kPairs = 5;
  const double stretch_s = cfg.seconds * 0.7 / (2 * kPairs);
  for (int i = 0; i < kPairs; ++i) {
    w.run_phase(stretch_s, nullptr, 0, checker, st);
    w.run_phase(stretch_s, &tracer, kTracedPhaseSpans * (i + 1) / kPairs,
                checker, traced);
  }
  health_metrics(before, health().snapshot(),
                 static_cast<double>(st.attempted + traced.attempted),
                 res.metrics);
  const std::size_t traced_spans = tracer.spans().size();
  const double replay_expected_ns = w.replay(cfg.seconds * 0.15, tracer);

  const auto layers = layer_times(tracer.spans());
  const auto self_of = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_ns;
  };
  const auto mean_of = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end()
               ? 0.0
               : it->second.total_ns / static_cast<double>(it->second.count);
  };
  if (replay_expected_ns > 0.0) {
    // GEMM workloads: the decomposed parts against the untraced calls.
    res.metrics.push_back(
        {"trace.coverage", "ratio",
         (self_of("core.cached_smm_plan") + self_of("plan.execute_plan")) /
             replay_expected_ns,
         "(cached_smm_plan + execute_plan self time) / time of the paired "
         "untraced smm_gemm calls"});
  } else {
    // Service workloads: the request's child spans against the untraced
    // mean request latency.
    double child_self = 0.0;
    for (const auto& [name, lt] : layers)
      if (name != "serve.request") child_self += lt.self_ns;
    const double per_op =
        traced.attempted > 0
            ? child_self / static_cast<double>(traced.attempted)
            : 0.0;
    const double untraced = st.mean_latency_ns();
    res.metrics.push_back(
        {"trace.coverage", "ratio", untraced > 0.0 ? per_op / untraced : 0.0,
         "child-span self time per request / untraced mean latency"});
  }
  res.metrics.push_back(
      {"trace.overhead_frac", "ratio",
       st.ops_per_s() > 0.0 ? 1.0 - traced.ops_per_s() / st.ops_per_s() : 0.0,
       smm::strprintf("traced %.1f op/s vs untraced %.1f op/s, %zu spans",
                      traced.ops_per_s(), st.ops_per_s(), traced_spans)});

  const std::vector<ProbeShape> mix = w.probe_mix();
  probe_shape_layers(mix, cfg.seed, res.metrics, res.notes);
  probe_cold_calls(mix, cfg.seed, res.metrics, res.notes);
  probe_kernel(host.peak_f32_gflops, res.metrics);
  probe_threading(res.metrics);

  // Service layers: the workload's own service (and its spans, where it
  // has them); a workload without one probes a shards=2, lanes=1 service.
  smm::service::SmmService* svc = w.service();
  std::unique_ptr<smm::service::SmmService> probe_svc;
  if (svc != nullptr) {
    service_stat_metrics(w.service_baseline(), svc->stats(), res.metrics);
  } else {
    for (const char* name :
         {"service.items_per_group", "service.coalesced_share",
          "service.steal_share", "service.refused_share",
          "shard.admit_imbalance", "failover.hedged_share",
          "failover.hedge_win_ratio"})
      res.metrics.push_back({name, "ratio", 0.0, "bypassed: no service"});
    smm::service::ServiceOptions opts;
    opts.shards = 2;
    opts.lanes = 1;
    probe_svc = std::make_unique<smm::service::SmmService>(opts);
    svc = probe_svc.get();
  }
  if (const auto* client = w.client()) {
    const auto cs = client->stats();
    res.metrics.push_back(
        {"resilient.attempts_per_request", "ratio",
         cs.calls > 0 ? static_cast<double>(cs.calls + cs.retries) /
                            static_cast<double>(cs.calls)
                      : 0.0,
         "base: execute calls = " + std::to_string(cs.calls)});
  }
  const ServiceProbe sp = probe_service(*svc, kCubes, cfg.seed);
  if (w.client() == nullptr)
    res.metrics.push_back({"resilient.attempts_per_request", "ratio",
                           sp.attempts_per_request,
                           "probe client (the workload has none)"});
  const bool submit_spans = layers.count("service.submit") > 0;
  res.metrics.push_back(
      {"service.submit_ns", "ns",
       submit_spans ? mean_of("service.submit") : sp.submit_ns,
       submit_spans ? "mean of workload submit spans" : "probe median"});
  const char* prio_names[3] = {"low", "normal", "high"};
  for (int p = 0; p < 3; ++p) {
    const char* span = wait_span(priority_of(p));
    const bool have = layers.count(span) > 0;
    res.metrics.push_back(
        {std::string("service.wait_us.") + prio_names[p], "us",
         have ? mean_of(span) / 1e3 : sp.wait_us[p],
         have ? "mean of workload wait spans" : "probe median, 1 in flight"});
  }
  res.metrics.push_back(
      {"shard.route_ns", "ns", sp.route_ns, "route_shard median, cube mix"});
  res.metrics.push_back({"resilient.execute_overhead_us", "us",
                         sp.execute_overhead_us,
                         "median execute - median submit().wait()"});

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  // One file per workload, overwritten by each traced run.
  const std::string path = cfg.out_dir + "/trace_" + cfg.workload + ".json";
  res.notes.push_back(tracer.write_json(path)
                          ? "spans written to " + path
                          : "could not write spans to " + path);
  for (const auto& [name, lt] : layers)
    res.notes.push_back(smm::strprintf(
        "span %s: n=%llu, mean %.0f ns, self %.0f ns/op", name.c_str(),
        static_cast<unsigned long long>(lt.count),
        lt.total_ns / static_cast<double>(lt.count),
        lt.self_ns / static_cast<double>(lt.count)));
  st.attempted += traced.attempted;
  st.ok += traced.ok;
  st.refused += traced.refused;
  st.stopped += traced.stopped;
  st.failed += traced.failed;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"gemm_tiny", "gemm_mid",
                                                 "serve_coalesce",
                                                 "serve_sync"};
  return names;
}

RunResult run_workload(const RunConfig& cfg, const HostInfo& host) {
  using smm::robust::health;
  RunResult res;
  const auto run_start = health().snapshot();
  std::unique_ptr<Workload> w = make_workload(cfg.workload, cfg.seed);
  Checker checker;

  // Set-up is repeated and its median reported. Round 0 also pays the
  // once-per-process costs (cost-model calibration, pool spawn).
  std::vector<double> setup;
  std::uint64_t setup_outputs = 0;  // set-up outputs checked by the oracle
  const auto setup_round = [&] {
    // Armed from round 1 on: the calibration in round 0 runs kernels too
    // and would absorb the fault before any checked call.
    if (setup.size() == 1 && cfg.inject_miscompute)
      smm::robust::FaultInjector::instance().arm(
          smm::robust::FaultSite::kKernelMiscompute, {0, 1, cfg.seed});
    const std::uint64_t before = checker.checked();
    setup.push_back(w->setup_round(checker));
    checker.verify();
    setup_outputs += checker.checked() - before;
  };
  setup_round();
  PhaseStats st;
  if (cfg.trace) {
    setup_round();
    traced_run(cfg, host, *w, checker, st, res);
  } else {
    const int n = w->windows();
    for (int i = 0; i < n; ++i) {
      if (i == 0 ||
          i * kSpreadSetupRounds / n != (i - 1) * kSpreadSetupRounds / n)
        setup_round();
      w->run_phase(cfg.seconds / n, nullptr, 0, checker, st);
    }
    end_to_end_metrics(setup, st, res.metrics);
  }
  res.notes.push_back(smm::strprintf(
      "setup rounds (s): first %.6f, median %.6f, min %.6f, max %.6f",
      setup[0], median(setup), *std::min_element(setup.begin(), setup.end()),
      *std::max_element(setup.begin(), setup.end())));

  checker.verify();
  const auto run_end = health().snapshot();
  const double detected = static_cast<double>(run_end.integrity_detected -
                                              run_start.integrity_detected);
  if (cfg.trace)
    res.metrics.push_back({"robust.integrity_detected", "count", detected,
                           "health delta over the whole run"});

  res.attempted = st.attempted + setup_outputs;
  res.failed = st.refused + st.stopped + st.failed + checker.wrong();
  res.correct = checker.wrong() == 0 && detected == 0.0;
  const auto ull = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  res.notes.push_back(smm::strprintf(
      "outcomes: attempted %llu, ok %llu, refused %llu, stopped %llu, "
      "failed %llu; oracle checks %llu, wrong %llu, integrity_detected %.0f",
      ull(st.attempted), ull(st.ok), ull(st.refused), ull(st.stopped),
      ull(st.failed), ull(checker.checked()), ull(checker.wrong()),
      detected));
  res.notes.push_back(smm::strprintf(
      "failed_frac %.6g = (refused + stopped + failed + wrong) / attempted",
      static_cast<double>(res.failed) / static_cast<double>(res.attempted)));
  for (const std::string& f : checker.failures())
    res.notes.push_back("WRONG RESULT: " + f);
  return res;
}

}  // namespace smmbench
