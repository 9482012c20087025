// Micro-kernel numerical correctness (against a scalar oracle computed on
// the same packed operands) and registry / schedule structural checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/kernels/microkernel.h"
#include "src/kernels/registry.h"
#include "src/kernels/schedule.h"
#include "src/kernels/schedules_armv8.h"
#include "src/matrix/matrix.h"
#include "src/pack/pack.h"

namespace smm::kern {
namespace {

// Oracle for one micro-kernel invocation on arbitrary operand addressing.
template <typename T>
void oracle(index_t kc, T alpha, T beta, const KernelOperands<T>& ops,
            index_t mr, index_t nr, std::vector<T>& c_ref,
            index_t c_rs, index_t c_cs) {
  for (index_t j = 0; j < nr; ++j) {
    for (index_t i = 0; i < mr; ++i) {
      double acc = 0;
      for (index_t k = 0; k < kc; ++k)
        acc += static_cast<double>(ops.a[a_offset(ops, i, k)]) *
               static_cast<double>(ops.b[b_offset(ops, k, j)]);
      const auto idx = static_cast<std::size_t>(i * c_rs + j * c_cs);
      const double base = beta == T(0)
                              ? 0.0
                              : static_cast<double>(beta) *
                                    static_cast<double>(c_ref[idx]);
      c_ref[idx] =
          static_cast<T>(static_cast<double>(alpha) * acc + base);
    }
  }
}

template <typename T>
void run_tile_test(int mr, int nr, index_t kc, T alpha, T beta) {
  Rng rng(static_cast<std::uint64_t>(mr * 1000 + nr * 10 + kc));
  // Packed operands.
  std::vector<T> a(static_cast<std::size_t>(mr * kc));
  std::vector<T> b(static_cast<std::size_t>(nr * kc));
  for (auto& v : a) v = static_cast<T>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<T>(rng.uniform(-1, 1));
  std::vector<T> c(static_cast<std::size_t>(mr * nr));
  for (auto& v : c) v = static_cast<T>(rng.uniform(-1, 1));
  std::vector<T> c_ref = c;

  KernelOperands<T> ops;
  set_packed_a(ops, a.data(), mr);
  set_packed_b(ops, b.data(), nr);
  ops.c = c.data();
  ops.c_rs = 1;
  ops.c_cs = mr;

  oracle<T>(kc, alpha, beta, ops, mr, nr, c_ref, 1, mr);
  const MicroKernelFn<T> fn = native_tile_fn<T>(mr, nr);
  fn(kc, alpha, beta, ops, mr, nr);

  double worst = 0;
  for (std::size_t i = 0; i < c.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(c[i]) -
                                     static_cast<double>(c_ref[i])));
  EXPECT_LE(worst, 1e-4 * kc) << mr << "x" << nr << " kc=" << kc;
}

class TileKernel : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(TileKernel, PackedOperandsF32) {
  const auto [mr, nr] = GetParam();
  for (index_t kc : {1, 2, 7, 64}) run_tile_test<float>(mr, nr, kc, 1.5f, 0.5f);
}

TEST_P(TileKernel, PackedOperandsF64) {
  const auto [mr, nr] = GetParam();
  for (index_t kc : {1, 3, 32}) run_tile_test<double>(mr, nr, kc, -2.0, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, TileKernel,
    ::testing::Values(std::pair{16, 4}, std::pair{16, 2}, std::pair{16, 1},
                      std::pair{12, 8}, std::pair{12, 4}, std::pair{12, 2},
                      std::pair{12, 1}, std::pair{8, 12}, std::pair{8, 8},
                      std::pair{8, 4}, std::pair{8, 2}, std::pair{8, 1},
                      std::pair{4, 8}, std::pair{4, 4}, std::pair{4, 2},
                      std::pair{4, 1}, std::pair{2, 8}, std::pair{2, 4},
                      std::pair{2, 2}, std::pair{2, 1}, std::pair{1, 8},
                      std::pair{1, 4}, std::pair{1, 2}, std::pair{1, 1},
                      std::pair{3, 5}),
    [](const auto& info) {
      return std::to_string(info.param.first) + "x" +
             std::to_string(info.param.second);
    });

TEST(GenericKernel, StridedDirectB) {
  // Direct col-major B: b(k, j) = b[k + j*ldb].
  const index_t mr = 8, nr = 4, kc = 16, ldb = 32;
  Rng rng(5);
  std::vector<float> a(static_cast<std::size_t>(mr * kc));
  std::vector<float> b(static_cast<std::size_t>(ldb * nr));
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c(static_cast<std::size_t>(mr * nr), 0.0f);
  std::vector<float> c_ref = c;

  KernelOperands<float> ops;
  set_packed_a(ops, a.data(), mr);
  set_direct_b_colmajor(ops, b.data(), ldb);
  ops.c = c.data();
  ops.c_rs = 1;
  ops.c_cs = mr;
  oracle<float>(kc, 1.0f, 0.0f, ops, mr, nr, c_ref, 1, mr);
  // The specialized tile kernel must agree on strided B too.
  tile_microkernel<float, 8, 4>(kc, 1.0f, 0.0f, ops, mr, nr);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], c_ref[i], 1e-4f);
}

TEST(GenericKernel, MaskedEdgeUpdate) {
  // useful 3x2 inside an 8x4 tile: untouched C elements must not change.
  const index_t kc = 8;
  std::vector<float> a(8 * kc, 1.0f);
  std::vector<float> b(4 * kc, 2.0f);
  std::vector<float> c(8 * 4, 7.0f);
  KernelOperands<float> ops;
  set_packed_a(ops, a.data(), 8);
  set_packed_b(ops, b.data(), 4);
  ops.c = c.data();
  ops.c_rs = 1;
  ops.c_cs = 8;
  generic_microkernel<float>(kc, 1.0f, 0.0f, ops, 3, 2);
  EXPECT_FLOAT_EQ(c[0], 16.0f);       // updated
  EXPECT_FLOAT_EQ(c[2], 16.0f);       // row 2, col 0
  EXPECT_FLOAT_EQ(c[3], 7.0f);        // row 3 untouched
  EXPECT_FLOAT_EQ(c[2 * 8 + 0], 7.0f);  // col 2 untouched
}

TEST(PanelAddressing, BlasfeoStyle) {
  // A panel-major sliver: ps=4, 8 rows across 2 panels.
  const index_t cols = 6, ps = 4;
  std::vector<float> panel(static_cast<std::size_t>(2 * ps * cols));
  for (std::size_t i = 0; i < panel.size(); ++i)
    panel[i] = static_cast<float>(i);
  KernelOperands<float> ops;
  set_panel_a(ops, panel.data(), ps, cols);
  // (i, k) = (i%4) + (i/4)*4*cols + k*4
  EXPECT_EQ(a_offset(ops, 0, 0), 0);
  EXPECT_EQ(a_offset(ops, 3, 2), 3 + 8);
  EXPECT_EQ(a_offset(ops, 5, 1), 1 + ps * cols + 4);
}

// ---- Registry --------------------------------------------------------------

TEST(Registry, FamiliesPresent) {
  const auto& reg = KernelRegistry::instance();
  for (const char* fam : {"openblas", "blis", "blasfeo", "eigen", "smm",
                          "smm-direct"}) {
    EXPECT_FALSE(reg.family(fam).empty()) << fam;
  }
}

TEST(Registry, TableOneTiles) {
  const auto& reg = KernelRegistry::instance();
  // Table I: OpenBLAS 16x4/8x8/4x4, BLIS 8x12, BLASFEO 16x4/8x8, Eigen 12x4.
  EXPECT_TRUE(reg.has_tile("openblas", 16, 4));
  EXPECT_TRUE(reg.has_tile("openblas", 8, 8));
  EXPECT_TRUE(reg.has_tile("openblas", 4, 4));
  EXPECT_TRUE(reg.has_tile("blis", 8, 12));
  EXPECT_TRUE(reg.has_tile("blasfeo", 16, 4));
  EXPECT_TRUE(reg.has_tile("blasfeo", 8, 8));
  EXPECT_TRUE(reg.has_tile("eigen", 12, 4));
}

TEST(Registry, OpenblasEdgeLattice) {
  const auto& reg = KernelRegistry::instance();
  for (int mr : {16, 8, 4, 2, 1})
    for (int nr : {4, 2, 1}) EXPECT_TRUE(reg.has_tile("openblas", mr, nr));
}

TEST(Registry, UnknownLookupsThrow) {
  const auto& reg = KernelRegistry::instance();
  EXPECT_THROW(reg.find("no/such"), Error);
  EXPECT_THROW(reg.find_tile("openblas", 7, 3), Error);
  EXPECT_THROW(reg.info(-1), Error);
}

TEST(Registry, FindByName) {
  const auto& reg = KernelRegistry::instance();
  const KernelId id = reg.find("blis/8x12");
  EXPECT_EQ(reg.info(id).mr, 8);
  EXPECT_EQ(reg.info(id).nr, 12);
  EXPECT_EQ(reg.info(id).family, "blis");
}

TEST(Registry, SpecLanesRescaleForF64) {
  const auto& reg = KernelRegistry::instance();
  const KernelId id = reg.find_tile("openblas", 16, 4);
  EXPECT_EQ(kernel_spec<float>(id).lanes, 4);
  EXPECT_EQ(kernel_spec<double>(id).lanes, 2);
}

TEST(Registry, DecomposeEdge) {
  const std::vector<index_t> sizes{16, 8, 4, 2, 1};
  EXPECT_EQ(decompose_edge(11, sizes), (std::vector<index_t>{8, 2, 1}));
  EXPECT_EQ(decompose_edge(16, sizes), (std::vector<index_t>{16}));
  EXPECT_EQ(decompose_edge(3, sizes), (std::vector<index_t>{2, 1}));
  EXPECT_TRUE(decompose_edge(0, sizes).empty());
}

// ---- Schedules --------------------------------------------------------------

TEST(Schedule, Fig7LayoutMatchesPaper) {
  const KernelSchedule s = fig7_openblas_8x4_schedule();
  EXPECT_EQ(s.mr, 8);
  EXPECT_EQ(s.nr, 4);
  EXPECT_EQ(s.unroll, 2);
  // Per k-iteration: 2 ldp (B), 2 ldr q (A), then 8 fmla — clustered.
  ASSERT_GE(s.body.size(), 12u);
  EXPECT_EQ(s.body[0].kind, UopKind::kLoadPair);
  EXPECT_EQ(s.body[1].kind, UopKind::kLoadPair);
  EXPECT_EQ(s.body[2].kind, UopKind::kLoadVec);
  EXPECT_EQ(s.body[3].kind, UopKind::kLoadVec);
  for (int i = 4; i < 12; ++i) EXPECT_EQ(s.body[i].kind, UopKind::kFma);
  // The first fmla depends on the A load two instructions earlier.
  EXPECT_EQ(s.body[4].src1, s.body[2].dst);
}

TEST(Schedule, FmaCountMatchesTile) {
  for (const auto& [mr, nr, unroll] :
       {std::tuple{16, 4, 8}, std::tuple{8, 12, 4}, std::tuple{12, 4, 1}}) {
    ScheduleSpec spec;
    spec.mr = mr;
    spec.nr = nr;
    spec.unroll = unroll;
    spec.style = unroll == 1 ? ScheduleStyle::kSimple
                             : ScheduleStyle::kPipelined;
    const KernelSchedule s = build_schedule(spec);
    const int avec = (mr + 3) / 4;
    EXPECT_EQ(s.fma_per_body, avec * nr * s.unroll) << spec.describe();
    int fma = 0;
    for (const auto& u : s.body)
      if (u.kind == UopKind::kFma) ++fma;
    EXPECT_EQ(fma, s.fma_per_body);
  }
}

TEST(Schedule, PipelinedPreloadsBankZero) {
  const KernelSchedule s = build_schedule(openblas_main_spec(16, 4));
  int prologue_loads = 0;
  for (const auto& u : s.prologue)
    if (u.kind == UopKind::kLoadVec) ++prologue_loads;
  EXPECT_EQ(prologue_loads, 4 + 1);  // 4 A vectors + 1 B vector
}

TEST(Schedule, SimpleStyleHasPerIterationOverhead) {
  const KernelSchedule s = build_schedule(eigen_spec(12, 4));
  EXPECT_EQ(s.unroll, 1);
  int branches = 0, dups = 0;
  for (const auto& u : s.body) {
    if (u.kind == UopKind::kBranch) ++branches;
    if (u.kind == UopKind::kDup) ++dups;
  }
  EXPECT_EQ(branches, 1);
  EXPECT_EQ(dups, 4);  // one per B element
}

TEST(Schedule, StridedBUsesScalarLoads) {
  const KernelSchedule s = build_schedule(smm_direct_b_spec(8, 4));
  int scalar_loads = 0;
  for (const auto& u : s.body)
    if (u.kind == UopKind::kLoadScalar && u.stream == Stream::kB)
      ++scalar_loads;
  EXPECT_EQ(scalar_loads, 4 * s.unroll);
}

TEST(Schedule, OddPipelinedUnrollRejected) {
  ScheduleSpec spec;
  spec.style = ScheduleStyle::kPipelined;
  spec.unroll = 3;
  EXPECT_THROW(build_schedule(spec), Error);
}

TEST(Schedule, EpilogueTouchesEveryAccumulator) {
  const KernelSchedule s = build_schedule(blis_spec(8, 12));
  int stores = 0;
  for (const auto& u : s.epilogue)
    if (u.kind == UopKind::kStoreVec) ++stores;
  EXPECT_EQ(stores, 2 * 12);  // (8/4 vectors) x 12 columns
}

}  // namespace
}  // namespace smm::kern
