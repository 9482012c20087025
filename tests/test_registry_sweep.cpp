// Exhaustive sweep over every registered kernel: native correctness
// against the scalar oracle (full tile and masked edge, f32 and f64, under
// every operand binding the executor and the library models produce), a
// compiled kernel for every registered tile, and schedule-construction
// invariants for both precisions. Parameterized over the whole registry so
// newly registered kernels are covered automatically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/kernels/registry.h"
#include "src/kernels/schedule.h"

namespace smm::kern {
namespace {

std::vector<KernelId> all_kernel_ids() {
  std::vector<KernelId> out;
  const auto& reg = KernelRegistry::instance();
  for (KernelId id = 0; id < reg.size(); ++id) out.push_back(id);
  return out;
}

enum class ABinding { kPacked, kDirectColMajor, kPanel, kDirectRowMajor };
enum class BBinding { kPacked, kDirectColMajor, kRowMajor };

struct Binding {
  ABinding a;
  BBinding b;
  bool c_row_major;  ///< c_rs != 1 (a row-major C view)
  bool beta_zero;    ///< C poisoned with NaN: it must not be read
  bool masked;       ///< useful (mr-1) x (nr-1) update of a larger tile
};

std::string describe(const Binding& bind) {
  static const char* const kA[] = {"packed A", "direct col-major A",
                                   "panel A (ps=4)", "direct row-major A"};
  static const char* const kB[] = {"packed B", "direct col-major B",
                                   "row-major B"};
  return std::string(kA[static_cast<int>(bind.a)]) + ", " +
         kB[static_cast<int>(bind.b)] +
         (bind.c_row_major ? ", row-major C" : ", col-major C") +
         (bind.beta_zero ? ", beta 0 over NaN C" : ", beta -0.5") +
         (bind.masked ? ", masked" : "");
}

/// Runs one update under one binding, routed the way the native executor
/// routes it: full tiles with unit-stride A rows to the kernel's compiled
/// entry, masked updates and strided-row A to the generic kernel. Checks
/// every element of the C buffer: the useful tile against the oracle
/// within the rounding bound of a kc-term dot product plus the alpha/beta
/// update, everything else untouched.
template <typename T>
void check_binding(KernelId id, const Binding& bind) {
  const auto& info = KernelRegistry::instance().info(id);
  const index_t mr = info.mr;
  const index_t nr = info.nr;
  const index_t kc = 13;
  Rng rng(static_cast<std::uint64_t>(id) * 104729 +
          static_cast<std::uint64_t>(bind.a) * 31 +
          static_cast<std::uint64_t>(bind.b) * 7 + (bind.c_row_major ? 4 : 0) +
          (bind.beta_zero ? 2 : 0) + (bind.masked ? 1 : 0));
  const auto random_vector = [&rng](index_t size) {
    std::vector<T> v(static_cast<std::size_t>(size));
    for (auto& x : v) x = static_cast<T>(rng.uniform(-1, 1));
    return v;
  };

  KernelOperands<T> ops;
  std::vector<T> a;
  switch (bind.a) {
    case ABinding::kPacked:
      a = random_vector(mr * kc);
      set_packed_a(ops, a.data(), mr);
      break;
    case ABinding::kDirectColMajor: {
      const index_t lda = mr + 3;
      a = random_vector(lda * kc);
      set_direct_a_colmajor(ops, a.data(), lda, mr);
      break;
    }
    case ABinding::kPanel: {
      const index_t ps = 4;
      const index_t total_cols = kc + 2;  // the sliver is part of a panel
      a = random_vector(mr * total_cols);
      set_panel_a(ops, a.data(), ps, total_cols);
      break;
    }
    case ABinding::kDirectRowMajor: {
      const index_t lda = kc + 4;
      a = random_vector(lda * mr);
      set_direct_a_rowmajor(ops, a.data(), lda, mr);
      break;
    }
  }
  std::vector<T> b;
  switch (bind.b) {
    case BBinding::kPacked:
      b = random_vector(nr * kc);
      set_packed_b(ops, b.data(), nr);
      break;
    case BBinding::kDirectColMajor: {
      const index_t ldb = kc + 5;
      b = random_vector(ldb * nr);
      set_direct_b_colmajor(ops, b.data(), ldb);
      break;
    }
    case BBinding::kRowMajor: {
      const index_t ldb = nr + 3;
      b = random_vector(ldb * kc);
      set_direct_b_rowmajor(ops, b.data(), ldb, nr);
      break;
    }
  }
  ops.c_rs = bind.c_row_major ? nr + 1 : 1;
  ops.c_cs = bind.c_row_major ? 1 : mr + 2;
  std::vector<T> c = random_vector(bind.c_row_major ? mr * ops.c_rs
                                                    : nr * ops.c_cs);
  if (bind.beta_zero)
    std::fill(c.begin(), c.end(), std::numeric_limits<T>::quiet_NaN());
  const std::vector<T> c_before = c;
  ops.c = c.data();

  const T alpha = T(1.5);
  const T beta = bind.beta_zero ? T(0) : T(-0.5);
  const index_t um = bind.masked ? std::max<index_t>(1, mr - 1) : mr;
  const index_t un = bind.masked ? std::max<index_t>(1, nr - 1) : nr;
  if (um == mr && un == nr && ops.a_istride == 1) {
    kernel_fn<T>(id)(kc, alpha, beta, ops, um, un);
  } else {
    generic_microkernel<T>(kc, alpha, beta, ops, um, un);
  }

  const double eps = std::numeric_limits<T>::epsilon();
  std::vector<bool> in_tile(c.size(), false);
  for (index_t j = 0; j < un; ++j) {
    for (index_t i = 0; i < um; ++i) {
      double exact = 0;
      double magnitude = 0;
      for (index_t k = 0; k < kc; ++k) {
        const double p = static_cast<double>(ops.a[a_offset(ops, i, k)]) *
                         static_cast<double>(ops.b[b_offset(ops, k, j)]);
        exact += p;
        magnitude += std::abs(p);
      }
      const auto idx = static_cast<std::size_t>(i * ops.c_rs + j * ops.c_cs);
      in_tile[idx] = true;
      exact *= static_cast<double>(alpha);
      magnitude *= std::abs(static_cast<double>(alpha));
      if (!bind.beta_zero) {
        const double old = static_cast<double>(c_before[idx]);
        exact += static_cast<double>(beta) * old;
        magnitude += std::abs(static_cast<double>(beta) * old);
      }
      const double bound = static_cast<double>(kc + 3) * eps * magnitude;
      const double got = static_cast<double>(c[idx]);
      EXPECT_LE(std::abs(got - exact), bound)
          << info.name << " (" << i << ", " << j << ") got " << got
          << " expected " << exact;
    }
  }
  for (std::size_t idx = 0; idx < c.size(); ++idx) {
    if (in_tile[idx]) continue;
    const bool same = std::isnan(c_before[idx]) ? std::isnan(c[idx])
                                                : c[idx] == c_before[idx];
    EXPECT_TRUE(same) << info.name << " wrote outside its tile at " << idx;
  }
}

template <typename T>
void check_every_binding(KernelId id) {
  const auto& info = KernelRegistry::instance().info(id);
  for (const ABinding a : {ABinding::kPacked, ABinding::kDirectColMajor,
                           ABinding::kPanel, ABinding::kDirectRowMajor}) {
    // BLASFEO slivers start on a panel boundary and span whole panels.
    if (a == ABinding::kPanel && info.mr % 4 != 0) continue;
    for (const BBinding b : {BBinding::kPacked, BBinding::kDirectColMajor,
                             BBinding::kRowMajor}) {
      for (const bool c_row_major : {false, true}) {
        for (const bool beta_zero : {false, true}) {
          for (const bool masked : {false, true}) {
            const Binding bind{a, b, c_row_major, beta_zero, masked};
            SCOPED_TRACE(describe(bind));
            check_binding<T>(id, bind);
          }
        }
      }
    }
  }
}

class EveryKernel : public ::testing::TestWithParam<KernelId> {};

// Packed A and B, col-major C: the bindings of the packing strategies.
constexpr Binding kPackedFull{ABinding::kPacked, BBinding::kPacked, false,
                              false, false};
constexpr Binding kPackedMasked{ABinding::kPacked, BBinding::kPacked, false,
                                false, true};

TEST_P(EveryKernel, FullTileF32) {
  check_binding<float>(GetParam(), kPackedFull);
}
TEST_P(EveryKernel, FullTileF64) {
  check_binding<double>(GetParam(), kPackedFull);
}
TEST_P(EveryKernel, MaskedEdgeF32) {
  check_binding<float>(GetParam(), kPackedMasked);
}
TEST_P(EveryKernel, EveryBindingF32) {
  check_every_binding<float>(GetParam());
}
TEST_P(EveryKernel, EveryBindingF64) {
  check_every_binding<double>(GetParam());
}

TEST_P(EveryKernel, RunsACompiledKernel) {
  // generic_microkernel serves only masked updates, strided-row A and
  // unregistered tiles; every registered tile has its own kernel.
  EXPECT_NE(kernel_fn<float>(GetParam()), &generic_microkernel<float>);
  EXPECT_NE(kernel_fn<double>(GetParam()), &generic_microkernel<double>);
}

TEST_P(EveryKernel, SchedulesBuildForBothPrecisions) {
  const KernelId id = GetParam();
  const auto& info = KernelRegistry::instance().info(id);
  for (const bool f64 : {false, true}) {
    const ScheduleSpec spec =
        f64 ? kernel_spec<double>(id) : kernel_spec<float>(id);
    const KernelSchedule sched = build_schedule(spec);
    EXPECT_EQ(sched.mr, info.mr);
    EXPECT_EQ(sched.nr, info.nr);
    EXPECT_GT(sched.body.size(), 0u);
    EXPECT_GT(sched.epilogue.size(), 0u);
    // Useful-FMA accounting: ceil(mr/lanes) * nr per unrolled iteration.
    const int avec = (info.mr + spec.lanes - 1) / spec.lanes;
    EXPECT_EQ(sched.fma_per_body, avec * info.nr * sched.unroll)
        << info.name << (f64 ? " f64" : " f32");
    // Every register index must fit the renaming table.
    for (const auto& u : sched.body) {
      EXPECT_LT(u.dst, 160);
      EXPECT_LT(u.src1, 160);
      EXPECT_LT(u.src2, 160);
    }
  }
}

TEST_P(EveryKernel, InfoConsistent) {
  const auto& info = KernelRegistry::instance().info(GetParam());
  EXPECT_GT(info.mr, 0);
  EXPECT_GT(info.nr, 0);
  EXPECT_NE(info.f32, nullptr);
  EXPECT_NE(info.f64, nullptr);
  EXPECT_EQ(info.sched.mr, info.mr);
  EXPECT_EQ(info.sched.nr, info.nr);
  // Eq. 4: every registered kernel must fit the register file (f32).
  EXPECT_LE(info.mr * info.nr, 30 * 4) << info.name;
}

INSTANTIATE_TEST_SUITE_P(Registry, EveryKernel,
                         ::testing::ValuesIn(all_kernel_ids()),
                         [](const auto& info) {
                           std::string name =
                               KernelRegistry::instance()
                                   .info(info.param)
                                   .name;
                           for (auto& ch : name)
                             if (ch == '/' || ch == '-') ch = '_';
                           return name;
                         });

}  // namespace
}  // namespace smm::kern
