#include "src/kernels/microkernel.h"

#include "src/common/error.h"
#include "src/simd/vec.h"

namespace smm::kern {

template <typename T>
void generic_microkernel(index_t kc, T alpha, T beta,
                         const KernelOperands<T>& ops, index_t mr_eff,
                         index_t nr_eff) {
  // Accumulate in a local tile so C is read/written exactly once
  // (Algorithm 1, lines 3 and 11-13).
  constexpr index_t kMaxTile = 32;
  SMM_EXPECT(mr_eff >= 0 && mr_eff <= kMaxTile && nr_eff >= 0 &&
                 nr_eff <= kMaxTile,
             "generic_microkernel: tile too large");
  // Both offsets are linear in k, so the panel arithmetic (a % and a / per
  // row and per column) runs once per call instead of once per element.
  const T* arow[kMaxTile];
  const T* bcol[kMaxTile];
  for (index_t i = 0; i < mr_eff; ++i) arow[i] = ops.a + a_offset(ops, i, 0);
  for (index_t j = 0; j < nr_eff; ++j) bcol[j] = ops.b + b_offset(ops, 0, j);
  const index_t ak = ops.a_kstride;
  const index_t bk = ops.b_kstride;

  T acc[kMaxTile][kMaxTile];
  for (index_t i = 0; i < mr_eff; ++i)
    for (index_t j = 0; j < nr_eff; ++j) acc[i][j] = T(0);

  for (index_t k = 0; k < kc; ++k) {
    for (index_t j = 0; j < nr_eff; ++j) {
      const T bkj = bcol[j][k * bk];
      for (index_t i = 0; i < mr_eff; ++i) acc[i][j] += arow[i][k * ak] * bkj;
    }
  }

  for (index_t j = 0; j < nr_eff; ++j) {
    for (index_t i = 0; i < mr_eff; ++i) {
      T* c = ops.c + i * ops.c_rs + j * ops.c_cs;
      // beta == 0 must not read C (it may hold uninitialized data).
      *c = (beta == T(0)) ? alpha * acc[i][j] : alpha * acc[i][j] + beta * *c;
    }
  }
}

template <typename T, int MR, int NR>
void edge_microkernel(index_t kc, T alpha, T beta,
                      const KernelOperands<T>& ops, index_t mr_eff,
                      index_t nr_eff) {
  SMM_EXPECT(mr_eff == MR && nr_eff == NR,
             "edge_microkernel handles only full tiles");
  // The same loops as generic_microkernel with the tile fixed at compile
  // time; GCC leaves loops this short rolled at -O2 unless told otherwise.
  const T* arow[MR];
  const T* bcol[NR];
#pragma GCC unroll 16
  for (int i = 0; i < MR; ++i) arow[i] = ops.a + a_offset(ops, i, 0);
#pragma GCC unroll 16
  for (int j = 0; j < NR; ++j) bcol[j] = ops.b + b_offset(ops, 0, j);
  const index_t ak = ops.a_kstride;
  const index_t bk = ops.b_kstride;

  T acc[MR][NR] = {};
  for (index_t k = 0; k < kc; ++k) {
#pragma GCC unroll 16
    for (int j = 0; j < NR; ++j) {
      const T bkj = bcol[j][k * bk];
#pragma GCC unroll 16
      for (int i = 0; i < MR; ++i) acc[i][j] += arow[i][k * ak] * bkj;
    }
  }

#pragma GCC unroll 16
  for (int j = 0; j < NR; ++j) {
#pragma GCC unroll 16
    for (int i = 0; i < MR; ++i) {
      T* c = ops.c + i * ops.c_rs + j * ops.c_cs;
      *c = (beta == T(0)) ? alpha * acc[i][j] : alpha * acc[i][j] + beta * *c;
    }
  }
}

namespace {

// A sliver pointer for the 4-wide row group starting at row r (r % lanes
// == 0), column k. Contiguity is guaranteed by the tile_microkernel
// addressing contract.
template <typename T>
const T* a_group_ptr(const KernelOperands<T>& ops, index_t r, index_t k) {
  return ops.a + a_offset(ops, r, k);
}

}  // namespace

template <typename T, int MR, int NR>
void tile_microkernel(index_t kc, T alpha, T beta,
                      const KernelOperands<T>& ops, index_t mr_eff,
                      index_t nr_eff) {
  using V = simd::Vec<T>;
  constexpr index_t kLanes = V::lanes;
  static_assert(MR % kLanes == 0, "MR must be a multiple of vector width");
  constexpr index_t kRowVecs = MR / kLanes;
  SMM_EXPECT(mr_eff == MR && nr_eff == NR,
             "tile_microkernel handles only full tiles");
  SMM_EXPECT(ops.a_ps % kLanes == 0 && ops.a_istride == 1,
             "tile_microkernel requires contiguous vector-aligned A panels");

  // The register block: kRowVecs x NR accumulators, mirroring how the
  // ARMv8 kernels hold the C tile in v-registers.
  V acc[kRowVecs][NR];
  for (index_t rv = 0; rv < kRowVecs; ++rv)
    for (index_t j = 0; j < NR; ++j) acc[rv][j] = V::zero();

  for (index_t k = 0; k < kc; ++k) {
    V av[kRowVecs];
    for (index_t rv = 0; rv < kRowVecs; ++rv)
      av[rv] = V::load(a_group_ptr(ops, rv * kLanes, k));
    for (index_t j = 0; j < NR; ++j) {
      const T bkj = ops.b[b_offset(ops, k, j)];
      for (index_t rv = 0; rv < kRowVecs; ++rv)
        simd::fma_scalar(acc[rv][j], av[rv], bkj);
    }
  }

  const bool c_col_contig = (ops.c_rs == 1);
  for (index_t j = 0; j < NR; ++j) {
    if (c_col_contig) {
      for (index_t rv = 0; rv < kRowVecs; ++rv) {
        T* c = ops.c + (rv * kLanes) * ops.c_rs + j * ops.c_cs;
        V old = (beta == T(0)) ? V::zero() : V::load(c);
        V out = V::broadcast(alpha) * acc[rv][j] + V::broadcast(beta) * old;
        out.store(c);
      }
    } else {
      for (index_t i = 0; i < MR; ++i) {
        T* c = ops.c + i * ops.c_rs + j * ops.c_cs;
        const T val = alpha * acc[i / kLanes][j].lane(i % kLanes);
        *c = (beta == T(0)) ? val : val + beta * *c;
      }
    }
  }
}

// ---- Explicit instantiations ---------------------------------------------

template void generic_microkernel<float>(index_t, float, float,
                                         const KernelOperands<float>&,
                                         index_t, index_t);
template void generic_microkernel<double>(index_t, double, double,
                                          const KernelOperands<double>&,
                                          index_t, index_t);

#define SMM_INSTANTIATE_TILE(KERNEL, MR, NR)                          \
  template void KERNEL<float, MR, NR>(index_t, float, float,          \
                                      const KernelOperands<float>&,   \
                                      index_t, index_t);              \
  template void KERNEL<double, MR, NR>(index_t, double, double,       \
                                       const KernelOperands<double>&, \
                                       index_t, index_t);

SMM_COMPILED_TILES(SMM_INSTANTIATE_TILE)

#undef SMM_INSTANTIATE_TILE

}  // namespace smm::kern
