#include "src/kernels/registry.h"

#include <algorithm>

#include "src/common/error.h"
#include "src/common/str.h"
#include "src/kernels/schedules_armv8.h"

namespace smm::kern {

// Dispatch table over the compiled tiles (microkernel.h). Any other tile
// falls back to the generic kernel.
template <typename T>
MicroKernelFn<T> native_tile_fn(int mr, int nr) {
#define SMM_TILE_CASE(KERNEL, MR, NR) \
  case MR * 100 + NR:                 \
    return &KERNEL<T, MR, NR>;
  switch (mr * 100 + nr) {
    SMM_COMPILED_TILES(SMM_TILE_CASE)
    default:
      return &generic_microkernel<T>;
  }
#undef SMM_TILE_CASE
}
template MicroKernelFn<float> native_tile_fn<float>(int, int);
template MicroKernelFn<double> native_tile_fn<double>(int, int);

KernelId KernelRegistry::add(KernelInfo info) {
  info.id = static_cast<KernelId>(kernels_.size());
  info.f32 = native_tile_fn<float>(info.mr, info.nr);
  info.f64 = native_tile_fn<double>(info.mr, info.nr);
  kernels_.push_back(std::move(info));
  return kernels_.back().id;
}

KernelRegistry::KernelRegistry() {
  auto make = [](std::string family, int mr, int nr, bool edge,
                 ScheduleSpec sched) {
    KernelInfo k;
    k.name = strprintf("%s/%dx%d", family.c_str(), mr, nr);
    k.family = std::move(family);
    k.mr = mr;
    k.nr = nr;
    k.edge = edge;
    k.sched = sched;
    return k;
  };

  // --- OpenBLAS family (Table I: 16x4, 8x8, 4x4; unroll 8; edge kernels).
  add(make("openblas", 16, 4, false, openblas_main_spec(16, 4)));
  add(make("openblas", 8, 8, false, openblas_main_spec(8, 8)));
  add(make("openblas", 4, 4, false, openblas_main_spec(4, 4)));
  for (int mr : {16, 8, 4, 2, 1}) {
    for (int nr : {4, 2, 1}) {
      if ((mr == 16 || mr == 8 || mr == 4) && nr == 4 && mr != 8) continue;
      // 8x4 is the literal Fig. 7 edge kernel; other main tiles already
      // cover their exact size, so only remainder combinations register.
      if (mr == 4 && nr == 4) continue;
      if (mr == 16 && nr == 4) continue;
      add(make("openblas", mr, nr, true, openblas_edge_spec(mr, nr)));
    }
  }

  // --- BLIS family (Table I: 8x12, unroll 4; edges via zero padding, so
  // the single kernel serves every tile).
  add(make("blis", 8, 12, false, blis_spec(8, 12)));

  // --- BLASFEO family (Table I: 16x4 and 8x8, unroll 4; panel-major
  // operands, row edges absorbed by panel zero padding).
  add(make("blasfeo", 16, 4, false, blasfeo_spec(16, 4)));
  add(make("blasfeo", 8, 8, false, blasfeo_spec(8, 8)));
  add(make("blasfeo", 8, 4, true, blasfeo_spec(8, 4)));
  add(make("blasfeo", 4, 4, true, blasfeo_spec(4, 4)));

  // --- Eigen family (Table I: 12x4, unroll 1, no assembly; edge fallbacks
  // are the same compiler-generated style at smaller tiles).
  add(make("eigen", 12, 4, false, eigen_spec(12, 4)));
  for (int mr : {8, 4, 2, 1}) {
    for (int nr : {4, 2, 1}) {
      if (mr == 8 && nr == 4) {
        add(make("eigen", mr, nr, true, eigen_spec(mr, nr)));
        continue;
      }
      add(make("eigen", mr, nr, nr != 4, eigen_spec(mr, nr)));
    }
  }
  add(make("eigen", 12, 2, true, eigen_spec(12, 2)));
  add(make("eigen", 12, 1, true, eigen_spec(12, 1)));

  // --- Reference SMM family (Section IV): pipelined main kernels plus a
  // full lattice of pipelined edge kernels (the paper's guidance: edge
  // kernels must use aligned vector loads and FMAs too), and direct-B
  // variants for the packing-optional path.
  add(make("smm", 16, 4, false, smm_spec(16, 4)));
  add(make("smm", 8, 8, false, smm_spec(8, 8)));
  add(make("smm", 12, 4, false, smm_spec(12, 4)));
  for (int mr : {16, 12, 8, 4, 2, 1}) {
    for (int nr : {8, 4, 2, 1}) {
      if (nr == 4 && (mr == 16 || mr == 12)) continue;
      if (nr == 8 && mr == 8) continue;
      if (nr == 8 && mr * nr / 4 > 30) continue;  // Eq. 4 register bound
      ScheduleSpec spec = smm_spec(mr, nr);
      if (mr * nr <= 8) spec.unroll = 4;  // tiny tiles: shorter ramp
      add(make("smm", mr, nr, /*edge=*/mr * nr < 32, spec));
    }
  }
  for (int mr : {16, 12, 8, 4, 2, 1}) {
    for (int nr : {8, 4, 2, 1}) {
      if (nr == 8 && mr * nr / 4 > 30) continue;
      add(make("smm-direct", mr, nr, mr * nr < 32,
               smm_direct_b_spec(mr, nr)));
    }
  }
}

const KernelRegistry& KernelRegistry::instance() {
  static const KernelRegistry registry;
  return registry;
}

const KernelInfo& KernelRegistry::info(KernelId id) const {
  SMM_EXPECT(id >= 0 && id < static_cast<KernelId>(kernels_.size()),
             "unknown kernel id");
  return kernels_[static_cast<std::size_t>(id)];
}

KernelId KernelRegistry::find(std::string_view name) const {
  for (const auto& k : kernels_)
    if (k.name == name) return k.id;
  SMM_EXPECT(false, strprintf("kernel '%.*s' not registered",
                              static_cast<int>(name.size()), name.data()));
  return -1;
}

KernelId KernelRegistry::find_tile(std::string_view family, int mr,
                                   int nr) const {
  for (const auto& k : kernels_)
    if (k.family == family && k.mr == mr && k.nr == nr) return k.id;
  SMM_EXPECT(false, strprintf("no %dx%d kernel in family '%.*s'", mr, nr,
                              static_cast<int>(family.size()),
                              family.data()));
  return -1;
}

bool KernelRegistry::has_tile(std::string_view family, int mr,
                              int nr) const {
  for (const auto& k : kernels_)
    if (k.family == family && k.mr == mr && k.nr == nr) return true;
  return false;
}

std::vector<KernelId> KernelRegistry::family(std::string_view family) const {
  std::vector<KernelId> out;
  for (const auto& k : kernels_)
    if (k.family == family) out.push_back(k.id);
  std::stable_sort(out.begin(), out.end(), [this](KernelId a, KernelId b) {
    return !kernels_[static_cast<std::size_t>(a)].edge &&
           kernels_[static_cast<std::size_t>(b)].edge;
  });
  return out;
}

template <typename T>
MicroKernelFn<T> kernel_fn(KernelId id) {
  const KernelInfo& k = KernelRegistry::instance().info(id);
  if constexpr (std::is_same_v<T, float>) {
    return k.f32;
  } else {
    return k.f64;
  }
}
template MicroKernelFn<float> kernel_fn<float>(KernelId);
template MicroKernelFn<double> kernel_fn<double>(KernelId);

template <typename T>
ScheduleSpec kernel_spec(KernelId id) {
  ScheduleSpec spec = KernelRegistry::instance().info(id).sched;
  spec.lanes = static_cast<int>(16 / sizeof(T));
  return spec;
}
template ScheduleSpec kernel_spec<float>(KernelId);
template ScheduleSpec kernel_spec<double>(KernelId);

std::vector<index_t> decompose_edge(index_t extent,
                                    const std::vector<index_t>& sizes) {
  SMM_EXPECT(!sizes.empty() && sizes.back() == 1,
             "edge decomposition needs a size-1 fallback");
  std::vector<index_t> chunks;
  index_t left = extent;
  std::size_t s = 0;
  while (left > 0) {
    while (s < sizes.size() && sizes[s] > left) ++s;
    chunks.push_back(sizes[s]);
    left -= sizes[s];
  }
  return chunks;
}

}  // namespace smm::kern
