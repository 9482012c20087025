#include "harness/host.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "harness/bench.h"
#include "src/tune/tune_table.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

extern char** environ;

namespace smmbench {

namespace {

// Each loop keeps enough independent accumulators in flight to cover the
// FMA latency x throughput product; the reduction at the end keeps the
// compiler from discarding the chains.
#if defined(__x86_64__)
constexpr int kChains = 12;

__attribute__((target("avx512f"))) double fma_avx512(bool f64, long iters) {
  double out = 0.0;
  if (f64) {
    __m512d acc[kChains];
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_pd(1.0 + j * 1e-3);
    const __m512d m = _mm512_set1_pd(0.9999999), a = _mm512_set1_pd(1e-9);
    for (long i = 0; i < iters; ++i)
#pragma GCC unroll 32
      for (int j = 0; j < kChains; ++j) acc[j] = _mm512_fmadd_pd(acc[j], m, a);
    alignas(64) double lanes[8];
    for (int j = 0; j < kChains; ++j) {
      _mm512_store_pd(lanes, acc[j]);
      for (double x : lanes) out += x;
    }
    return out;
  }
  __m512 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm512_set1_ps(1.0f + j * 1e-3f);
  const __m512 m = _mm512_set1_ps(0.9999999f), a = _mm512_set1_ps(1e-9f);
  for (long i = 0; i < iters; ++i)
#pragma GCC unroll 32
    for (int j = 0; j < kChains; ++j) acc[j] = _mm512_fmadd_ps(acc[j], m, a);
  alignas(64) float lanes[16];
  for (int j = 0; j < kChains; ++j) {
    _mm512_store_ps(lanes, acc[j]);
    for (float x : lanes) out += static_cast<double>(x);
  }
  return out;
}

__attribute__((target("avx2,fma"))) double fma_avx2(bool f64, long iters) {
  double out = 0.0;
  if (f64) {
    __m256d acc[kChains];
    for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_pd(1.0 + j * 1e-3);
    const __m256d m = _mm256_set1_pd(0.9999999), a = _mm256_set1_pd(1e-9);
    for (long i = 0; i < iters; ++i)
#pragma GCC unroll 32
      for (int j = 0; j < kChains; ++j) acc[j] = _mm256_fmadd_pd(acc[j], m, a);
    alignas(32) double lanes[4];
    for (int j = 0; j < kChains; ++j) {
      _mm256_store_pd(lanes, acc[j]);
      for (double x : lanes) out += x;
    }
    return out;
  }
  __m256 acc[kChains];
  for (int j = 0; j < kChains; ++j) acc[j] = _mm256_set1_ps(1.0f + j * 1e-3f);
  const __m256 m = _mm256_set1_ps(0.9999999f), a = _mm256_set1_ps(1e-9f);
  for (long i = 0; i < iters; ++i)
#pragma GCC unroll 32
    for (int j = 0; j < kChains; ++j) acc[j] = _mm256_fmadd_ps(acc[j], m, a);
  alignas(32) float lanes[8];
  for (int j = 0; j < kChains; ++j) {
    _mm256_store_ps(lanes, acc[j]);
    for (float x : lanes) out += static_cast<double>(x);
  }
  return out;
}
#endif

// Portable fallback: multiply-add chains the compiler vectorizes (and
// contracts to FMA where the target has one).
template <typename T>
double fma_generic(long iters) {
  constexpr int kLanes = 32;
  T acc[kLanes];
  for (int j = 0; j < kLanes; ++j) acc[j] = T(1) + T(j) * T(1e-3);
  const T m = T(0.9999999), a = T(1e-9);
  for (long i = 0; i < iters; ++i)
#pragma GCC unroll 32
    for (int j = 0; j < kLanes; ++j) acc[j] = acc[j] * m + a;
  double out = 0.0;
  for (int j = 0; j < kLanes; ++j) out += static_cast<double>(acc[j]);
  return out;
}

std::string read_cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    for (const char* key : {"model name", "Model", "CPU part"}) {
      if (line.rfind(key, 0) != 0) continue;
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string v = line.substr(colon + 1);
      v.erase(0, v.find_first_not_of(" \t"));
      return v;
    }
  }
  return "unknown";
}

std::string isa_flags() {
  std::string out;
#if defined(__x86_64__)
  __builtin_cpu_init();
  const auto add = [&out](bool has, const char* name) {
    if (!has) return;
    if (!out.empty()) out += ' ';
    out += name;
  };
  add(__builtin_cpu_supports("sse2"), "sse2");
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx"), "avx");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
  add(__builtin_cpu_supports("avx512vl"), "avx512vl");
#elif defined(__aarch64__)
  out = "asimd";
#endif
  return out.empty() ? "unknown" : out;
}

/// One-core FMA throughput in GFLOP/s, best of a few bursts.
double measure_fma_peak(bool f64, std::string* variant = nullptr) {
  const char* name = "generic";
  double (*run)(bool, long) = [](bool d, long n) {
    return d ? fma_generic<double>(n) : fma_generic<float>(n);
  };
  double flops_per_iter = 32.0 * 2.0;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) {
    name = "avx512f";
    run = fma_avx512;
    flops_per_iter = kChains * (f64 ? 8.0 : 16.0) * 2.0;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    name = "avx2+fma";
    run = fma_avx2;
    flops_per_iter = kChains * (f64 ? 4.0 : 8.0) * 2.0;
  }
#endif
  if (variant != nullptr) *variant = name;
  const long iters = 400000;
  double best = 0.0;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 8; ++rep) {
    const std::int64_t t0 = now_ns();
    sink = sink + run(f64, iters);
    const double ns = static_cast<double>(now_ns() - t0);
    if (ns > 0.0) best = std::max(best, flops_per_iter * iters / ns);
  }
  return best;
}

}  // namespace

HostInfo probe_host() {
  HostInfo h;
  h.fingerprint =
      smm::tune::fingerprint_token(smm::tune::machine_fingerprint());
  h.cpu_model = read_cpu_model();
  h.nproc = std::thread::hardware_concurrency();
  h.isa = isa_flags();
  h.peak_f32_gflops = measure_fma_peak(false, &h.fma_variant);
  h.peak_f64_gflops = measure_fma_peak(true);
#ifdef SMMBENCH_COMPILER
  h.compiler = SMMBENCH_COMPILER;
#endif
#ifdef SMMBENCH_BUILD_TYPE
  h.build_type = SMMBENCH_BUILD_TYPE;
#endif
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "SMMKIT_", 7) != 0) continue;
    const std::string kv = *e;
    const auto eq = kv.find('=');
    h.smmkit_env.emplace_back(kv.substr(0, eq),
                              eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  return h;
}

std::string HostInfo::to_json() const {
  char peaks[160];
  std::snprintf(peaks, sizeof(peaks),
                "\"peak_f32_gflops\": %.3f, \"peak_f64_gflops\": %.3f",
                peak_f32_gflops, peak_f64_gflops);
  std::string env = "{";
  for (std::size_t i = 0; i < smmkit_env.size(); ++i) {
    if (i > 0) env += ", ";
    env += json_string(smmkit_env[i].first) + ": " +
           json_string(smmkit_env[i].second);
  }
  env += "}";
  return "{\"fingerprint\": " + json_string(fingerprint) +
         ", \"cpu_model\": " + json_string(cpu_model) +
         ", \"nproc\": " + std::to_string(nproc) +
         ", \"isa\": " + json_string(isa) +
         ", \"fma_variant\": " + json_string(fma_variant) + ", " + peaks +
         ", \"compiler\": " + json_string(compiler) +
         ", \"build_type\": " + json_string(build_type) +
         ", \"smmkit_env\": " + env +
         ", \"non_default\": " + (non_default() ? "true" : "false") + "}";
}

}  // namespace smmbench
