// The host block printed with every run: which machine, which build,
// and which SMMKIT_* knobs were set, so two runs are only compared when
// they measured the same thing.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace smmbench {

struct HostInfo {
  std::string fingerprint;  ///< smm::tune machine fingerprint token
  std::string cpu_model;
  unsigned nproc = 0;
  std::string isa;          ///< space-separated ISA flags of this CPU
  std::string fma_variant;  ///< vector ISA the peak loop ran with
  double peak_f32_gflops = 0.0;  ///< one-core FMA peak measured in-run
  double peak_f64_gflops = 0.0;
  std::string compiler;
  std::string build_type;
  /// Every SMMKIT_* variable present in the environment.
  std::vector<std::pair<std::string, std::string>> smmkit_env;

  /// Any SMMKIT_* knob set: the run did not measure the defaults.
  [[nodiscard]] bool non_default() const { return !smmkit_env.empty(); }
  [[nodiscard]] std::string to_json() const;
};

/// Gather the host block. Measures the one-core FMA peak with the widest
/// vector ISA this CPU supports (best of a few short bursts, ~0.1 s).
HostInfo probe_host();

}  // namespace smmbench
