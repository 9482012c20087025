// Shared vocabulary of the smmbench harness: run configuration, metric
// records, the latency sample store and the quantile helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace smmbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One reported number. `base` says what it was computed over: the
/// sample count of a timing, or the denominator of a ratio.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string base;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Arm robust::FaultInjector kKernelMiscompute for one checked call
  /// (the benchmark's own tests use it to prove the checker bites).
  bool inject_miscompute = false;
  /// Where the traced run writes its spans (relative to the cwd).
  std::string out_dir = ".bench_out";
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Human-readable lines printed ahead of the JSON result line.
  std::vector<std::string> notes;
};

/// `s` as a JSON string literal (quotes included).
inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      static const char* hex = "0123456789abcdef";
      out += "\\u00";
      out += hex[c >> 4];
      out += hex[c & 15];
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Quantile with linear interpolation between order statistics (the
/// input is taken by value and sorted).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Per-op latencies with bounded memory: every op is counted, and a
/// uniform random sample of at most `capacity` of them is kept
/// (reservoir sampling), so a window of sub-microsecond calls stays
/// bounded and no periodicity of the op sequence biases the sample.
class LatencySamples {
 public:
  explicit LatencySamples(std::size_t capacity) : capacity_(capacity) {
    kept_.reserve(capacity_);
  }

  void add(double ns) {
    sum_ += ns;
    const std::uint64_t i = seen_++;
    if (kept_.size() < capacity_) {
      kept_.push_back(static_cast<float>(ns));
      return;
    }
    // xorshift64: cheap enough for the sub-microsecond calls.
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    const std::uint64_t j = rng_ % (i + 1);
    if (j < capacity_)
      kept_[static_cast<std::size_t>(j)] = static_cast<float>(ns);
  }

  [[nodiscard]] std::uint64_t count() const { return seen_; }
  /// Mean over every op, not only the kept ones.
  [[nodiscard]] double mean() const {
    return seen_ > 0 ? sum_ / static_cast<double>(seen_) : 0.0;
  }
  [[nodiscard]] std::size_t kept() const { return kept_.size(); }

  [[nodiscard]] double quantile(double q) const {
    return smmbench::quantile(std::vector<double>(kept_.begin(), kept_.end()),
                              q);
  }

 private:
  std::size_t capacity_;
  std::vector<float> kept_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_ = 0x9e3779b97f4a7c15ULL;
  double sum_ = 0.0;
};

}  // namespace smmbench
