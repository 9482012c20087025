// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each public call it makes into the
// library (and around its decomposed parts), so a layer's self time is
// its span minus the part of that interval its child spans cover. Spans
// live in a pre-sized vector and are written out once, at exit; when the
// vector is full, further spans are not recorded (the traced phase stops
// at that point, so a run never measures a mix of traced and untraced
// calls).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace smmbench {

struct Span {
  std::uint32_t id = 0;      ///< 1-based position in the trace
  std::uint32_t parent = 0;  ///< 0: a root span
  std::uint64_t request = 0; ///< spans of one operation share it
  const char* name = "";     ///< static string: the layer call
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  /// Start a span now; returns its id, or 0 when the trace is full.
  std::uint32_t open(const char* name, std::uint64_t request,
                     std::uint32_t parent = 0);
  /// End span `id` now (no-op for id 0).
  void close(std::uint32_t id);
  /// Record a span whose bounds the caller measured.
  std::uint32_t add(const char* name, std::uint64_t request,
                    std::uint32_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);

  [[nodiscard]] bool full() const { return spans_.size() >= capacity_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as JSON (times relative to the first span).
  bool write_json(const std::string& path) const;

 private:
  std::size_t capacity_;
  std::vector<Span> spans_;
};

/// Per-name aggregate over a span tree.
struct LayerTime {
  std::uint64_t count = 0;
  double total_ns = 0.0;  ///< sum of span durations
  double self_ns = 0.0;   ///< sum of (duration - covered by children)
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Children may overlap each other
/// (requests in flight together); covered time is counted once.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

}  // namespace smmbench
