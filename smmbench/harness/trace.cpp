#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "harness/bench.h"

namespace smmbench {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
}

std::uint32_t Tracer::open(const char* name, std::uint64_t request,
                           std::uint32_t parent) {
  const std::int64_t t = now_ns();
  return add(name, request, parent, t, t);
}

void Tracer::close(std::uint32_t id) {
  if (id == 0) return;
  spans_[id - 1].end_ns = now_ns();
}

std::uint32_t Tracer::add(const char* name, std::uint64_t request,
                          std::uint32_t parent, std::int64_t start_ns,
                          std::int64_t end_ns) {
  if (full()) return 0;
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back(Span{id, parent, request, name, start_ns, end_ns});
  return id;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %u, \"parent\": %u, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 s.id, s.parent, static_cast<unsigned long long>(s.request),
                 s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  // Children of each span, as intervals; ids are 1-based positions.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent != 0 && s.parent <= spans.size())
      children[s.parent - 1].emplace_back(s.start_ns, s.end_ns);

  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of child intervals clipped to [start, end].
    double covered = 0.0;
    std::int64_t cursor = s.start_ns;
    for (const auto& [b, e] : kids) {
      const std::int64_t lo = std::max(b, cursor);
      const std::int64_t hi = std::min(e, s.end_ns);
      if (hi > lo) {
        covered += static_cast<double>(hi - lo);
        cursor = hi;
      }
    }
    LayerTime& lt = out[s.name];
    lt.count += 1;
    lt.total_ns += duration;
    lt.self_ns += duration - covered;
  }
  return out;
}

}  // namespace smmbench
