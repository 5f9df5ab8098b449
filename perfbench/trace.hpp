#pragma once

// In-memory span recorder for the traced run. Spans are recorded only by
// the benchmark, around its calls into the program's modules, and written
// out once the run has finished. A disabled tracer records nothing; an
// enabled one keeps the spans of every request_stride-th request id and
// every span without a request id.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  const char* name = "";   ///< static string: the layer boundary crossed
  Clock::time_point start{};
  Clock::time_point end{};
  std::int64_t parent = -1;  ///< index of the causing span, -1 for a root
  std::int64_t request = -1; ///< per-request id shared by a request's spans
};

class Tracer {
 public:
  static constexpr std::int64_t kNone = -1;

  explicit Tracer(bool enabled, std::int64_t request_stride = 1)
      : enabled_(enabled), request_stride_(request_stride) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }

  /// Record a span whose bounds are already known; returns its id.
  std::int64_t add(const char* name, Clock::time_point start, Clock::time_point end,
                   std::int64_t parent = kNone, std::int64_t request = kNone) {
    if (!enabled_ || (request != kNone && request % request_stride_ != 0)) return kNone;
    spans_.push_back(Span{name, start, end, parent, request});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  /// Open a span now; close() stamps its end.
  std::int64_t open(const char* name, std::int64_t parent = kNone,
                    std::int64_t request = kNone) {
    if (!enabled_ || (request != kNone && request % request_stride_ != 0)) return kNone;
    const Clock::time_point now = Clock::now();
    return add(name, now, now, parent, request);
  }

  void close(std::int64_t id) { close_at(id, Clock::now()); }

  void close_at(std::int64_t id, Clock::time_point end) {
    if (id != kNone) spans_[static_cast<std::size_t>(id)].end = end;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as one tab-separated line: id, name, start_ns,
  /// end_ns (both relative to the first span), parent id, request id.
  bool write_tsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\trequest\n");
    const Clock::time_point origin = spans_.empty() ? Clock::time_point{} : spans_.front().start;
    const auto ns = [origin](Clock::time_point t) {
      return static_cast<long long>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count());
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%lld\t%lld\n", i, s.name, ns(s.start), ns(s.end),
                   static_cast<long long>(s.parent), static_cast<long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::int64_t request_stride_;
  std::vector<Span> spans_;
};

/// RAII span over one call.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t parent = Tracer::kNone,
        std::int64_t request = Tracer::kNone)
      : tracer_(tracer), id_(tracer.open(name, parent, request)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
