// The traced run's span recorder. Spans are recorded from the benchmark's
// own files, around its calls into the library's public functions; nothing
// inside the library is instrumented. Each client thread owns one SpanLog
// (no locking on the hot path); the logs are merged when the run ends,
// reduced to per-layer self times, and written to the span file.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace servebench {

/// One timed call. `parent` is the id of the enclosing span of the same
/// thread (-1 for a root); spans of one request share `request`.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
};

class SpanLog {
 public:
  /// `thread` keeps span ids unique across the logs of one run; a disabled
  /// log records nothing.
  SpanLog(int thread, bool enabled, Clock::time_point epoch);

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Tags the spans that follow with `request`.
  void set_request(int64_t request) { request_ = request; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Records one span for its lifetime. A null or disabled log makes it a
  /// no-op, so call sites need no tracing branch.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_ = nullptr;
    size_t index_ = 0;
  };

 private:
  int64_t NowNs() const;

  bool enabled_;
  Clock::time_point epoch_;
  int64_t next_id_;
  int64_t request_ = -1;
  std::vector<Span> spans_;
  std::vector<size_t> open_;  ///< indices into spans_ of unfinished spans
};

/// Self time of one layer: its spans' durations minus the time their
/// child spans cover, summed, and the number of requests it occurred in.
struct LayerTime {
  double self_ms = 0.0;
  long long calls = 0;
  long long requests = 0;

  /// Mean self time per request that reached this layer.
  double per_request_ms() const {
    return requests > 0 ? self_ms / static_cast<double>(requests) : 0.0;
  }
};

/// Per-layer self times of `spans`, keyed by span name.
std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans);

/// For requests that have both a `wire_root` span and a `replay_root`
/// span: the summed wire durations and the summed durations of the replay
/// root's direct children (the layer calls that cover the wire time).
struct Coverage {
  double wire_ms = 0.0;
  double covered_ms = 0.0;
  long long requests = 0;
};
Coverage ReplayCoverage(const std::vector<Span>& spans, const char* wire_root,
                        const char* replay_root);

/// Writes one JSON object per span per line. False if the file cannot be
/// written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
