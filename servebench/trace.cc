#include "trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_map>

namespace servebench {

SpanLog::SpanLog(int thread, bool enabled, Clock::time_point epoch)
    : enabled_(enabled),
      epoch_(epoch),
      next_id_(static_cast<int64_t>(thread) << 40) {}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) {
  if (log == nullptr || !log->enabled_) return;
  log_ = log;
  index_ = log->spans_.size();
  Span span;
  span.name = name;
  span.id = log->next_id_++;
  span.parent =
      log->open_.empty() ? -1 : log->spans_[log->open_.back()].id;
  span.request = log->request_;
  span.start_ns = log->NowNs();
  log->spans_.push_back(span);
  log->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  log_->spans_[index_].end_ns = log_->NowNs();
  log_->open_.pop_back();
}

std::map<std::string, LayerTime> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, LayerTime> out;
  std::map<std::string, std::set<int64_t>> requests;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const int64_t self =
        s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
    LayerTime& layer = out[s.name];
    layer.self_ms += static_cast<double>(self) / 1e6;
    ++layer.calls;
    requests[s.name].insert(s.request);
  }
  for (auto& [name, layer] : out) {
    layer.requests = static_cast<long long>(requests[name].size());
  }
  return out;
}

Coverage ReplayCoverage(const std::vector<Span>& spans, const char* wire_root,
                        const char* replay_root) {
  std::unordered_map<int64_t, int64_t> wire_ns;      // request -> duration
  std::unordered_map<int64_t, int64_t> replay_ids;   // replay root -> request
  for (const Span& s : spans) {
    if (s.parent >= 0) continue;
    if (std::strcmp(s.name, wire_root) == 0) {
      wire_ns[s.request] += s.end_ns - s.start_ns;
    } else if (std::strcmp(s.name, replay_root) == 0) {
      replay_ids[s.id] = s.request;
    }
  }
  std::unordered_map<int64_t, int64_t> covered_ns;  // request -> covered
  for (const Span& s : spans) {
    const auto it = replay_ids.find(s.parent);
    if (it != replay_ids.end()) covered_ns[it->second] += s.end_ns - s.start_ns;
  }
  Coverage out;
  for (const auto& [root, request] : replay_ids) {
    const auto wire = wire_ns.find(request);
    if (wire == wire_ns.end()) continue;
    out.wire_ms += static_cast<double>(wire->second) / 1e6;
    out.covered_ms += static_cast<double>(covered_ns[request]) / 1e6;
    ++out.requests;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"id\":%" PRId64 ",\"parent\":%" PRId64
                 ",\"request\":%" PRId64 "}\n",
                 s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request);
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
