#include "trace.h"

#include <cstdio>

namespace perfbench {

uint32_t Tracer::Begin(const char* name, uint64_t id) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  const uint32_t parent = open_.empty() ? 0 : open_.back();
  spans_.push_back({name, parent, id, NanosSince(origin_), 0});
  const uint32_t handle = static_cast<uint32_t>(spans_.size());
  open_.push_back(handle);
  return handle;
}

void Tracer::End(uint32_t handle) {
  spans_[handle - 1].end_ns = NanosSince(origin_);
  // Spans close innermost first (ScopedSpan), so the handle is on top.
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Complete ("X") events in microseconds; the span index and its
    // parent's index ride in args so the causal tree survives export.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%u,\"id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, i + 1, s.parent,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
