// Span recording for the benchmark's traced run. Spans are opened and
// closed by the benchmark around each public call into the library
// (runtime::Compile, protocols::MakeEngines / InstallLinks,
// net::RunScenario, ProvenanceQuerier::Query) and around its own phases
// (round, episode, query block, oracle checks), kept in memory, and written
// out once at the end as Chrome trace-event JSON, which opens offline in
// chrome://tracing or the Perfetto UI.
#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock since `origin`.
inline int64_t NanosSince(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

class Tracer {
 public:
  /// Spans beyond this many are counted in dropped() instead of stored, so a
  /// long query run cannot grow the span buffer without bound.
  static constexpr size_t kMaxSpans = 1u << 20;

  explicit Tracer(std::chrono::steady_clock::time_point origin)
      : origin_(origin) {}

  /// Spans are recorded only while enabled; the traced run alternates
  /// enabled and disabled rounds to measure the tracing overhead.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span; returns a handle for End (0 when nothing was recorded).
  /// The parent is the innermost span still open.
  uint32_t Begin(const char* name, uint64_t id);
  void End(uint32_t handle);

  size_t size() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }

  /// Writes every span as a Chrome trace-event JSON file. Returns false if
  /// the file could not be written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;  // handle of the enclosing span, 0 for a root
    uint64_t id;      // episode, query or round id
    int64_t start_ns;
    int64_t end_ns;
  };

  std::chrono::steady_clock::time_point origin_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;  // handles of the open spans, innermost last
  size_t dropped_ = 0;
};

/// Opens a span for the lifetime of the object. A null or disabled tracer
/// records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t id)
      : tracer_(tracer),
        handle_(tracer != nullptr && tracer->enabled()
                    ? tracer->Begin(name, id)
                    : 0) {}
  ~ScopedSpan() {
    if (handle_ != 0) tracer_->End(handle_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  uint32_t handle_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
