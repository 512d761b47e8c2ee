// Benchmark-owned spans around the benchmark's calls into the library.
//
// Spans are kept in memory (name, start, end, parent, op id) and written as
// Chrome trace_event JSON when the run ends. A span's self time is its
// duration minus the durations of its direct children. Recording is off
// unless the tracer was enabled, so untraced runs pay one branch per span.

#ifndef CARDIR_BENCHMARK_TRACE_H_
#define CARDIR_BENCHMARK_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/// Nanoseconds on the steady clock.
uint64_t NowNs();

struct SpanRecord {
  const char* name = nullptr;  ///< String literal.
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< Index of the enclosing span, -1 at top level.
  uint32_t op = 0;      ///< Operation id; 0 for probes and set-up.
};

class Tracer {
 public:
  void SetEnabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span nested in the innermost open one; returns its index, or
  /// -1 when disabled.
  int32_t Begin(const char* name, uint32_t op);
  void End(int32_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span, parallel to spans().
  std::vector<uint64_t> SelfNs() const;

  /// Writes {"traceEvents": [...]} with self time and parent in each
  /// event's args. Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

/// RAII span on a tracer.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint32_t op)
      : tracer_(tracer), index_(tracer->Begin(name, op)) {}
  ~Span() { tracer_->End(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace bench

#endif  // CARDIR_BENCHMARK_TRACE_H_
