// Scoped trace spans with Chrome trace_event JSON export.
//
//   CARDIR_TRACE_SPAN("prefilter");        // RAII: records scope duration
//   ...
//   StartTracing();
//   engine.Run();
//   StopTracing();
//   WriteChromeTrace(stream);              // load in chrome://tracing/Perfetto
//
// Recording is opt-in at runtime: when tracing is stopped (the default) a
// span costs one relaxed atomic load and a branch. When recording, each
// span appends one event to a per-thread buffer under that buffer's own
// mutex — uncontended in steady state, so the hot path never blocks on a
// global lock, and the collector can safely walk all buffers while worker
// threads are still alive.

#ifndef CARDIR_SRC_OBS_TRACE_H_
#define CARDIR_SRC_OBS_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace cardir {
namespace obs {

/// One completed span ("X" phase in trace_event terms). Times are
/// microseconds on the process-wide steady clock; `tid` is the dense
/// ThisThreadIndex of the recording thread; `depth` counts enclosing spans
/// on the same thread (0 = outermost), so tests can assert nesting without
/// reconstructing it from timestamps.
struct TraceEvent {
  const char* name = nullptr;
  uint64_t start_us = 0;
  uint64_t duration_us = 0;
  uint32_t tid = 0;
  uint32_t depth = 0;
};

/// Starts recording spans (clears previously collected events).
void StartTracing();

/// Stops recording. Spans still open keep their start time and are recorded
/// on destruction only if tracing is running again by then.
void StopTracing();

/// True while spans are being recorded.
bool TracingEnabled();

/// All events recorded since StartTracing, in per-thread order (stable
/// across calls). Safe to call while other threads record.
std::vector<TraceEvent> CollectTraceEvents();

/// Writes the collected events as Chrome trace_event JSON (the
/// {"traceEvents": [...]} object form).
void WriteChromeTrace(std::ostream& out);

/// Microseconds since the tracer's clock epoch (process start, roughly).
uint64_t TraceNowMicros();

// --- Shadow span stacks (sampling-profiler support) ------------------------
//
// When enabled, every TraceSpan also pushes its label onto a per-thread
// shadow stack that the profiler's sampling thread reads concurrently.
// The stack is all-atomic (frame pointers and depth), so cross-thread
// sampling is TSan-clean; labels are immortal string literals, so a
// sampled frame pointer is always safe to dereference even when the stack
// mutated mid-sample — the worst case is one misattributed sample, which
// a statistical profile tolerates.

/// A sampling-thread view of one thread's open spans, outermost first.
struct SpanStackSample {
  uint32_t tid = 0;
  std::vector<const char*> frames;
};

/// Turns shadow-stack bookkeeping on/off (the profiler holds it on while
/// sampling). Off costs one relaxed load per span.
void EnableSpanStacks(bool enabled);
bool SpanStacksEnabled();

/// Snapshots every registered thread's shadow stack. Threads with no open
/// span are omitted. Safe to call concurrently with span push/pop.
std::vector<SpanStackSample> SampleSpanStacks();

class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  uint64_t start_us_ = 0;
  bool active_ = false;   // Recording a Chrome trace event.
  bool pushed_ = false;   // Holding a shadow-stack frame.
};

#define CARDIR_TRACE_SPAN_CONCAT2(a, b) a##b
#define CARDIR_TRACE_SPAN_CONCAT(a, b) CARDIR_TRACE_SPAN_CONCAT2(a, b)
#define CARDIR_TRACE_SPAN(name)                    \
  ::cardir::obs::TraceSpan CARDIR_TRACE_SPAN_CONCAT(\
      cardir_trace_span_, __COUNTER__)(name)

}  // namespace obs
}  // namespace cardir

#endif  // CARDIR_SRC_OBS_TRACE_H_
