#include "obs/trace.h"

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <ostream>

#include "obs/metrics.h"

namespace cardir {
namespace obs {

namespace {

// Per-thread event sink. Buffers are leaked on thread exit so the collector
// can still read events recorded by threads that have since joined; each
// buffer carries its own mutex, which is uncontended on the recording path
// (only the owning thread appends) and taken by the collector on dumps.
struct ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  uint32_t tid = 0;
};

struct Collector {
  std::mutex mutex;
  std::vector<ThreadBuffer*> buffers;
};

Collector& GlobalCollector() {
  static Collector* collector = new Collector();
  return *collector;
}

std::atomic<bool> g_tracing{false};

std::chrono::steady_clock::time_point ClockEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    auto* fresh = new ThreadBuffer();
    fresh->tid = static_cast<uint32_t>(ThisThreadIndex());
    Collector& collector = GlobalCollector();
    std::lock_guard<std::mutex> lock(collector.mutex);
    collector.buffers.push_back(fresh);
    return fresh;
  }();
  return *buffer;
}

// Nesting depth of open spans on this thread; owner-thread-only.
thread_local uint32_t t_span_depth = 0;

// --- Shadow span stacks ----------------------------------------------------

// One per thread. The owning thread pushes/pops; the profiler's sampling
// thread reads frames and depth concurrently, so every field is atomic
// (relaxed/acquire-release — no TSan suppressions). Fixed depth: spans
// nest engine > phase > chunk > pair, nowhere near 64; deeper frames are
// silently not recorded (the depth counter still tracks them so pops
// balance).
struct SpanShadowStack {
  static constexpr uint32_t kMaxDepth = 64;
  std::array<std::atomic<const char*>, kMaxDepth> frames{};
  std::atomic<uint32_t> depth{0};
  uint32_t tid = 0;
};

struct StackDirectory {
  std::mutex mutex;
  std::vector<SpanShadowStack*> stacks;
};

StackDirectory& GlobalStackDirectory() {
  static StackDirectory* directory = new StackDirectory();
  return *directory;
}

std::atomic<bool> g_span_stacks{false};

SpanShadowStack& LocalShadowStack() {
  thread_local SpanShadowStack* stack = [] {
    auto* fresh = new SpanShadowStack();  // Leaked: samples may race exit.
    fresh->tid = static_cast<uint32_t>(ThisThreadIndex());
    StackDirectory& directory = GlobalStackDirectory();
    std::lock_guard<std::mutex> lock(directory.mutex);
    directory.stacks.push_back(fresh);
    return fresh;
  }();
  return *stack;
}

void PushShadowFrame(const char* name) {
  SpanShadowStack& stack = LocalShadowStack();
  const uint32_t d = stack.depth.load(std::memory_order_relaxed);
  if (d < SpanShadowStack::kMaxDepth) {
    stack.frames[d].store(name, std::memory_order_relaxed);
  }
  // Release: a sampler that observes the new depth also observes the frame.
  stack.depth.store(d + 1, std::memory_order_release);
}

void PopShadowFrame() {
  SpanShadowStack& stack = LocalShadowStack();
  const uint32_t d = stack.depth.load(std::memory_order_relaxed);
  if (d > 0) stack.depth.store(d - 1, std::memory_order_release);
}

void EscapeJson(const char* text, std::ostream& out) {
  for (const char* p = text; *p != '\0'; ++p) {
    switch (*p) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << *p;
    }
  }
}

}  // namespace

uint64_t TraceNowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - ClockEpoch())
          .count());
}

void StartTracing() {
  Collector& collector = GlobalCollector();
  std::lock_guard<std::mutex> lock(collector.mutex);
  for (ThreadBuffer* buffer : collector.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
  g_tracing.store(true, std::memory_order_release);
}

void StopTracing() { g_tracing.store(false, std::memory_order_release); }

bool TracingEnabled() { return g_tracing.load(std::memory_order_acquire); }

std::vector<TraceEvent> CollectTraceEvents() {
  Collector& collector = GlobalCollector();
  std::lock_guard<std::mutex> lock(collector.mutex);
  std::vector<TraceEvent> all;
  for (ThreadBuffer* buffer : collector.buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    all.insert(all.end(), buffer->events.begin(), buffer->events.end());
  }
  return all;
}

void WriteChromeTrace(std::ostream& out) {
  const std::vector<TraceEvent> events = CollectTraceEvents();
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"name\": \"";
    EscapeJson(event.name, out);
    out << "\", \"cat\": \"cardir\", \"ph\": \"X\", \"ts\": " << event.start_us
        << ", \"dur\": " << event.duration_us
        << ", \"pid\": 1, \"tid\": " << event.tid
        << ", \"args\": {\"depth\": " << event.depth << "}}";
  }
  out << "\n]}\n";
}

void EnableSpanStacks(bool enabled) {
  g_span_stacks.store(enabled, std::memory_order_release);
}

bool SpanStacksEnabled() {
  return g_span_stacks.load(std::memory_order_relaxed);
}

std::vector<SpanStackSample> SampleSpanStacks() {
  StackDirectory& directory = GlobalStackDirectory();
  std::lock_guard<std::mutex> lock(directory.mutex);
  std::vector<SpanStackSample> samples;
  for (const SpanShadowStack* stack : directory.stacks) {
    // Acquire pairs with the push's release: frames below the observed
    // depth are fully written. A pop racing the read just shortens the
    // sample by one frame.
    uint32_t d = stack->depth.load(std::memory_order_acquire);
    if (d == 0) continue;
    if (d > SpanShadowStack::kMaxDepth) d = SpanShadowStack::kMaxDepth;
    SpanStackSample sample;
    sample.tid = stack->tid;
    sample.frames.reserve(d);
    for (uint32_t i = 0; i < d; ++i) {
      const char* frame = stack->frames[i].load(std::memory_order_relaxed);
      if (frame != nullptr) sample.frames.push_back(frame);
    }
    if (!sample.frames.empty()) samples.push_back(std::move(sample));
  }
  return samples;
}

TraceSpan::TraceSpan(const char* name) : name_(name) {
  const bool tracing = TracingEnabled();
  const bool stacks = SpanStacksEnabled();
  if (!tracing && !stacks) return;
  if (stacks) {
    PushShadowFrame(name_);
    pushed_ = true;
  }
  if (!tracing) return;
  active_ = true;
  ++t_span_depth;
  start_us_ = TraceNowMicros();
}

TraceSpan::~TraceSpan() {
  if (pushed_) PopShadowFrame();
  if (!active_) return;
  const uint32_t depth = --t_span_depth;
  if (!TracingEnabled()) return;  // Stopped mid-span: drop the event.
  const uint64_t end_us = TraceNowMicros();
  TraceEvent event;
  event.name = name_;
  event.start_us = start_us_;
  event.duration_us = end_us - start_us_;
  event.depth = depth;
  ThreadBuffer& buffer = LocalBuffer();
  event.tid = buffer.tid;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.events.push_back(event);
}

}  // namespace obs
}  // namespace cardir
