#include "obs/trace.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace cardir {
namespace obs {
namespace {

// A minimal recursive-descent JSON syntax checker: enough to prove the
// Chrome trace output is well-formed (what chrome://tracing's loader
// requires) without a JSON library dependency.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (Peek() != ':') return false;
      ++pos_;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') ++pos_;  // Skip the escaped character.
      ++pos_;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // Closing quote.
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    const size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a": [1, 2.5, "x\"y", true, null]})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a": )").Valid());
  EXPECT_FALSE(JsonChecker(R"([1, 2,])").Valid());
  EXPECT_FALSE(JsonChecker("{} trailing").Valid());
}

TEST(TraceTest, DisabledByDefaultAndSpansAreFree) {
  ASSERT_FALSE(TracingEnabled());
  { CARDIR_TRACE_SPAN("not.recorded"); }
  StartTracing();
  StopTracing();
  // The span above ran while tracing was off, so nothing was collected.
  for (const TraceEvent& event : CollectTraceEvents()) {
    EXPECT_STRNE(event.name, "not.recorded");
  }
}

TEST(TraceTest, RecordsNestedSpansWithDepth) {
  StartTracing();
  {
    CARDIR_TRACE_SPAN("outer");
    {
      CARDIR_TRACE_SPAN("inner");
    }
  }
  StopTracing();
  const std::vector<TraceEvent> events = CollectTraceEvents();
  const TraceEvent* outer = nullptr;
  const TraceEvent* inner = nullptr;
  for (const TraceEvent& event : events) {
    if (std::string(event.name) == "outer") outer = &event;
    if (std::string(event.name) == "inner") inner = &event;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0u);
  EXPECT_EQ(inner->depth, 1u);
  EXPECT_EQ(outer->tid, inner->tid);
  // The inner span is contained in the outer one.
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->duration_us,
            outer->start_us + outer->duration_us);
}

TEST(TraceTest, AttributesSpansToTheRecordingThread) {
  StartTracing();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] { CARDIR_TRACE_SPAN("worker.span"); });
  }
  for (auto& thread : threads) thread.join();
  StopTracing();

  std::map<uint32_t, int> spans_per_tid;
  for (const TraceEvent& event : CollectTraceEvents()) {
    if (std::string(event.name) == "worker.span") ++spans_per_tid[event.tid];
  }
  int total = 0;
  for (const auto& [tid, count] : spans_per_tid) total += count;
  EXPECT_EQ(total, kThreads);
  // Dense thread indices: four fresh threads cannot share one id with all
  // four spans unless attribution is broken.
  EXPECT_GE(spans_per_tid.size(), 2u);
}

TEST(TraceTest, StartTracingClearsPreviousEvents) {
  StartTracing();
  { CARDIR_TRACE_SPAN("stale"); }
  StopTracing();
  StartTracing();
  { CARDIR_TRACE_SPAN("fresh"); }
  StopTracing();
  bool saw_stale = false;
  bool saw_fresh = false;
  for (const TraceEvent& event : CollectTraceEvents()) {
    if (std::string(event.name) == "stale") saw_stale = true;
    if (std::string(event.name) == "fresh") saw_fresh = true;
  }
  EXPECT_FALSE(saw_stale);
  EXPECT_TRUE(saw_fresh);
}

TEST(TraceTest, WritesWellFormedChromeTraceJson) {
  StartTracing();
  {
    CARDIR_TRACE_SPAN("phase.one");
    CARDIR_TRACE_SPAN("phase.two");
  }
  StopTracing();
  std::ostringstream out;
  WriteChromeTrace(out);
  const std::string json = out.str();

  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // The object form chrome://tracing and Perfetto load directly.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"phase.one\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\": "), std::string::npos);
  EXPECT_NE(json.find("\"dur\": "), std::string::npos);
  EXPECT_NE(json.find("\"tid\": "), std::string::npos);
}

TEST(TraceTest, EscapesNamesInJson) {
  StartTracing();
  { CARDIR_TRACE_SPAN("quote\"back\\slash"); }
  StopTracing();
  std::ostringstream out;
  WriteChromeTrace(out);
  EXPECT_TRUE(JsonChecker(out.str()).Valid()) << out.str();
  EXPECT_NE(out.str().find("quote\\\"back\\\\slash"), std::string::npos);
}

TEST(TraceTest, TraceNowMicrosIsMonotonic) {
  const uint64_t a = TraceNowMicros();
  const uint64_t b = TraceNowMicros();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace obs
}  // namespace cardir
