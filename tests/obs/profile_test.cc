#include "obs/profile.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "obs/trace.h"

namespace cardir {
namespace obs {
namespace {

// Holds the nested spans open until the sampler has seen them (checked via
// the live collapsed output) or the deadline passes. Sampling is
// statistical, so the test gives the sampler wall-clock room instead of
// asserting on a fixed number of iterations.
bool HoldSpansUntilSampled(const std::string& needle,
                           std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (std::chrono::steady_clock::now() < until) {
    CARDIR_TRACE_SPAN("profile.test.outer");
    {
      CARDIR_TRACE_SPAN("profile.test.inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (FormatCollapsedStacks().find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ProfileTest, SamplerCapturesNestedSpansAsCollapsedStacks) {
  ProfileOptions options;
  options.hz = 4000.0;  // Dense sampling keeps the test short.
  ASSERT_TRUE(StartProfiling(options).ok());
  EXPECT_TRUE(ProfilingActive());
  const bool sampled = HoldSpansUntilSampled(
      "profile.test.outer;profile.test.inner", std::chrono::seconds(10));
  StopProfiling();
  EXPECT_FALSE(ProfilingActive());
  ASSERT_TRUE(sampled) << FormatCollapsedStacks();

  // Collapsed lines are "stack <count>"; the profile persists after stop.
  const std::string collapsed = FormatCollapsedStacks();
  EXPECT_NE(collapsed.find("profile.test.outer;profile.test.inner "),
            std::string::npos)
      << collapsed;

  // The summary attributes the nested samples to both labels inclusively
  // and to the leaf-most label as self time.
  const std::string summary = FormatProfileSummary();
  EXPECT_NE(summary.find("profile.test.outer inclusive="), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("profile.test.inner inclusive="), std::string::npos);

  const ProfileStats stats = GetProfileStats();
  EXPECT_GT(stats.samples_taken, 0u);
  EXPECT_GT(stats.samples_with_work, 0u);
  EXPECT_LE(stats.samples_with_work, stats.samples_taken);
}

TEST(ProfileTest, SecondStartWhileRunningIsRejected) {
  ASSERT_TRUE(StartProfiling().ok());
  const Status second = StartProfiling();
  EXPECT_FALSE(second.ok());
  StopProfiling();
  // After a stop the profiler restarts cleanly (and clears old samples).
  ASSERT_TRUE(StartProfiling().ok());
  StopProfiling();
  EXPECT_TRUE(FormatCollapsedStacks().empty());
}

TEST(ProfileTest, InvalidRateIsRejected) {
  ProfileOptions zero;
  zero.hz = 0.0;
  EXPECT_FALSE(StartProfiling(zero).ok());
  ProfileOptions absurd;
  absurd.hz = 1e9;
  EXPECT_FALSE(StartProfiling(absurd).ok());
  EXPECT_FALSE(ProfilingActive());
}

TEST(ProfileTest, StopWithoutStartIsANoOp) {
  StopProfiling();
  EXPECT_FALSE(ProfilingActive());
}

TEST(ProfileTest, WriteCollapsedProfileRoundTrips) {
  ProfileOptions options;
  options.hz = 4000.0;
  ASSERT_TRUE(StartProfiling(options).ok());
  HoldSpansUntilSampled("profile.test.outer", std::chrono::seconds(10));
  StopProfiling();

  const std::string path = testing::TempDir() + "/profile_test.folded";
  ASSERT_TRUE(WriteCollapsedProfile(path).ok());
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), FormatCollapsedStacks());
  std::remove(path.c_str());

  EXPECT_FALSE(WriteCollapsedProfile("/nonexistent/dir/profile.folded").ok());
}

TEST(SpanStackTest, SamplesSeeOnlyOpenSpans) {
  EnableSpanStacks(true);
  {
    CARDIR_TRACE_SPAN("stack.test.open");
    bool found = false;
    for (const SpanStackSample& sample : SampleSpanStacks()) {
      for (const char* frame : sample.frames) {
        if (std::string(frame) == "stack.test.open") found = true;
      }
    }
    EXPECT_TRUE(found);
  }
  // Closed spans disappear from subsequent samples.
  for (const SpanStackSample& sample : SampleSpanStacks()) {
    for (const char* frame : sample.frames) {
      EXPECT_NE(std::string(frame), "stack.test.open");
    }
  }
  EnableSpanStacks(false);
}

}  // namespace
}  // namespace obs
}  // namespace cardir
