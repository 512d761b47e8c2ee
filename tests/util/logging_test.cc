#include "util/logging.h"

#include <gtest/gtest.h>

#include "util/status.h"

namespace cardir {
namespace {

// The builds that keep debug checks, restated from util/logging.h's rule.
#if defined(CARDIR_AUDIT_ENABLED) || !defined(NDEBUG)
constexpr bool kDchecksEvaluated = true;
#else
constexpr bool kDchecksEvaluated = false;
#endif

TEST(LoggingTest, SetAndGetLevel) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  SetLogLevel(LogLevel::kDebug);
  EXPECT_EQ(GetLogLevel(), LogLevel::kDebug);
  SetLogLevel(original);
}

TEST(LoggingTest, SuppressedLevelsDoNotEvaluateEagerly) {
  // The macro must short-circuit: streaming below the threshold is free.
  SetLogLevel(LogLevel::kError);
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return 42;
  };
  CARDIR_LOG(kDebug) << "value " << count();
  EXPECT_EQ(evaluations, 0);
  SetLogLevel(LogLevel::kWarning);
}

TEST(LoggingTest, EmittedLevelsEvaluate) {
  SetLogLevel(LogLevel::kDebug);
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return 42;
  };
  CARDIR_LOG(kDebug) << "value " << count();
  EXPECT_EQ(evaluations, 1);
  SetLogLevel(LogLevel::kWarning);
}

TEST(LoggingTest, FormatLogLineIsOneCompleteLine) {
  SetLogTimestamps(false);
  const std::string line = internal_logging::FormatLogLine(
      LogLevel::kWarning, "dir/engine.cc", 42, "queue drained");
  // Prefix carries the level and file basename:line; one trailing newline
  // and none embedded, so the single-write(2) emission stays one line.
  EXPECT_EQ(line, "[WARNING engine.cc:42] queue drained\n");
  EXPECT_EQ(line.find('\n'), line.size() - 1);
}

TEST(LoggingTest, TimestampPrefixIsIso8601) {
  SetLogTimestamps(true);
  const std::string line = internal_logging::FormatLogLine(
      LogLevel::kInfo, "a.cc", 1, "msg");
  SetLogTimestamps(false);
  // "[2026-08-06T12:34:56Z INFO a.cc:1] msg\n"
  ASSERT_GE(line.size(), 22u);
  EXPECT_EQ(line[0], '[');
  const std::string stamp = line.substr(1, 20);
  EXPECT_EQ(stamp[4], '-');
  EXPECT_EQ(stamp[7], '-');
  EXPECT_EQ(stamp[10], 'T');
  EXPECT_EQ(stamp[13], ':');
  EXPECT_EQ(stamp[16], ':');
  EXPECT_EQ(stamp[19], 'Z');
  for (size_t i : {0u, 1u, 2u, 3u, 5u, 6u, 8u, 9u, 11u, 12u, 14u, 15u, 17u,
                   18u}) {
    EXPECT_TRUE(stamp[i] >= '0' && stamp[i] <= '9') << stamp;
  }
  EXPECT_NE(line.find(" INFO a.cc:1] msg\n"), std::string::npos) << line;
}

TEST(LoggingTest, TimestampToggleRoundTrips) {
  SetLogTimestamps(true);
  EXPECT_TRUE(GetLogTimestamps());
  SetLogTimestamps(false);
  EXPECT_FALSE(GetLogTimestamps());
}

TEST(LoggingDeathTest, CheckFailureAborts) {
  EXPECT_DEATH(CARDIR_CHECK(1 == 2) << "math broke", "CHECK failed: 1 == 2");
}

TEST(LoggingDeathTest, CheckOkAbortsOnError) {
  EXPECT_DEATH(CARDIR_CHECK_OK(Status::Internal("boom")), "boom");
}

TEST(LoggingTest, CheckPassesSilently) {
  CARDIR_CHECK(true) << "never rendered";
  CARDIR_CHECK_OK(Status::Ok());
}

TEST(LoggingTest, DcheckEvaluatesOnlyInDebugAndAuditBuilds) {
  int evaluations = 0;
  auto holds = [&evaluations]() {
    ++evaluations;
    return true;
  };
  CARDIR_DCHECK(holds()) << "never rendered";
  EXPECT_EQ(evaluations, kDchecksEvaluated ? 1 : 0);
}

TEST(LoggingDeathTest, DcheckFailureAbortsOnlyInDebugAndAuditBuilds) {
  int evaluations = 0;
  auto fails = [&evaluations]() {
    ++evaluations;
    return false;
  };
  if (kDchecksEvaluated) {
    EXPECT_DEATH(CARDIR_DCHECK(fails()) << "math broke",
                 "CHECK failed: fails\\(\\)");
  } else {
    CARDIR_DCHECK(fails()) << "math broke";  // Parsed, never evaluated.
    EXPECT_EQ(evaluations, 0);
  }
}

}  // namespace
}  // namespace cardir
