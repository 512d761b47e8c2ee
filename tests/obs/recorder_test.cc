#include "obs/recorder.h"

#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "util/logging.h"

// Sanitizer feature detection: the crash death test re-raises a real
// SIGSEGV, which the tsan runtime handles poorly inside death-test forks.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CARDIR_TEST_TSAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define CARDIR_TEST_TSAN 1
#endif

namespace cardir {
namespace obs {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

// RAII guard: every test leaves the recorder disabled so the process-global
// rings stay quiet for unrelated tests in this binary.
struct RecorderGuard {
  explicit RecorderGuard(bool enabled) { EnableFlightRecorder(enabled); }
  ~RecorderGuard() {
    EnableFlightRecorder(false);
    SetLogLineHook(nullptr);
  }
};

TEST(RecorderFormatTest, RecordLineGolden) {
  // This is the seam the async-signal-safe dump path writes through; the
  // golden pins the grammar post-mortem tooling greps for.
  RecorderEvent event;
  event.time_us = 12345;
  event.tid = 7;
  event.kind = static_cast<uint16_t>(RecordKind::kChunk);
  event.a = 100;
  event.b = 256;
  std::strncpy(event.label, "classify", sizeof(event.label) - 1);
  char buf[256];
  const size_t len = FormatRecordLine(event, buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, len),
            "event t_us=12345 tid=7 kind=chunk a=100 b=256 label=classify\n");
}

TEST(RecorderFormatTest, LabelsAreSanitisedAndTruncationIsSafe) {
  RecorderEvent event;
  event.kind = static_cast<uint16_t>(RecordKind::kLog);
  std::strncpy(event.label, "two words\tand tab", sizeof(event.label) - 1);
  char buf[256];
  size_t len = FormatRecordLine(event, buf, sizeof(buf));
  // Spaces and control characters become '_' so each line stays a single
  // whitespace-split record.
  EXPECT_NE(std::string(buf, len).find("label=two_words_and_tab\n"),
            std::string::npos);
  // A tiny buffer truncates without overflowing (the returned length never
  // exceeds the capacity).
  char tiny[16];
  len = FormatRecordLine(event, tiny, sizeof(tiny));
  EXPECT_LE(len, sizeof(tiny));
  EXPECT_EQ(std::string(tiny, len), "event t_us=0 tid");
}

TEST(RecorderTest, MacroRecordsOnlyWhenEnabled) {
  const uint64_t before = ThisThreadRecordedCount();
  {
    RecorderGuard guard(false);
    CARDIR_RECORD_EVENT(kMark, "disabled", 0, 0);
    EXPECT_EQ(ThisThreadRecordedCount(), before);
    EnableFlightRecorder(true);
    CARDIR_RECORD_EVENT(kMark, "enabled", 1, 2);
    CARDIR_RECORD_EVENT(kPhase, "enabled.phase", 3, 4);
    EXPECT_EQ(ThisThreadRecordedCount(), before + 2);
  }
  CARDIR_RECORD_EVENT(kMark, "after.guard", 0, 0);
  EXPECT_EQ(ThisThreadRecordedCount(), before + 2);
}

TEST(RecorderTest, DumpContainsHeaderEventsAndMetrics) {
  const std::string path = testing::TempDir() + "/flight_record_dump.txt";
  MetricsRegistry::Global().GetCounter("test.recorder.dump_marker").Add(5);
  {
    RecorderGuard guard(true);
    CARDIR_RECORD_EVENT(kDefer, "dump.test.spill", 41, 3);
    ASSERT_TRUE(DumpFlightRecordToPath(path.c_str()));
  }
  const std::string dump = ReadFileOrEmpty(path);
  EXPECT_EQ(dump.rfind("cardir-flight-record v1\n", 0), 0u) << dump;
  EXPECT_NE(dump.find("\nring tid="), std::string::npos);
  EXPECT_NE(dump.find(" kind=defer a=41 b=3 label=dump.test.spill\n"),
            std::string::npos);
  // The best-effort metrics snapshot rides along.
  EXPECT_NE(dump.find("\nmetric counter test.recorder.dump_marker 5\n"),
            std::string::npos);
  EXPECT_NE(dump.find("\nend\n"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RecorderTest, RingWrapKeepsTheNewestEvents) {
  const std::string path = testing::TempDir() + "/flight_record_wrap.txt";
  constexpr uint64_t kOverflow = 100;
  {
    RecorderGuard guard(true);
    // A dedicated thread gets a fresh ring, so `recorded` is exact.
    std::thread writer([] {
      for (uint64_t i = 0; i < kRingCapacity + kOverflow; ++i) {
        CARDIR_RECORD_EVENT(kMark, "wrap.test", i, 0);
      }
    });
    writer.join();  // Quiesce before dumping: no torn-slot race in tests.
    ASSERT_TRUE(DumpFlightRecordToPath(path.c_str()));
  }
  const std::string dump = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  // The writer's ring reports every append but retains only the last
  // kRingCapacity events: a=0..kOverflow-1 were overwritten.
  const std::string ring_line =
      "recorded=" + std::to_string(kRingCapacity + kOverflow) +
      " retained=" + std::to_string(kRingCapacity);
  EXPECT_NE(dump.find(ring_line), std::string::npos) << dump.substr(0, 400);
  EXPECT_NE(dump.find("a=" + std::to_string(kOverflow) + " b=0 label=wrap.test"),
            std::string::npos);
  EXPECT_NE(dump.find("a=" + std::to_string(kRingCapacity + kOverflow - 1) +
                      " b=0 label=wrap.test"),
            std::string::npos);
  EXPECT_EQ(dump.find("a=" + std::to_string(kOverflow - 1) +
                      " b=0 label=wrap.test"),
            std::string::npos);
}

TEST(RecorderTest, LogTailLandsInTheRing) {
  const std::string path = testing::TempDir() + "/flight_record_log.txt";
  {
    RecorderGuard guard(true);
    CaptureLogTail();
    const LogLevel saved = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    // Short needle: the "[ERROR file:line] " prefix shares the 40-byte
    // label field, so the tail of a long message would be clipped.
    CARDIR_LOG(kError) << "ndl7721";
    SetLogLevel(saved);
    ASSERT_TRUE(DumpFlightRecordToPath(path.c_str()));
  }
  const std::string dump = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  // The line arrives truncated to the label field and sanitised on dump.
  EXPECT_NE(dump.find("kind=log"), std::string::npos);
  EXPECT_NE(dump.find("ndl7721"), std::string::npos) << dump;
}

// The end-to-end crash contract: a SIGSEGV inside an instrumented run
// leaves a parseable flight record on disk containing the pre-crash
// events. The death test forks (threadsafe style: re-executes the test
// binary), so InstallCrashDump's sigaction never pollutes this process.
#ifndef CARDIR_TEST_TSAN
TEST(RecorderDeathTest, CrashDumpWritesPreCrashEvents) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = testing::TempDir() + "/flight_record_crash.txt";
  std::remove(path.c_str());
  EXPECT_DEATH(
      {
        InstallCrashDump(path.c_str());
        CARDIR_RECORD_EVENT(kPhase, "pre.crash.phase", 9, 0);
        CARDIR_RECORD_EVENT(kMark, "pre.crash.mark", 10, 11);
        // A real fault, not raise(): InstallCrashDump's handler overrides
        // any sanitizer handler, dumps, and re-raises with the default
        // disposition. The bad address is non-null on purpose: under
        // -fno-sanitize-recover UBSan's null-store check exits(1) before
        // the hardware fault, so a null write never reaches the handler.
        volatile int* bad_pointer = reinterpret_cast<volatile int*>(8);
        *bad_pointer = 1;
      },
      "");
  const std::string dump = ReadFileOrEmpty(path);
  ASSERT_FALSE(dump.empty()) << "crash handler did not write " << path;
  EXPECT_EQ(dump.rfind("cardir-flight-record v1\n", 0), 0u);
  EXPECT_NE(dump.find("kind=phase a=9 b=0 label=pre.crash.phase\n"),
            std::string::npos);
  EXPECT_NE(dump.find("kind=mark a=10 b=11 label=pre.crash.mark\n"),
            std::string::npos);
  EXPECT_NE(dump.find("\nend\n"), std::string::npos);
  std::remove(path.c_str());
}
#endif  // !CARDIR_TEST_TSAN

}  // namespace
}  // namespace obs
}  // namespace cardir
