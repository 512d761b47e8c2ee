#include "engine/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace cardir {
namespace {

constexpr size_t kCounts[] = {1, 3, 64, 10'000};

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (const int threads : {0, 1, 2, 3, 8}) {
    for (const size_t count : kCounts) {
      std::vector<std::atomic<int>> hits(count);
      ParallelFor(threads, count, [&hits](size_t begin, size_t end, size_t) {
        for (size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << count
                                     << ", " << threads << " threads";
      }
    }
  }
}

// The contract the sweep's per-participant SweepScratch relies on.
TEST(ParallelForTest, ParticipantsAreInRangeAndNeverOverlap) {
  for (const int threads : {1, 2, 3, 8}) {
    for (const size_t count : kCounts) {
      const size_t limit = static_cast<size_t>(threads);
      std::vector<std::atomic<bool>> busy(limit);
      std::vector<std::atomic<bool>> seen(limit);
      std::atomic<int> violations{0};
      ParallelFor(threads, count,
                  [&](size_t begin, size_t end, size_t participant) {
                    if (participant >= limit || begin >= end) {
                      violations.fetch_add(1);
                      return;
                    }
                    seen[participant].store(true);
                    if (busy[participant].exchange(true)) {
                      violations.fetch_add(1);  // Two chunks at once.
                    }
                    std::this_thread::yield();
                    busy[participant].store(false);
                  });
      EXPECT_EQ(violations.load(), 0) << threads << " threads, " << count;
      const auto distinct =
          static_cast<size_t>(std::count(seen.begin(), seen.end(), true));
      EXPECT_GE(distinct, 1u);
      EXPECT_LE(distinct, std::min(limit, count))
          << threads << " threads, " << count;
    }
  }
}

TEST(ParallelForTest, ZeroCountNeverCallsTheBody) {
  for (const int threads : {1, 4}) {
    bool called = false;
    ParallelFor(threads, 0,
                [&called](size_t, size_t, size_t) { called = true; });
    EXPECT_FALSE(called) << threads << " threads";
  }
}

// One participant, whether from the thread count or from count 1.
TEST(ParallelForTest, OneParticipantRunsOneInlineCall) {
  const struct {
    int threads;
    size_t count;
  } cases[] = {{-3, 37}, {0, 37}, {1, 37}, {1, 10'000}, {8, 1}};
  for (const auto& c : cases) {
    int calls = 0;
    size_t begin = 1, end = 0, participant = 1;
    std::thread::id runner;
    ParallelFor(c.threads, c.count, [&](size_t b, size_t e, size_t p) {
      ++calls;
      begin = b;
      end = e;
      participant = p;
      runner = std::this_thread::get_id();
    });
    EXPECT_EQ(calls, 1) << c.threads << " threads, " << c.count;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, c.count);
    EXPECT_EQ(participant, 0u);
    EXPECT_EQ(runner, std::this_thread::get_id());
  }
}

TEST(ParallelForTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(4), 4);
  EXPECT_EQ(ResolveThreadCount(kMaxEngineThreads), kMaxEngineThreads);
  EXPECT_EQ(ResolveThreadCount(kMaxEngineThreads + 1), kMaxEngineThreads);
  // Zero and negative requests mean all hardware threads, within the limit.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int all = std::clamp(hw, 1, kMaxEngineThreads);
  EXPECT_EQ(ResolveThreadCount(0), all);
  EXPECT_EQ(ResolveThreadCount(-1), all);
  EXPECT_EQ(ResolveThreadCount(-1'000'000), all);
}

}  // namespace
}  // namespace cardir
