#include "obs/memstats.h"

#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "core/edge_soa.h"
#include "obs/metrics.h"

namespace cardir {
namespace obs {
namespace {

// Arena gauges are process-global, so each test charges its own uniquely
// named arena and asserts on that arena alone (the integration tests below
// window the shared arenas with before/after reads instead).

#ifdef CARDIR_OBS_ENABLED

TEST(MemArenaTest, AllocAndFreeTrackLiveAndPeak) {
  MemArena& arena = MemArena::Get("test_basic");
  arena.Alloc(100);
  arena.Alloc(50);
  EXPECT_EQ(arena.LiveBytes(), 150);
  EXPECT_EQ(arena.PeakBytes(), 150);
  arena.Free(120);
  EXPECT_EQ(arena.LiveBytes(), 30);
  EXPECT_EQ(arena.PeakBytes(), 150);  // Peak is a high-water, not a level.
  arena.Alloc(40);
  EXPECT_EQ(arena.LiveBytes(), 70);
  EXPECT_EQ(arena.PeakBytes(), 150);  // Still below the old high-water.
  arena.Free(70);
  EXPECT_EQ(arena.LiveBytes(), 0);
}

TEST(MemArenaTest, GaugesAreVisibleThroughTheRegistry) {
  MemArena& arena = MemArena::Get("test_registry");
  arena.Alloc(4096);
  const MetricsSnapshot snapshot = CaptureMetrics();
  EXPECT_EQ(snapshot.gauge("mem.test_registry.live_bytes"), 4096);
  EXPECT_EQ(snapshot.gauge("mem.test_registry.peak_bytes"), 4096);
  // The process-wide total aggregates every arena.
  EXPECT_GE(snapshot.gauge("mem.total.live_bytes"), 4096);
  EXPECT_GE(snapshot.gauge("mem.total.peak_bytes"), 4096);
  arena.Free(4096);
}

TEST(MemArenaTest, GetReturnsTheSameArenaForTheSameName) {
  MemArena& a = MemArena::Get("test_identity");
  MemArena& b = MemArena::Get("test_identity");
  EXPECT_EQ(&a, &b);
}

TEST(MemArenaTest, ResetMemPeaksDropsPeakToLive) {
  MemArena& arena = MemArena::Get("test_reset");
  arena.Alloc(1000);
  arena.Free(900);
  EXPECT_EQ(arena.PeakBytes(), 1000);
  ResetMemPeaks();
  // Peak restarts from the surviving live bytes — the ObsWindow contract
  // that makes per-run peaks in BENCH_engine.json meaningful.
  EXPECT_EQ(arena.PeakBytes(), 100);
  arena.Alloc(50);
  EXPECT_EQ(arena.PeakBytes(), 150);
  arena.Free(150);
}

TEST(MemstatsMacroTest, MacrosChargeTheNamedArena) {
  const int64_t live_before =
      MemArena::Get("test_macro").LiveBytes();
  CARDIR_MEMSTAT_ALLOC("test_macro", 256);
  EXPECT_EQ(MemArena::Get("test_macro").LiveBytes(), live_before + 256);
  CARDIR_MEMSTAT_FREE("test_macro", 256);
  EXPECT_EQ(MemArena::Get("test_macro").LiveBytes(), live_before);
}

TEST(ProcessMemoryTest, RssIsPositiveAndSampled) {
  const int64_t rss = ReadRssBytes();
  ASSERT_GT(rss, 0);  // /proc/self/statm exists on every Linux CI host.
  SampleProcessMemory();
  const MetricsSnapshot snapshot = CaptureMetrics();
  EXPECT_GT(snapshot.gauge("mem.process.rss_bytes"), 0);
  EXPECT_GE(snapshot.gauge("mem.process.rss_peak_bytes"),
            snapshot.gauge("mem.process.rss_bytes"));
}

// Integration: EdgeSoA charges mem.edge_soa on lane growth and releases
// exactly that much on destruction — the balanced-accounting property the
// live gauge depends on.
TEST(MemstatsIntegrationTest, EdgeSoaChargesAndReleasesLaneBytes) {
  MemArena& arena = MemArena::Get("edge_soa");
  const int64_t live_before = arena.LiveBytes();
  {
    EdgeSoA soa;
    soa.EnsureCapacity(1024);
    EXPECT_EQ(arena.LiveBytes(),
              live_before + static_cast<int64_t>(soa.LaneBytes()));
    EXPECT_GT(soa.LaneBytes(), 0u);
    // Growing again charges only the delta.
    soa.EnsureCapacity(4096);
    EXPECT_EQ(arena.LiveBytes(),
              live_before + static_cast<int64_t>(soa.LaneBytes()));
    // A move transfers ownership without double-charging: the moved-from
    // destructor must release zero bytes.
    EdgeSoA stolen = std::move(soa);
    EXPECT_EQ(arena.LiveBytes(),
              live_before + static_cast<int64_t>(stolen.LaneBytes()));
  }
  EXPECT_EQ(arena.LiveBytes(), live_before);
}

#else  // !CARDIR_OBS_ENABLED

TEST(MemstatsTest, CompiledOutStubsAreInert) {
  CARDIR_MEMSTAT_ALLOC("noop", 4096);
  CARDIR_MEMSTAT_FREE("noop", 4096);
  ResetMemPeaks();
  SampleProcessMemory();
  EXPECT_EQ(ReadRssBytes(), -1);
}

#endif  // CARDIR_OBS_ENABLED

}  // namespace
}  // namespace obs
}  // namespace cardir
