#include "obs/memstats.h"

#include <unistd.h>

#include <cstdio>
#include <map>
#include <mutex>
#include <string>

namespace cardir {
namespace obs {
namespace {

Gauge& TotalLive() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("mem.total.live_bytes");
  return gauge;
}

Gauge& TotalPeak() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("mem.total.peak_bytes");
  return gauge;
}

// Arena directory, for ResetMemPeaks. Guarded by its own mutex; only the
// cold get-or-create and reset paths take it.
struct ArenaDirectory {
  std::mutex mutex;
  std::map<std::string, MemArena*> arenas;
};

ArenaDirectory& Directory() {
  static ArenaDirectory* directory = new ArenaDirectory();
  return *directory;
}

}  // namespace

MemArena& MemArena::Get(const char* name) {
  ArenaDirectory& directory = Directory();
  std::lock_guard<std::mutex> lock(directory.mutex);
  MemArena*& slot = directory.arenas[name];
  if (slot == nullptr) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    const std::string prefix = std::string("mem.") + name;
    slot = new MemArena(registry.GetGauge(prefix + ".live_bytes"),
                        registry.GetGauge(prefix + ".peak_bytes"));
  }
  return *slot;
}

void MemArena::Alloc(size_t bytes) {
  const int64_t delta = static_cast<int64_t>(bytes);
  peak_.UpdateMax(live_.Add(delta));
  TotalPeak().UpdateMax(TotalLive().Add(delta));
}

void MemArena::Free(size_t bytes) {
  const int64_t delta = static_cast<int64_t>(bytes);
  live_.Add(-delta);
  TotalLive().Add(-delta);
}

void ResetMemPeaks() {
  ArenaDirectory& directory = Directory();
  std::lock_guard<std::mutex> lock(directory.mutex);
  for (const auto& [name, arena] : directory.arenas) {
    (void)name;
    // Racy against a concurrent Alloc only in the benign direction: the
    // peak can momentarily read below a just-raised live, and the next
    // UpdateMax restores it.
    arena->peak_.Set(arena->live_.Value());
  }
  TotalPeak().Set(TotalLive().Value());
}

int64_t ReadRssBytes() {
  FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) return -1;
  long long size_pages = 0;
  long long resident_pages = 0;
  const int fields = std::fscanf(statm, "%lld %lld", &size_pages,
                                 &resident_pages);
  std::fclose(statm);
  if (fields != 2) return -1;
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page <= 0) return -1;
  return static_cast<int64_t>(resident_pages) * static_cast<int64_t>(page);
}

void SampleProcessMemory() {
  const int64_t rss = ReadRssBytes();
  if (rss < 0) return;
  MetricsRegistry& registry = MetricsRegistry::Global();
  static Gauge& rss_gauge = registry.GetGauge("mem.process.rss_bytes");
  static Gauge& rss_peak = registry.GetGauge("mem.process.rss_peak_bytes");
  rss_gauge.Set(rss);
  rss_peak.UpdateMax(rss);
}

}  // namespace obs
}  // namespace cardir
