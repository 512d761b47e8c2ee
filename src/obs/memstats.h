// Memory telemetry: live/peak byte gauges for the structures that own
// real memory (the relation store, EdgeSoA lanes, sweep scratch, the delta
// engine, the R-tree, XML buffers), plus a process-wide high-water total
// and Linux RSS sampling.
//
// Each instrumented owner charges a named arena. An arena is backed by two
// registry gauges —
//   mem.<arena>.live_bytes   currently allocated
//   mem.<arena>.peak_bytes   high-water since process start / last reset
// — plus the process-wide pair mem.total.live_bytes / mem.total.peak_bytes,
// so the existing table/JSON/Prometheus exporters and the bench ledger pick
// the numbers up with no new export surface.
//
// Cost model: an alloc/free is one relaxed fetch_add on the arena's live
// gauge, one on the total, and a CAS-max on each peak — charged at arena
// granularity (one call per container (re)allocation, never per element).
// Under -DCARDIR_OBS=OFF the macros keep their arguments parsed but
// evaluate nothing.

#ifndef CARDIR_OBS_MEMSTATS_H_
#define CARDIR_OBS_MEMSTATS_H_

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace cardir {
namespace obs {

#ifdef CARDIR_OBS_ENABLED

/// One named allocation domain. Get() is mutex-guarded get-or-create
/// (call sites cache the reference via the CARDIR_MEMSTAT_* macros);
/// returned references live for the process lifetime.
class MemArena {
 public:
  static MemArena& Get(const char* name);

  void Alloc(size_t bytes);
  void Free(size_t bytes);

  int64_t LiveBytes() const { return live_.Value(); }
  int64_t PeakBytes() const { return peak_.Value(); }

 private:
  friend void ResetMemPeaks();

  MemArena(Gauge& live, Gauge& peak) : live_(live), peak_(peak) {}

  Gauge& live_;
  Gauge& peak_;
};

/// Resets every arena's peak gauge (and the process total's) to its
/// current live value, so a benchmark window measures its own high-water
/// rather than inheriting an earlier run's.
void ResetMemPeaks();

/// Resident-set size from /proc/self/statm in bytes; -1 when unavailable.
int64_t ReadRssBytes();

/// Samples RSS into mem.process.rss_bytes and raises
/// mem.process.rss_peak_bytes. No-op when /proc is unavailable.
void SampleProcessMemory();

#else  // !CARDIR_OBS_ENABLED

inline void ResetMemPeaks() {}
inline int64_t ReadRssBytes() { return -1; }
inline void SampleProcessMemory() {}

#endif  // CARDIR_OBS_ENABLED

}  // namespace obs

// Instrumentation macros. `arena` must be a string literal; `bytes` must be
// side-effect free (tools/analyzer enforces this).
#ifdef CARDIR_OBS_ENABLED

#define CARDIR_MEMSTAT_ALLOC(arena, bytes)                      \
  do {                                                          \
    static ::cardir::obs::MemArena& cardir_memstat_arena__ =    \
        ::cardir::obs::MemArena::Get(arena);                    \
    cardir_memstat_arena__.Alloc(static_cast<size_t>(bytes));   \
  } while (false)

#define CARDIR_MEMSTAT_FREE(arena, bytes)                       \
  do {                                                          \
    static ::cardir::obs::MemArena& cardir_memstat_arena__ =    \
        ::cardir::obs::MemArena::Get(arena);                    \
    cardir_memstat_arena__.Free(static_cast<size_t>(bytes));    \
  } while (false)

#else

#define CARDIR_MEMSTAT_ALLOC(arena, bytes) \
  do {                                     \
    (void)sizeof(arena);                   \
    (void)sizeof(bytes);                   \
  } while (false)
#define CARDIR_MEMSTAT_FREE(arena, bytes) \
  do {                                    \
    (void)sizeof(arena);                  \
    (void)sizeof(bytes);                  \
  } while (false)

#endif  // CARDIR_OBS_ENABLED

}  // namespace cardir

#endif  // CARDIR_OBS_MEMSTATS_H_
