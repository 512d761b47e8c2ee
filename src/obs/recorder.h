// Flight recorder: a fixed-size per-thread lock-free ring of recent
// structured events, dumpable from a signal handler.
//
// Purpose: when a long-lived `cardirect` process dies after hours, the
// metrics registry says how much work happened but not what the process
// was doing in the milliseconds before the crash. The recorder keeps the
// last kRingCapacity events per thread — engine phase transitions, chunk
// begin/end, crossing-queue deferrals, recent log lines — and writes them
// plus a metrics snapshot to a file on SIGSEGV/SIGABRT/SIGBUS or on clean
// exit (`cardirect --flight-record=FILE`).
//
// Concurrency model:
//   - Each thread appends to its own ring; the only cross-thread write is
//     the one-time registration into a fixed lock-free array (no mutex —
//     the dump path must not block inside a signal handler).
//   - Appends publish with a release store of the monotonic head counter.
//     The dump path reads heads with acquire and then the slots; a slot
//     being overwritten concurrently (ring wrap during a crash dump) can
//     tear, which a post-mortem reader tolerates by design. Tests dump
//     after writers quiesce, so the sanitised tiers never see that race.
//   - The dump path uses only the raw_format helpers and write(2): no
//     malloc, no stdio, no locks except MetricsRegistry::TryDumpRaw's
//     try_lock (skipped on contention).
//
// Recording is runtime-gated (one relaxed load when disabled).

#ifndef CARDIR_SRC_OBS_RECORDER_H_
#define CARDIR_SRC_OBS_RECORDER_H_

#include <cstddef>
#include <cstdint>

namespace cardir {
namespace obs {

/// Structured event kinds; kept small and stable so dump files stay
/// greppable across versions.
enum class RecordKind : uint16_t {
  kMark = 0,   // Free-form marker (label carries the text).
  kPhase = 1,  // Engine phase transition; a = phase ordinal.
  kChunk = 2,  // Chunk begin/end; a = first index, b = count.
  kDefer = 3,  // Pairs deferred to a later phase; a = first, b = count.
  kLog = 4,    // Tail of a CARDIR_LOG line (truncated to the label field).
  kSweep = 5,  // Sweep-join strip; a = first row, b = row count.
  kDelta = 6,  // Delta-engine apply; a = region id, b = touched pairs.
};

/// One recorded event. POD, fixed size, no pointers to transient storage:
/// `label` is copied (truncated) so log lines survive their source buffer.
struct RecorderEvent {
  uint64_t time_us = 0;  // TraceNowMicros at record time.
  uint32_t tid = 0;      // Dense ThisThreadIndex of the recording thread.
  uint16_t kind = 0;     // RecordKind.
  uint16_t reserved = 0;
  uint64_t a = 0;  // Kind-specific payload words.
  uint64_t b = 0;
  char label[40] = {};  // NUL-terminated, truncated.
};

/// Events retained per thread (power of two; the ring keeps the newest).
inline constexpr size_t kRingCapacity = 1024;

/// Turns event recording on/off. Off (the default) costs one relaxed
/// atomic load per CARDIR_RECORD_EVENT site.
void EnableFlightRecorder(bool enabled);
bool FlightRecorderEnabled();

/// Appends one event to this thread's ring (no-op when disabled).
void RecordEvent(RecordKind kind, const char* label, uint64_t a, uint64_t b);

/// Total events ever recorded on this thread (monotonic, includes events
/// already overwritten by ring wrap). Test/introspection helper.
uint64_t ThisThreadRecordedCount();

/// Formats `event` as one "event t_us=... tid=... kind=... a=... b=...
/// label=..." line into `buf`; async-signal-safe; returns the length
/// (truncated at `cap`). This is the seam the dump path writes through —
/// unit tests pin its output so the signal path is exercised without a
/// signal (the FormatLogLine pattern).
size_t FormatRecordLine(const RecorderEvent& event, char* buf, size_t cap);

/// Dumps every thread's ring (oldest surviving event first per thread) and
/// a best-effort metrics snapshot to `fd`. Async-signal-safe. Returns the
/// number of event lines written.
size_t DumpFlightRecord(int fd);

/// Opens `path` (trunc) and dumps; returns false if the open failed.
/// Async-signal-safe.
bool DumpFlightRecordToPath(const char* path);

/// Installs SIGSEGV/SIGABRT/SIGBUS handlers that dump to `path` and then
/// re-raise with the default disposition (so exit status still reflects
/// the signal). `path` is copied into static storage; max ~500 bytes.
/// Also enables the recorder.
void InstallCrashDump(const char* path);

/// Registers with util/logging's line hook so the tail of recent log lines
/// lands in the ring as kLog events. Idempotent.
void CaptureLogTail();

}  // namespace obs

// Instrumentation macro: one relaxed load + branch when the recorder is
// off. Arguments must be free of side effects (enforced by tools/analyzer's
// obs-macro-side-effect check).
#define CARDIR_RECORD_EVENT(kind, label, a, b)                       \
  do {                                                               \
    if (::cardir::obs::FlightRecorderEnabled()) {                    \
      ::cardir::obs::RecordEvent(::cardir::obs::RecordKind::kind,    \
                                 (label), static_cast<uint64_t>(a),  \
                                 static_cast<uint64_t>(b));          \
    }                                                                \
  } while (false)

}  // namespace cardir

#endif  // CARDIR_SRC_OBS_RECORDER_H_
