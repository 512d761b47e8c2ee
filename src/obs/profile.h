// Sampling wall-clock profiler over the trace-span shadow stacks.
//
// A dedicated timer thread wakes at a configurable rate and snapshots
// every worker thread's stack of open CARDIR_TRACE_SPAN /
// CARDIR_PROFILE_FRAME labels (obs/trace.h shadow stacks), aggregating
// sample counts per unique stack. The result answers "where inside
// Compute-CDR does the wall time actually go" without recompiling or
// per-call timing overhead:
//   - worker cost per sample: zero (the sampler reads atomics remotely);
//     the only hot-path cost is the span push/pop while profiling is on.
//   - output: the collapsed-stack format every flamegraph tool consumes
//     ("frame;frame;frame <count>" lines), via `cardirect --profile=FILE`.
//
// Only one profiling session runs at a time; Start while running returns
// FailedPrecondition.

#ifndef CARDIR_SRC_OBS_PROFILE_H_
#define CARDIR_SRC_OBS_PROFILE_H_

#include <cstdint>
#include <string>

#include "obs/trace.h"
#include "util/status.h"

namespace cardir {
namespace obs {

struct ProfileOptions {
  /// Samples per second. Odd default on purpose: a prime rate avoids
  /// lockstep with millisecond-periodic work. 97 Hz keeps the sampler's
  /// own CPU draw inside the 2% overhead budget even when every core is
  /// running a worker; raise via --profile-hz for short runs that need
  /// more samples.
  double hz = 97.0;
};

/// Sample counts aggregated over one profiling session.
struct ProfileStats {
  uint64_t samples_taken = 0;    // Timer wakeups.
  uint64_t samples_with_work = 0;  // Wakeups that saw >=1 open span.
};

/// Starts the sampling thread and enables span shadow stacks. Clears any
/// previously collected profile.
Status StartProfiling(const ProfileOptions& options = {});

/// True while the sampler runs.
bool ProfilingActive();

/// Stops and joins the sampling thread (no-op when not running). The
/// collected profile stays readable until the next StartProfiling.
void StopProfiling();

/// Collapsed-stack ("folded") lines: "outer;inner <count>\n", sorted
/// lexicographically for deterministic output. Feed to flamegraph.pl /
/// speedscope / inferno as-is.
std::string FormatCollapsedStacks();

/// Per-label inclusive (label anywhere on the sampled stack) and self
/// (label leaf-most) sample counts, one "label inclusive self" line per
/// label, sorted by label — the quick textual answer when no flamegraph
/// tool is at hand.
std::string FormatProfileSummary();

/// Sampler bookkeeping for the session (valid after StopProfiling).
ProfileStats GetProfileStats();

/// Writes FormatCollapsedStacks() to `path`.
Status WriteCollapsedProfile(const std::string& path);

}  // namespace obs

// A profiling frame on the hot path: same RAII span as CARDIR_TRACE_SPAN
// (and it shows up in Chrome traces too), but named separately so grep
// finds the sites placed for profile granularity rather than tracing.
#define CARDIR_PROFILE_FRAME(name) CARDIR_TRACE_SPAN(name)

}  // namespace cardir

#endif  // CARDIR_SRC_OBS_PROFILE_H_
