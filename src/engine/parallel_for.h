// Fork-join over an index range: the sweep join's only parallel runtime.
// The calling thread and threads started for one ParallelFor call claim
// equal chunks of [0, count) from a shared atomic cursor. The threads are
// joined before it returns, so none outlives the call and every plain write
// a chunk made is visible to the caller afterwards. The schedule is
// nondeterministic: callers make the *results* order-independent (the sweep
// writes each pair's mask into a precomputed slot).

#ifndef CARDIR_ENGINE_PARALLEL_FOR_H_
#define CARDIR_ENGINE_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace cardir {

/// The most threads the engine runs (`EngineOptions::threads`,
/// `cardirect relations --threads`).
inline constexpr int kMaxEngineThreads = 256;

/// Invokes `body(begin, end, participant)` over disjoint chunks that exactly
/// cover [0, count) and returns when all have run. `participant` lies in
/// [0, min(threads, count)) — the caller is participant 0 — and never runs
/// two chunks at once, so callers can keep per-participant scratch without
/// thread_local state. One participant runs `body(0, count, 0)` inline;
/// `threads` is clamped to [1, kMaxEngineThreads].
void ParallelFor(int threads, size_t count,
                 const std::function<void(size_t, size_t, size_t)>& body);

/// Threads to use for `requested`: a positive request as given, otherwise
/// all hardware threads (1 when unknown); at most kMaxEngineThreads.
int ResolveThreadCount(int requested);

}  // namespace cardir

#endif  // CARDIR_ENGINE_PARALLEL_FOR_H_
