#include "engine/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <vector>

#include "audit/audit.h"
#include "audit/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cardir {

int ResolveThreadCount(int requested) {
  if (requested <= 0) {
    requested = static_cast<int>(std::thread::hardware_concurrency());
  }
  return std::clamp(requested, 1, kMaxEngineThreads);  // hw may report 0.
}

void ParallelFor(int threads, size_t count,
                 const std::function<void(size_t, size_t, size_t)>& body) {
  if (count == 0) return;
  CARDIR_METRIC_COUNT("engine.pool.parallel_for_calls", 1);
  CARDIR_METRIC_OBSERVE("engine.pool.items", count);
  const size_t participants = std::min(
      count, static_cast<size_t>(std::clamp(threads, 1, kMaxEngineThreads)));
  if (participants == 1) {
    CARDIR_METRIC_COUNT("engine.pool.chunks_executed", 1);
    body(0, count, 0);
    return;
  }

  // Several chunks per participant, so that one slow chunk leaves the
  // others work to claim.
  const size_t chunk = std::max<size_t>(1, count / (participants * 8));
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> covered{0};  // Audit builds only: the chunk cover.
  const auto participate = [&](size_t participant) {
    CARDIR_TRACE_SPAN("pool.participant");
    size_t executed = 0;  // Flushed once per participant.
    for (;;) {
      const size_t begin = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= count) break;
      const size_t end = std::min(begin + chunk, count);
      if constexpr (kAuditEnabled) {
        covered.fetch_add(end - begin, std::memory_order_relaxed);
      }
      body(begin, end, participant);
      ++executed;
    }
    CARDIR_METRIC_COUNT("engine.pool.chunks_executed", executed);
  };
  {
    std::vector<std::jthread> workers;  // Joined on every path out.
    workers.reserve(participants - 1);
    for (size_t p = 1; p < participants; ++p) {
      try {
        workers.emplace_back(participate, p);
      } catch (const std::system_error&) {
        break;  // The OS refused a thread; the started ones share its work.
      }
    }
    participate(0);
  }
  // Audit seam: no index skipped, none run twice.
  CARDIR_AUDIT(AuditExactCover(covered.load(), count, "ParallelFor cover"));
}

}  // namespace cardir
