// Plane-sweep spatial join: builds the RelationStore without enumerating
// all n·(n−1) pairs.
//
// The interval kernel's bound (interval_kernel.h): a pair is explicit —
// not resolvable from its class-pair code — only when an axis class is
// kCross or a box is degenerate. A kCross x class means the primary's
// x-interval strictly straddles a reference x-line, which forces strict
// x-interval overlap (lo_i < hi_j and lo_j < hi_i); likewise for y. So
//
//   explicit pairs ⊆ strict-x-overlaps ∪ strict-y-overlaps ∪
//                    {pairs touching a degenerate box},
//
// and the join only has to *enumerate* that superset, filtering each
// candidate with the same O(1) scalar classification the store's lookup
// uses. Enumeration is one interval-overlap query per row per axis
// against the block-max IntervalOverlapIndex (interval_index.h: boxes
// sorted by interval start, scans pruned by max-over-ends block summaries),
// so the whole join is O(n log n + candidates), with candidates ≈ the
// MBB-interacting pairs instead of n².
//
// Resolution of an explicit pair:
//   * exactly one axis kCross, neither box degenerate — the one-axis-cross
//     shortcut: with (say) the y class fixed at cy ≠ kCross, every point
//     of the primary lies in tile row cy, so the relation is the union of
//     table[(column << 2) | cy] over the columns the primary's boundary
//     reaches. Each polygon's boundary is connected, hence its x-projection
//     is its full mbb x-extent, and three strict compares of the polygon's
//     x-bounds against the reference's x-lines decide its columns under
//     the same inclusive boundary semantics as prefilter.h (an on-line
//     polygon edge resolves to the containing side, matching how the
//     classifier put on-line boxes in kLow/kMid/kHigh). No point-in-polygon
//     test can change the answer: the B-tile swallow needs the reference
//     box inside the primary's mbb band on *both* axes, i.e. both axes
//     kCross. Audit builds recheck every pair against the full algorithm.
//   * both axes kCross, or a degenerate box — full Compute-CDR on the
//     primary's geometry against the reference's profiled box.
//
// Construction is two passes over the rows (count, then emit into
// exact-size storage at per-row offsets), so peak memory is the final
// store plus the sweep indexes — there is never a grow-and-merge copy of
// the overlay. Both passes run as parallel row strips on ParallelFor's
// fork-join; emit writes are disjoint by construction, so the overlay is
// bit-identical for every thread count. Each strip carries one profiler
// frame for its pass's dominant work — `prefilter.classify` under a count
// strip, `cdr.compute` under an emit strip — so a sampled profile splits
// the sweep into classification and resolution without per-pair frames.

#include <algorithm>
#include <atomic>
#include <vector>

#include "audit/audit.h"
#include "audit/invariants.h"
#include "core/compute_cdr.h"
#include "engine/interval_index.h"
#include "engine/interval_kernel.h"
#include "engine/parallel_for.h"
#include "engine/prefilter.h"
#include "engine/relation_store.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace cardir {
namespace {

// Per-participant working memory of the sweep, reused across every strip a
// participant runs in both passes: the candidate row bitset and the
// Compute-CDR scratch arena. The bitset (one bit per region) is how a row's
// two axis queries combine without a sort (see engine/interval_index.h); it
// is zeroed on construction and re-zeroed by Drain, so each row starts
// clean. Indexed by ParallelFor participant id; a participant never runs two
// strips concurrently, so no synchronisation is needed. Escapes into
// cross-thread lambdas are forbidden (analyzer scratch-escape check).
struct SweepScratch {
  CandidateBitset bits;
  CdrScratch cdr;
};

}  // namespace

Result<RelationStore> SweepJoin(const std::vector<const Region*>& regions,
                                const EngineOptions& options,
                                EngineStats* stats, SweepPlan* plan) {
  const size_t n = regions.size();
  if (stats != nullptr) *stats = EngineStats();
  if (options.threads > kMaxEngineThreads) {
    return Status::InvalidArgument(
        StrFormat("EngineOptions::threads is %d, above the limit of %d",
                  options.threads, kMaxEngineThreads));
  }
  CARDIR_TRACE_SPAN("engine.run");
  const uint64_t run_start_us = obs::TraceNowMicros();

  // Validate every region once up front; an invalid region fails the run.
  CARDIR_RECORD_EVENT(kPhase, "engine.validate", 0, n);
  std::vector<Box> boxes(n);
  {
    CARDIR_TRACE_SPAN("engine.validate");
    for (size_t i = 0; i < n; ++i) {
      if (regions[i] == nullptr) {
        return Status::InvalidArgument(
            StrFormat("region #%zu: null region", i));
      }
      const Status status = regions[i]->Validate();
      if (!status.ok()) {
        return Status::InvalidArgument(
            StrFormat("region #%zu: %s", i, status.message().c_str()));
      }
      boxes[i] = regions[i]->BoundingBox();
    }
  }

  RelationStore store;
  store.profile_ = RegionProfile::FromBoxes(boxes);
  store.row_offsets_.assign(n + 1, 0);
  const RegionProfile& profile = store.profile_;

  // Plan: the per-axis overlap indexes over the non-degenerate boxes, the
  // degenerate id list (explicit against every primary, enumerated
  // directly), and the per-polygon box SoA for the shortcut — the caller's
  // plan, built even below two regions, where a DeltaEngine grows from it.
  {
    CARDIR_TRACE_SPAN("sweep.plan");
    CARDIR_RECORD_EVENT(kPhase, "sweep.plan", 1, n);
    if constexpr (kAuditEnabled) {
      CARDIR_RETURN_IF_ERROR(ValidateClassKernelOnce());
    }
    plan->x_index.Build(XIntervals(profile));
    plan->y_index.Build(YIntervals(profile));
    plan->degenerate_ids.clear();
    for (size_t i = 0; i < n; ++i) {
      if (profile.cross_override[i] != 0) {
        plan->degenerate_ids.push_back(static_cast<uint32_t>(i));
      }
    }
    plan->poly.Build(regions);
  }
  if (n < 2) {
    store.charge_ = RelationStore::MemCharge(store.bytes());
    return store;
  }

  CARDIR_METRIC_COUNT("engine.runs", 1);
  CARDIR_METRIC_COUNT("engine.regions", n);

  // Invokes `fn(j)` for every candidate reference of row i — the
  // strict-overlap union plus the degenerate ids — in ascending id order.
  // Every explicit pair of the row is visited (see the bound in the file
  // comment); resolvable candidates are filtered by ClassPairCode at the
  // use site. The two axis queries mark bits in the participant's row
  // bitset (which both deduplicates their intersection and sorts by
  // construction — a per-row std::sort of the candidate list was the single
  // hottest part of an earlier version); iteration then drains and
  // re-zeroes the words.
  const auto for_each_candidate = [&](size_t i, SweepScratch& ws, auto&& fn) {
    if (profile.cross_override[i] != 0) {
      // Degenerate primary: nothing in the row is box-resolvable.
      for (size_t j = 0; j < n; ++j) {
        if (j != i) fn(static_cast<uint32_t>(j));
      }
      return;
    }
    const auto mark = [&ws](uint32_t j) { ws.bits.Mark(j); };
    plan->x_index.ForEachOverlap(profile.min_x[i], profile.max_x[i], mark);
    plan->y_index.ForEachOverlap(profile.min_y[i], profile.max_y[i], mark);
    for (const uint32_t j : plan->degenerate_ids) mark(j);
    ws.bits.Clear(static_cast<uint32_t>(i));  // Never self-paired.
    ws.bits.Drain(fn);
  };

  const int threads = ResolveThreadCount(options.threads);
  CARDIR_METRIC_GAUGE_SET("engine.pool.threads", threads);
  std::vector<SweepScratch> scratch(static_cast<size_t>(threads));
  for (SweepScratch& ws : scratch) ws.bits.Reset(n);
  std::atomic<size_t> crossing_total{0};
  std::atomic<size_t> emitted_total{0};

  // Pass 1 — count: explicit pairs per row, so the overlay can be
  // allocated at its exact final size and pass 2 can write every row at a
  // disjoint precomputed offset (no append buffers, no merge copy — the
  // peak overlay footprint *is* the final footprint).
  std::vector<uint64_t> row_counts(n, 0);
  {
    CARDIR_TRACE_SPAN("sweep.count");
    CARDIR_RECORD_EVENT(kPhase, "sweep.count", 2, n);
    ParallelFor(
        threads, n, [&](size_t begin, size_t end, size_t participant) {
          CARDIR_PROFILE_FRAME("sweep.strip");
          CARDIR_PROFILE_FRAME("prefilter.classify");
          CARDIR_RECORD_EVENT(kSweep, "strip", begin, end - begin);
          SweepScratch& ws = scratch[participant];
          size_t candidates = 0, crossing = 0;
          for (size_t i = begin; i < end; ++i) {
            uint64_t count = 0;
            for_each_candidate(i, ws, [&](uint32_t j) {
              ++candidates;
              const uint8_t code = ClassPairCode(profile, i, j);
              if (RelationStore::ResolvableCode(code)) return;
              ++count;
              if (MbbProperlyCrossesReferenceLines(boxes[i], boxes[j])) {
                ++crossing;
              }
            });
            row_counts[i] = count;
          }
          crossing_total.fetch_add(crossing, std::memory_order_relaxed);
          CARDIR_METRIC_COUNT("engine.sweep.candidates", candidates);
          CARDIR_METRIC_COUNT("engine.pairs.crossing", crossing);
        });
  }

  uint64_t overlay_total = 0;
  for (size_t i = 0; i < n; ++i) {
    store.row_offsets_[i] = overlay_total;
    overlay_total += row_counts[i];
  }
  store.row_offsets_[n] = overlay_total;
  store.overlay_masks_.resize(overlay_total);

  // Pass 2 — emit: re-enumerate each row (the sweep queries are a few
  // percent of the resolve cost) and write its explicit masks at the row's
  // offset, ascending by reference — the store's canonical overlay order.
  {
    CARDIR_TRACE_SPAN("sweep.emit");
    CARDIR_RECORD_EVENT(kPhase, "sweep.emit", 3, overlay_total);
    uint16_t* overlay = store.overlay_masks_.data();
    ParallelFor(
        threads, n, [&](size_t begin, size_t end, size_t participant) {
          CARDIR_PROFILE_FRAME("sweep.strip");
          CARDIR_PROFILE_FRAME("cdr.compute");
          CARDIR_RECORD_EVENT(kSweep, "strip", begin, end - begin);
          SweepScratch& ws = scratch[participant];
          CdrMetricsDelta cdr_metrics;  // Flushed once per strip.
          size_t emitted = 0;
          for (size_t i = begin; i < end; ++i) {
            uint64_t cursor = store.row_offsets_[i];
            for_each_candidate(i, ws, [&](uint32_t j) {
              const uint8_t code = ClassPairCode(profile, i, j);
              if (RelationStore::ResolvableCode(code)) return;
              // One-axis-cross shortcut / full Compute-CDR, shared with the
              // delta engine (see interval_index.h for the exactness
              // argument).
              overlay[cursor++] =
                  ResolveExplicitMask(code, *regions[i], boxes[j], profile, i,
                                      j, plan->poly, &cdr_metrics, &ws.cdr);
              ++emitted;
            });
          }
          cdr_metrics.FlushToRegistry();
          emitted_total.fetch_add(emitted, std::memory_order_relaxed);
          CARDIR_METRIC_COUNT("engine.pairs.computed", emitted);
        });
  }

  // Sweep-scratch telemetry: the row bitsets plus the two overlap indexes
  // reach their maximum extent by the end of the run (a DeltaEngine keeps
  // the indexes under mem.delta_engine) — charge and release so the
  // mem.sweep_scratch peak records the run's high-water while live returns
  // to zero. CdrScratch lanes are charged by mem.edge_soa continuously.
  {
    size_t scratch_bytes = plan->x_index.bytes() + plan->y_index.bytes();
    for (const SweepScratch& ws : scratch) {
      scratch_bytes += ws.bits.bytes();
    }
    if (scratch_bytes != 0) {
      CARDIR_MEMSTAT_ALLOC("sweep_scratch", scratch_bytes);
      CARDIR_MEMSTAT_FREE("sweep_scratch", scratch_bytes);
    }
  }

  const size_t total_pairs = n * (n - 1);
  const size_t implicit_total = total_pairs - overlay_total;
  CARDIR_RECORD_EVENT(kPhase, "sweep.done", 4, total_pairs);
  CARDIR_METRIC_COUNT("engine.pairs.total", total_pairs);
  CARDIR_METRIC_COUNT("engine.pairs.prefiltered", implicit_total);
  CARDIR_METRIC_OBSERVE("engine.run_us", obs::TraceNowMicros() - run_start_us);

  // Audit seams: the emit pass filled exactly the slots the count pass
  // allocated, and every stored relation — implicit, shortcut, or full —
  // agrees with the full algorithm on the real geometry.
  CARDIR_AUDIT(AuditExactCover(emitted_total.load(), overlay_total,
                               "sweep join overlay emit"));
  if constexpr (kAuditEnabled) {
    store.ForEach([&regions](size_t i, size_t j,
                             const CardinalRelation& relation) {
      CARDIR_AUDIT(
          AuditPrefilterAgreement(relation, *regions[i], *regions[j]));
    });
  }

  store.charge_ = RelationStore::MemCharge(store.bytes());
  if (stats != nullptr) {
    stats->total_pairs = total_pairs;
    stats->prefiltered_pairs = implicit_total;
    stats->computed_pairs = overlay_total;
    stats->crossing_pairs = crossing_total.load();
    stats->threads_used = threads;
  }
  return store;
}

Result<RelationStore> ComputeRelationStore(
    const std::vector<const Region*>& regions, const EngineOptions& options,
    EngineStats* stats) {
  SweepPlan plan;
  return SweepJoin(regions, options, stats, &plan);
}

Result<RelationStore> ComputeRelationStore(const std::vector<Region>& regions,
                                           const EngineOptions& options,
                                           EngineStats* stats) {
  return ComputeRelationStore(RegionPointers(regions), options, stats);
}

}  // namespace cardir
