// Shared workload construction for the benchmark binaries (experiments
// E6/E7/E13 in DESIGN.md): primary regions of controlled edge count whose
// bounding box straddles the reference mbb, so every benchmark exercises
// the edge-splitting / clipping paths rather than the trivial single-tile
// case.

#ifndef CARDIR_BENCH_BENCH_COMMON_H_
#define CARDIR_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>

#include "geometry/region.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "workload/region_gen.h"

namespace cardir {
namespace bench {

// BENCH_*.json ledger schema note: fields a row did not measure are
// emitted as JSON null. Rows whose measured code path runs outside the
// instrumented arenas (the serial_loop mode allocates its relation matrix
// as a plain std::vector) emit every mem_* column as null, and only the
// engine_delta* rows, which time a latency distribution, carry a p99_ms.
// Consumers must treat null as "not measured"; a 0.00 (or 0) in such a
// field is a writer bug, not a measurement.

/// Counter deltas of one measured run: snapshot before, run, then
/// `ObsWindow::Delta()`. Counters are process-cumulative, so every record
/// written into a BENCH_*.json ledger must be windowed this way.
class ObsWindow {
 public:
  // Resetting the mem.*.peak_bytes gauges at window start makes each
  // record's peaks high-waters *within that run*, not since process start
  // (Diff keeps the later snapshot's gauge values, so peaks pass through).
  ObsWindow() {
    obs::ResetMemPeaks();
    before_ = obs::CaptureMetrics();
  }

  /// Counter increments since construction (by full metric name; 0 when the
  /// counter does not exist). Also samples process RSS so mem.process.*
  /// gauges are fresh in the result.
  obs::MetricsSnapshot Delta() const {
    obs::SampleProcessMemory();
    return obs::CaptureMetrics().Diff(before_);
  }

 private:
  obs::MetricsSnapshot before_;
};

/// The fixed reference region: a square centred on the canvas.
inline Region BenchReference() {
  return Region(MakeRectangle(40.0, 40.0, 60.0, 60.0));
}

/// A primary region with `polygons` star polygons and ~`total_edges` edges
/// in total, spread over a canvas that surrounds the reference mbb, so its
/// edges cross the reference lines extensively.
inline Region BenchPrimary(uint64_t seed, int total_edges, int polygons = 1) {
  Rng rng(seed);
  RegionGenOptions options;
  options.num_polygons = polygons;
  options.vertices_per_polygon = total_edges / polygons;
  options.kind = PolygonKind::kStar;
  options.bounds = Box(0.0, 0.0, 100.0, 100.0);
  return RandomRegion(&rng, options);
}

}  // namespace bench
}  // namespace cardir

#endif  // CARDIR_BENCH_BENCH_COMMON_H_
