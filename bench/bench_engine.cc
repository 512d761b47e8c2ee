// E20/E24/E25: relation engine throughput — the serial all-pairs loop vs
// the sweep join (engine_sweep*) and single-mutation delta maintenance
// (engine_delta*), on map and overlap configurations. Plain main (not
// google-benchmark) because each data point is one long wall-clock
// measurement and the binary also emits BENCH_engine.json for the
// perf-trajectory ledger. Engine runs also record the observability
// counters (prefilter hit rate, pairs/sec, edges split) so the bench
// trajectory captures more than wall-clock, and each run's counters are
// checked against the engine's accounting invariants (prefiltered +
// computed = total pairs; edges split ≥ edges in) — the binary exits
// non-zero on a violation, which the nightly CI job relies on.
//
//   bench_engine [--sizes 1000,2000] [--serial-cap 2000] [--overlap 600]
//                [--repeat 1] [--out BENCH_engine.json]
//                [--trace-out trace.json] [--flight-record record.txt]
//                [--profile profile.folded] [--profile-hz 997]
//
// Sizes above --serial-cap skip the serial baseline (quadratic, validated
// per pair — minutes at 10k). --repeat N times each sweep row N times and
// records the best wall time, and keeps each delta row's best of N rounds
// (the serial baseline always runs once — it is quadratic and only a
// reference point): single engine measurements on a loaded host can swing
// ±50%, which would flake the perf-smoke gate that diffs ledgers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/compute_cdr.h"
#include "engine/delta_engine.h"
#include "engine/parallel_for.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/region_gen.h"

namespace cardir {
namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The disjoint-cell "country map" layout of workload/scenario_gen: mostly
// tile-separated pairs, the engine's sweet spot.
std::vector<Region> MapRegions(Rng* rng, int count) {
  const int grid = static_cast<int>(std::ceil(std::sqrt(count)));
  const double cell = 1000.0 / grid;
  std::vector<Region> regions;
  regions.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int cx = i % grid;
    const int cy = i / grid;
    RegionGenOptions options;
    options.num_polygons = 1;
    options.vertices_per_polygon = 8;
    options.bounds = Box(cx * cell + 0.05 * cell, cy * cell + 0.05 * cell,
                         (cx + 1) * cell - 0.05 * cell,
                         (cy + 1) * cell - 0.05 * cell);
    regions.push_back(RandomRegion(rng, options));
  }
  return regions;
}

// Heavily overlapping regions: most pairs cross mbb lines, so the full
// Compute-CDR dominates and the pool, not the prefilter, carries the run.
std::vector<Region> OverlapRegions(Rng* rng, int count) {
  std::vector<Region> regions;
  regions.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double size = rng->NextDouble(40.0, 160.0);
    const double x = rng->NextDouble(0.0, 400.0 - size);
    const double y = rng->NextDouble(0.0, 400.0 - size);
    RegionGenOptions options;
    options.num_polygons = 1;
    options.vertices_per_polygon = 10;
    options.bounds = Box(x, y, x + size, y + size);
    regions.push_back(RandomRegion(rng, options));
  }
  return regions;
}

// The move generator: the same region shape, shifted. Keeps the workload's
// geometry scale so the delta rows measure maintenance cost, not a change
// of region statistics.
Region Translated(const Region& region, double dx, double dy) {
  Region out;
  for (const Polygon& polygon : region.polygons()) {
    std::vector<Point> vertices;
    vertices.reserve(polygon.size());
    for (const Point& p : polygon.vertices()) {
      vertices.emplace_back(p.x + dx, p.y + dy);
    }
    out.AddPolygon(Polygon(std::move(vertices)));
  }
  return out;
}

struct RunRecord {
  std::string workload;
  int regions = 0;
  std::string mode;
  int threads = 1;
  bool prefilter = false;
  double ms = 0;
  // 99th-percentile single-mutation latency — only the engine_delta* rows
  // measure a latency distribution; 0 elsewhere and emitted as JSON null.
  double p99_ms = 0;
  size_t pairs = 0;
  size_t prefiltered_pairs = 0;
  size_t crossing_pairs = 0;
  // Observability counters over this run's window.
  double pairs_per_sec = 0;
  double prefilter_hit_rate = 0;
  uint64_t edges_input = 0;
  uint64_t edges_split = 0;
  // Pairs the delta engine touched over this row's window, split by how
  // they resolved (explicit re-resolution vs implicit-from-profile). Zero
  // for the batch modes.
  uint64_t delta_pairs_reresolved = 0;
  uint64_t delta_pairs_implicit = 0;
  // Memory telemetry (obs/memstats.h): per-arena high-water bytes within
  // this run's window (ObsWindow resets peaks at window start) plus the
  // process RSS sampled at window close.
  int64_t mem_edge_soa_peak_bytes = 0;
  int64_t mem_relation_store_peak_bytes = 0;
  int64_t mem_total_peak_bytes = 0;
  int64_t mem_process_rss_bytes = 0;
  // The serial loop allocates its matrix outside the instrumented arenas,
  // so its mem.* window is mostly silence plus whatever the allocator left
  // behind — not a measurement. Such rows emit every mem_* column as JSON
  // null (see the schema note in bench_common.h).
  bool mem_valid = true;
};

// Fails the process on a counter-accounting violation; the nightly CI job
// surfaces this as a red run.
void CheckCounterInvariants(const RunRecord& r,
                            const obs::MetricsSnapshot& delta) {
  const uint64_t total = delta.counter("engine.pairs.total");
  const uint64_t prefiltered = delta.counter("engine.pairs.prefiltered");
  const uint64_t computed = delta.counter("engine.pairs.computed");
  if (prefiltered + computed != total) {
    std::cerr << "counter invariant violated (" << r.workload << " n="
              << r.regions << " " << r.mode
              << "): prefiltered + computed != total (" << prefiltered
              << " + " << computed << " != " << total << ")\n";
    std::exit(1);
  }
  if (delta.counter("engine.runs") != 0 &&
      total != static_cast<uint64_t>(r.pairs)) {
    std::cerr << "counter invariant violated (" << r.workload << " n="
              << r.regions << " " << r.mode << "): engine.pairs.total "
              << total << " != n*(n-1) = " << r.pairs << "\n";
    std::exit(1);
  }
  if (delta.counter("core.edges.split") < delta.counter("core.edges.input")) {
    std::cerr << "counter invariant violated (" << r.workload << " n="
              << r.regions << " " << r.mode
              << "): edges split < edges in ("
              << delta.counter("core.edges.split") << " < "
              << delta.counter("core.edges.input") << ")\n";
    std::exit(1);
  }
}

// The loop Configuration::ComputeAllRelations ran before the engine:
// validated Compute-CDR per ordered pair, results materialised in order.
// Validation stays per pair; only the counter flush is batched, so the
// timed region carries the same instrumentation overhead as the engine's
// strip-batched path.
double TimeSerialLoop(const std::vector<Region>& regions) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<CardinalRelation> matrix;
  matrix.reserve(regions.size() * (regions.size() - 1));
  CdrMetricsDelta cdr_metrics;
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = 0; j < regions.size(); ++j) {
      if (i == j) continue;
      const Status primary_ok = regions[i].Validate();
      const Status reference_ok = regions[j].Validate();
      if (!primary_ok.ok() || !reference_ok.ok()) {
        std::cerr << "serial loop failed: "
                  << (primary_ok.ok() ? reference_ok : primary_ok).ToString()
                  << "\n";
        std::exit(1);
      }
      matrix.push_back(
          ComputeCdrUnchecked(regions[i], regions[j], &cdr_metrics).relation);
    }
  }
  cdr_metrics.FlushToRegistry();
  return MsSince(start);
}

// The sweep join (engine/relation_store.h): candidate pairs come from the
// interval-overlap indexes, everything else resolves implicitly from the
// run-length class profile, and the result is the O(n + explicit) store
// rather than a dense matrix. The timed region is construction only —
// enumerating all n·(n-1) pairs afterwards (Digest) would put the
// quadratic walk the sweep exists to avoid back into the measurement.
// `overlay_out` receives the explicit-pair count so the caller can report
// how much of the quadratic pair space ever materialised.
double TimeSweep(const std::vector<Region>& regions,
                 const EngineOptions& options, EngineStats* stats,
                 size_t* overlay_out) {
  const auto start = std::chrono::steady_clock::now();
  auto store = ComputeRelationStore(regions, options, stats);
  if (!store.ok()) {
    std::cerr << "sweep engine failed: " << store.status() << "\n";
    std::exit(1);
  }
  const double ms = MsSince(start);
  *overlay_out = store->overlay_pairs();
  return ms;
}

std::vector<int> ParseIntList(const std::string& text) {
  std::vector<int> values;
  for (const std::string& piece : StrSplit(text, ',')) {
    values.push_back(std::stoi(piece));
  }
  return values;
}

// Fills the counter-derived fields from this run's metric window and
// enforces the accounting invariants.
void RecordCounters(RunRecord* r, const bench::ObsWindow& window) {
  const obs::MetricsSnapshot delta = window.Delta();
  r->pairs_per_sec =
      r->ms > 0 ? static_cast<double>(r->pairs) / (r->ms / 1000.0) : 0.0;
  const uint64_t total = delta.counter("engine.pairs.total");
  r->prefilter_hit_rate =
      total > 0 ? static_cast<double>(delta.counter("engine.pairs.prefiltered")) /
                      static_cast<double>(total)
                : 0.0;
  r->edges_input = delta.counter("core.edges.input");
  r->edges_split = delta.counter("core.edges.split");
  r->delta_pairs_reresolved = delta.counter("delta.pairs_reresolved");
  r->delta_pairs_implicit = delta.counter("delta.pairs_implicit");
  r->mem_edge_soa_peak_bytes = delta.gauge("mem.edge_soa.peak_bytes");
  r->mem_relation_store_peak_bytes =
      delta.gauge("mem.relation_store.peak_bytes");
  r->mem_total_peak_bytes = delta.gauge("mem.total.peak_bytes");
  r->mem_process_rss_bytes = delta.gauge("mem.process.rss_bytes");
  CheckCounterInvariants(*r, delta);
}

void PrintRecord(const RunRecord& r) {
  if (r.p99_ms > 0) {
    // Delta rows: per-mutation latency, not a batch throughput number.
    std::printf(
        "%-8s n=%-6d %-18s threads=%-2d %10.4f ms median  p99=%.4f ms"
        "  reresolved=%llu implicit=%llu\n",
        r.workload.c_str(), r.regions, r.mode.c_str(), r.threads, r.ms,
        r.p99_ms, static_cast<unsigned long long>(r.delta_pairs_reresolved),
        static_cast<unsigned long long>(r.delta_pairs_implicit));
    return;
  }
  const double mpairs_s =
      r.ms > 0 ? static_cast<double>(r.pairs) / r.ms / 1000.0 : 0.0;
  std::printf(
      "%-8s n=%-6d %-18s threads=%-2d %10.1f ms  %8.2f Mpairs/s"
      "  prefiltered=%zu crossing=%zu\n",
      r.workload.c_str(), r.regions, r.mode.c_str(), r.threads, r.ms,
      mpairs_s, r.prefiltered_pairs, r.crossing_pairs);
}

void WriteJson(const std::vector<RunRecord>& records, int repeat,
               const std::string& path) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"engine\",\n  \"unit\": \"ms\",\n  \"repeat\": "
      << repeat << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const RunRecord& r = records[i];
    // Rows that ran outside the instrumented arenas (the serial loop) have
    // no memory measurement: every mem_* column is null, never 0 (see the
    // schema note in bench_common.h).
    auto mem = [&](int64_t value) -> std::string {
      return r.mem_valid ? StrFormat("%lld", static_cast<long long>(value))
                         : std::string("null");
    };
    // Only the delta rows carry a latency distribution; everything else
    // emits p99_ms as null so consumers cannot mistake "not a latency
    // bench" for "zero-latency".
    const std::string p99 =
        r.p99_ms > 0 ? StrFormat("%.4f", r.p99_ms) : std::string("null");
    out << StrFormat(
        "    {\"workload\": \"%s\", \"regions\": %d, \"mode\": \"%s\", "
        "\"threads\": %d, \"prefilter\": %s, \"ms\": %.4f, "
        "\"p99_ms\": %s, \"pairs\": %zu, "
        "\"prefiltered_pairs\": %zu, \"crossing_pairs\": %zu, "
        "\"pairs_per_sec\": %.0f, \"prefilter_hit_rate\": %.4f, "
        "\"edges_input\": %llu, \"edges_split\": %llu, "
        "\"delta_pairs_reresolved\": %llu, "
        "\"delta_pairs_implicit\": %llu, "
        "\"mem_edge_soa_peak_bytes\": %s, "
        "\"mem_relation_store_peak_bytes\": %s, "
        "\"mem_total_peak_bytes\": %s, "
        "\"mem_process_rss_bytes\": %s}%s\n",
        r.workload.c_str(), r.regions, r.mode.c_str(), r.threads,
        r.prefilter ? "true" : "false", r.ms, p99.c_str(), r.pairs,
        r.prefiltered_pairs,
        r.crossing_pairs, r.pairs_per_sec, r.prefilter_hit_rate,
        static_cast<unsigned long long>(r.edges_input),
        static_cast<unsigned long long>(r.edges_split),
        static_cast<unsigned long long>(r.delta_pairs_reresolved),
        static_cast<unsigned long long>(r.delta_pairs_implicit),
        mem(r.mem_edge_soa_peak_bytes).c_str(),
        mem(r.mem_relation_store_peak_bytes).c_str(),
        mem(r.mem_total_peak_bytes).c_str(),
        mem(r.mem_process_rss_bytes).c_str(),
        i + 1 < records.size() ? "," : "");
  }
  out << "  ]\n}\n";
  std::ofstream file(path);
  file << out.str();
  std::cout << "wrote " << path << "\n";
}

int Main(int argc, char** argv) {
  std::vector<int> sizes = {1000, 2000};
  int serial_cap = 2000;
  int overlap_size = 600;
  int repeat = 1;
  std::string out_path = "BENCH_engine.json";
  std::string trace_path;
  std::string flight_record_path;
  std::string profile_path;
  double profile_hz = obs::ProfileOptions().hz;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--sizes") {
      sizes = ParseIntList(next());
    } else if (arg == "--serial-cap") {
      serial_cap = std::stoi(next());
    } else if (arg == "--overlap") {
      overlap_size = std::stoi(next());
    } else if (arg == "--repeat") {
      repeat = std::max(1, std::stoi(next()));
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--trace-out") {
      trace_path = next();
    } else if (arg == "--flight-record") {
      flight_record_path = next();
    } else if (arg == "--profile") {
      profile_path = next();
    } else if (arg == "--profile-hz") {
      profile_hz = std::stod(next());
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  std::vector<RunRecord> records;
  if (!flight_record_path.empty()) {
    obs::InstallCrashDump(flight_record_path.c_str());
    obs::CaptureLogTail();
  }
  if (!profile_path.empty()) {
    obs::ProfileOptions profile_options;
    profile_options.hz = profile_hz;
    const Status started = obs::StartProfiling(profile_options);
    if (!started.ok()) {
      std::cerr << "--profile: " << started << "\n";
      return 1;
    }
  }
  if (!trace_path.empty()) obs::StartTracing();

  auto run_workload = [&](const std::string& name,
                          const std::vector<Region>& regions) {
    const int n = static_cast<int>(regions.size());
    const size_t pairs = static_cast<size_t>(n) * (n - 1);

    if (n <= serial_cap) {
      RunRecord serial;
      serial.workload = name;
      serial.regions = n;
      serial.mode = "serial_loop";
      serial.threads = 1;
      serial.pairs = pairs;
      const bench::ObsWindow window;
      serial.ms = TimeSerialLoop(regions);
      RecordCounters(&serial, window);
      // The serial loop's relation matrix is a plain std::vector outside
      // the instrumented arenas — its mem columns are not a measurement.
      serial.mem_valid = false;
      records.push_back(serial);
      PrintRecord(serial);
    }

    // Sweep join: never enumerates the quadratic pair space, so it runs at
    // every size. One serial row and one at full hardware concurrency
    // (strip-parallel). Best-of-`repeat` timing; counters are recorded over
    // the last repetition only (each repetition is deterministic, so the
    // windows are identical — summing them would break the accounting
    // invariants).
    for (const int threads : {1, 0}) {
      EngineOptions options;
      options.threads = threads;
      RunRecord r;
      r.workload = name;
      r.regions = n;
      r.mode = threads == 1 ? "engine_sweep" : "engine_sweep_parallel";
      r.threads = threads == 0 ? ResolveThreadCount(0) : threads;
      r.prefilter = true;  // Implicit class resolution is the prefilter.
      r.pairs = pairs;
      EngineStats stats;
      size_t overlay = 0;
      double best = 0;
      for (int rep = 0; rep < repeat; ++rep) {
        const bench::ObsWindow window;
        const double ms = TimeSweep(regions, options, &stats, &overlay);
        if (rep == 0 || ms < best) best = ms;
        if (rep + 1 == repeat) {
          r.ms = best;
          RecordCounters(&r, window);
        }
      }
      r.prefiltered_pairs = stats.prefiltered_pairs;
      r.crossing_pairs = stats.crossing_pairs;
      records.push_back(r);
      PrintRecord(r);
    }

    // Delta maintenance (engine/delta_engine.h): single-mutation latency
    // on the engine one sweep build leaves. Each row times
    // `kDeltaMutations` mutations of one kind and reports the median (ms)
    // and 99th percentile (p99_ms) of that distribution. --repeat N runs N
    // rounds of the three kinds and each row keeps the round with the
    // lowest median: a whole round of these sub-millisecond mutations
    // swings by ±30% on a loaded host, which would flake the perf-smoke
    // gate just as single sweep timings would. Counters come from round 0,
    // whose mutations do not depend on N. The engine is built OUTSIDE the
    // obs windows: each window then sees only the mutations, engine.runs
    // stays 0, and the counter invariants apply to the delta path alone.
    // The headline comparison is this row's median vs the same
    // (workload, n) engine_sweep row: the cost of one move vs recomputing
    // the configuration from scratch.
    {
      constexpr int kDeltaMutations = 200;
      auto built = DeltaEngine::Build(RegionPointers(regions));
      if (!built.ok()) {
        std::cerr << "delta engine build failed: " << built.status() << "\n";
        std::exit(1);
      }
      DeltaEngine engine = std::move(built.value());
      Rng delta_rng(0xDE0000u + static_cast<uint64_t>(n));
      // The engine borrows geometry: `live` is the owner's copy it reads
      // partners from, updated outside the timed section.
      std::vector<Region> live = regions;
      const DeltaEngine::RegionAccessor region_at =
          [&live](size_t j) -> const Region& { return live[j]; };

      // One timed mutation of `kind`; geometry is built outside the timed
      // section. Move shifts one region to a nearby spot; insert adds a
      // shifted clone of a random region (same shape statistics as the
      // workload); remove drains what the inserts added, so each round
      // ends at the original size.
      enum Kind { kMove, kInsert, kRemove };
      const auto mutate = [&](Kind kind) {
        const size_t id = delta_rng.NextBelow(engine.regions());
        Result<DeltaResult> applied = Status::Internal("unset");
        double ms = 0;
        if (kind == kRemove) {
          const auto start = std::chrono::steady_clock::now();
          applied = engine.Remove(id);
          ms = MsSince(start);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(id));
        } else {
          const double reach = kind == kMove ? 40.0 : 60.0;
          Region region = Translated(live[id],
                                     delta_rng.NextDouble(-reach, reach),
                                     delta_rng.NextDouble(-reach, reach));
          const auto start = std::chrono::steady_clock::now();
          applied = kind == kMove ? engine.Move(id, region, region_at)
                                  : engine.Insert(region, region_at);
          ms = MsSince(start);
          if (kind == kMove) {
            live[id] = std::move(region);
          } else {
            live.push_back(std::move(region));
          }
        }
        if (!applied.ok()) {
          std::cerr << "delta mutation failed: " << applied.status() << "\n";
          std::exit(1);
        }
        return ms;
      };

      const char* const modes[] = {"engine_delta", "engine_delta_insert",
                                   "engine_delta_remove"};
      RunRecord rows[3];
      std::vector<double> best[3];
      for (int round = 0; round < repeat; ++round) {
        for (const Kind kind : {kMove, kInsert, kRemove}) {
          const bench::ObsWindow window;
          std::vector<double> lat;
          double total_ms = 0;
          for (int m = 0; m < kDeltaMutations; ++m) {
            lat.push_back(mutate(kind));
            total_ms += lat.back();
          }
          std::sort(lat.begin(), lat.end());
          RunRecord& r = rows[kind];
          if (round == 0) {
            r.workload = name;
            r.regions = n;
            r.mode = modes[kind];
            r.threads = 1;
            r.prefilter = true;  // The interval indexes bound the dirty set.
            r.pairs = pairs;
            RecordCounters(&r, window);
            // Throughput over the round's mutations, in maintained pairs —
            // the generic pairs/ms formula would divide the quadratic pair
            // count by one median mutation.
            r.pairs_per_sec =
                total_ms > 0
                    ? static_cast<double>(r.delta_pairs_reresolved +
                                          r.delta_pairs_implicit) /
                          (total_ms / 1000.0)
                    : 0.0;
          }
          if (round == 0 || lat[lat.size() / 2] < best[kind][lat.size() / 2]) {
            best[kind] = std::move(lat);
          }
        }
      }
      for (const Kind kind : {kMove, kInsert, kRemove}) {
        RunRecord& r = rows[kind];
        r.ms = best[kind][best[kind].size() / 2];
        r.p99_ms = best[kind][(best[kind].size() * 99) / 100];
        records.push_back(r);
        PrintRecord(r);
      }
    }
  };

  // Each workload seeds its own generator from its (name, size) alone, so
  // a ledger row's inputs do not depend on which other sizes ran in the
  // same invocation — a CI run of a subset of the committed size list
  // reproduces the committed rows' inputs exactly.
  for (int n : sizes) {
    Rng rng(7u + static_cast<uint64_t>(n));
    run_workload("map", MapRegions(&rng, n));
  }
  if (overlap_size > 0) {
    Rng rng(0xB0E0u + static_cast<uint64_t>(overlap_size));
    run_workload("overlap", OverlapRegions(&rng, overlap_size));
  }

  if (!trace_path.empty()) {
    obs::StopTracing();
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      std::cerr << "cannot open " << trace_path << " for writing\n";
      return 1;
    }
    obs::WriteChromeTrace(trace_file);
    std::cout << "wrote " << trace_path << "\n";
  }
  if (!profile_path.empty()) {
    obs::StopProfiling();
    const Status written = obs::WriteCollapsedProfile(profile_path);
    if (!written.ok()) {
      std::cerr << "--profile: " << written << "\n";
      return 1;
    }
    const obs::ProfileStats pstats = obs::GetProfileStats();
    std::cout << "wrote " << profile_path << " (" << pstats.samples_taken
              << " samples, " << pstats.samples_with_work << " with work)\n";
  }
  if (!flight_record_path.empty()) {
    if (!obs::DumpFlightRecordToPath(flight_record_path.c_str())) {
      std::cerr << "cannot write flight record to " << flight_record_path
                << "\n";
      return 1;
    }
    std::cout << "wrote " << flight_record_path << "\n";
  }
  WriteJson(records, repeat, out_path);
  return 0;
}

}  // namespace
}  // namespace cardir

int main(int argc, char** argv) { return cardir::Main(argc, argv); }
