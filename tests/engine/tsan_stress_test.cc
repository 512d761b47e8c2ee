// Contention stress for the ParallelFor fork-join, the sweep join and the
// delta engine, written for the ThreadSanitizer tier (ctest --preset tsan)
// but fast enough to ride in every engine run. More participants than
// cores, and small inputs whose automatic chunking yields 1-row strips,
// make every claim on the shared cursor a fetch-add race window.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "cardirect/query.h"
#include "cardirect/xml.h"
#include "core/compute_cdr.h"
#include "core/compute_cdr_percent.h"
#include "engine/delta_engine.h"
#include "engine/parallel_for.h"
#include "engine/relation_store.h"
#include "engine/serial_oracle.h"
#include "geometry/region.h"
#include "gtest/gtest.h"
#include "index/directional_query.h"
#include "properties/random_instances.h"
#include "util/random.h"
#include "workload/scenario_gen.h"

namespace cardir {
namespace {

TEST(TsanStressTest, ManyShortParallelForRounds) {
  // Many short jobs: thread start, chunk claiming and the join all cycle
  // once per round.
  const size_t count = 512;
  std::vector<std::atomic<uint32_t>> hits(count);
  for (int round = 0; round < 50; ++round) {
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    ParallelFor(8, count, [&hits](size_t begin, size_t end, size_t) {
      for (size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "round " << round << " index " << i;
    }
  }
}

TEST(TsanStressTest, UnsynchronisedSlotWritesArePublished) {
  // The sweep's emit pass writes each explicit pair's mask into a
  // precomputed overlay slot with no per-slot synchronisation; the
  // ParallelFor join must publish those plain writes to the caller. Model
  // exactly that access pattern.
  const size_t count = 4'096;
  std::vector<uint64_t> slots(count, 0);
  ParallelFor(8, count, [&slots](size_t begin, size_t end, size_t) {
    for (size_t i = begin; i < end; ++i) slots[i] = i * 2 + 1;
  });
  for (size_t i = 0; i < count; ++i) {
    ASSERT_EQ(slots[i], i * 2 + 1) << i;
  }
}

TEST(TsanStressTest, ConcurrentEnginesShareInputRegions) {
  // Several engines, each with its own fork-joins, hammer the same
  // (read-only) region vector concurrently — the CARDIRECT server-side
  // usage pattern. Every run must reproduce the serial loop.
  Rng rng(0x57E55);
  std::vector<Region> regions;
  for (int i = 0; i < 16; ++i) regions.push_back(RandomTestRegion(&rng));
  const std::vector<uint16_t> expected = SerialMasks(regions);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> drivers;
  for (int d = 0; d < 4; ++d) {
    drivers.emplace_back([&regions, &expected, &mismatches] {
      for (int run = 0; run < 3; ++run) {
        EngineOptions options;
        options.threads = 4;  // 16 rows: automatic chunking, 1-row strips.
        const auto store = ComputeRelationStore(regions, options);
        if (!store.ok() || store->pair_count() != expected.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        size_t k = 0;
        bool same = true;
        store->ForEach(
            [&](size_t, size_t, const CardinalRelation& relation) {
              if (relation.mask() != expected[k++]) same = false;
            });
        if (!same) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(TsanStressTest, DigestIdenticalAcrossThreadCountsUnderContention) {
  Rng rng(0xD16E57);
  std::vector<Region> regions;
  for (int i = 0; i < 24; ++i) regions.push_back(RandomTestRegion(&rng));

  const uint64_t serial = SerialDigest(regions);

  for (int threads : {2, 4, 8}) {
    EngineOptions options;
    options.threads = threads;
    const auto store = ComputeRelationStore(regions, options);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_EQ(store->Digest(), serial) << threads << " threads";
  }
}

// The per-worker scratch pattern: each worker owns one CdrScratch whose
// SoA lane arrays are reused (and grown) across every pair it drains,
// while all workers read the same region vector. Each thread interleaves
// small and large polygons so EnsureCapacity regrows its buffers mid-run
// while the neighbours are deep in their own lanes; every result is
// checked against a fresh-scratch serial recomputation, so a stale-lane
// or shared-growth bug shows up as a wrong mask/area, not just as a tsan
// report.
TEST(TsanStressTest, SharedRegionsPerThreadScratchReuse) {
  Rng rng(0x50A5C);
  std::vector<Region> regions;
  for (int i = 0; i < 12; ++i) {
    const double size = rng.NextDouble(30.0, 150.0);
    const double x = rng.NextDouble(0.0, 200.0 - size);
    const double y = rng.NextDouble(0.0, 200.0 - size);
    regions.push_back(RandomTestRegion(&rng));
    regions.push_back(Region(MakeRectangle(x, y, x + size, y + size)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&regions, &mismatches, w] {
      CdrScratch scratch;  // Reused across every pair, like SweepScratch.
      CdrMetricsDelta metrics;
      for (int round = 0; round < 4; ++round) {
        for (size_t i = 0; i < regions.size(); ++i) {
          for (size_t j = 0; j < regions.size(); ++j) {
            if (i == j) continue;
            // Stagger the traversal so threads hit different (i, j) at
            // any instant but still cover every ordered pair.
            const size_t pi = (i + static_cast<size_t>(w)) % regions.size();
            if (pi == j) continue;
            const Box mbb = regions[j].BoundingBox();
            const CdrComputation reused =
                ComputeCdrUnchecked(regions[pi], mbb, &metrics, &scratch);
            const CdrPercentComputation reused_pct =
                ComputeCdrPercentUnchecked(regions[pi], mbb, &scratch);

            CdrScratch fresh;
            CdrMetricsDelta fresh_metrics;
            const CdrComputation expected = ComputeCdrUnchecked(
                regions[pi], mbb, &fresh_metrics, &fresh);
            const CdrPercentComputation expected_pct =
                ComputeCdrPercentUnchecked(regions[pi], mbb, &fresh);
            if (reused.relation.mask() != expected.relation.mask() ||
                reused.output_edges != expected.output_edges) {
              mismatches.fetch_add(1);
            }
            for (int t = 0; t < kNumTiles; ++t) {
              if (reused_pct.tile_areas[t] != expected_pct.tile_areas[t]) {
                mismatches.fetch_add(1);
                break;
              }
            }
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The delta engine serializes mutations behind one mutex; this hammers
// that lock with concurrent Move calls on distinct ids (each to an
// absolute final geometry, so any interleaving converges to one state)
// while other threads read Digest() mid-churn. The end digest must equal
// the serial loop's — a dropped patch under contention would diverge.
// The engine borrows geometry: the movers share the region vector its
// accessor reads, so each holds `geometry_mu` while it updates its region
// and calls Move (the caller's side of the accessor contract); the
// Digest() readers take no test lock.
TEST(TsanStressTest, DeltaEngineConcurrentMovesAndDigestReaders) {
  Rng rng(0xDE17Au);
  std::vector<Region> regions;
  for (int i = 0; i < 32; ++i) regions.push_back(RandomTestRegion(&rng));
  auto built = DeltaEngine::Build(RegionPointers(regions));
  ASSERT_TRUE(built.ok()) << built.status();
  DeltaEngine& engine = built.value();
  std::mutex geometry_mu;
  const DeltaEngine::RegionAccessor region_at =
      [&regions](size_t j) -> const Region& { return regions[j]; };
  const auto move = [&](size_t i, const Region& geometry) {
    const std::lock_guard<std::mutex> lock(geometry_mu);
    regions[i] = geometry;
    return engine.Move(i, regions[i], region_at).ok();
  };

  std::vector<Region> final_regions = regions;
  for (size_t i = 0; i < final_regions.size(); ++i) {
    const double x = 40.0 * static_cast<double>(i % 8);
    const double y = 50.0 * static_cast<double>(i / 8);
    final_regions[i] = Region(MakeRectangle(x, y, x + 30.0, y + 35.0));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&engine, &move, &final_regions, &failures, w] {
      for (size_t i = static_cast<size_t>(w); i < final_regions.size();
           i += 4) {
        // An intermediate hop first, so every id mutates twice and the
        // interval indexes accumulate tombstones under contention.
        const double off = 500.0 + 25.0 * static_cast<double>(i);
        const Region hop(MakeRectangle(off, off, off + 20.0, off + 15.0));
        if (!move(i, hop)) failures.fetch_add(1);
        (void)engine.Digest();  // Readers interleave with movers.
        if (!move(i, final_regions[i])) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  ASSERT_EQ(failures.load(), 0);

  EXPECT_EQ(engine.Digest(), SerialDigest(final_regions));
}

// Readers of one configuration: the query evaluator and `related`
// (FindMatching) each decide through their own DirectionDecider, which
// borrows a computed configuration's box profile and polygon boxes through
// const paths and builds its own from the geometry on an uncomputed or
// XML-loaded one. Four threads running both at once, over a computed,
// delta-patched configuration, the same geometry uncomputed and the same
// geometry loaded from XML, must see exactly what a serial run sees. A
// cache slipping into a const read path races here.
TEST(TsanStressTest, ConcurrentReadersOfOneConfiguration) {
  Rng rng(0xC0FFEEu);
  ScenarioOptions options;
  options.num_regions = 49;
  Result<Configuration> generated = GenerateMapConfiguration(&rng, options);
  ASSERT_TRUE(generated.ok()) << generated.status();
  Configuration& config = *generated;
  // Grown regions cross many reference lines (their rows and their
  // partners' rows are patched); the removal leaves ghosts.
  int grown = 0;
  for (const char* id : {"region3", "region10", "region17", "region24"}) {
    const double off = 1100.0 + 40.0 * grown++;
    ASSERT_TRUE(config
                    .AddPolygonToRegion(
                        id, MakeRectangle(off, 200.0, off + 20.0, 900.0))
                    .ok());
  }
  ASSERT_TRUE(config.RemoveRegion("region30").ok());
  Configuration uncomputed;
  for (const AnnotatedRegion& region : config.regions()) {
    ASSERT_TRUE(uncomputed.AddRegion(region).ok());
  }
  const Result<Configuration> loaded =
      ConfigurationFromXml(ConfigurationToXml(config));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(uncomputed.relation_store(), nullptr);
  ASSERT_EQ(loaded->relation_store(), nullptr);
  const std::vector<const Configuration*> configurations = {
      &config, &uncomputed, &*loaded};

  const std::vector<std::string> anchors = {"region0", "region12",
                                            "region25", "region48"};
  const char* const directions = "{N, NE, E, N:NE, NE:E, B:N}";
  const DisjunctiveRelation relation = *DisjunctiveRelation::Parse(directions);
  struct Answers {
    std::vector<std::vector<QueryRow>> rows;
    std::vector<std::vector<std::string>> related;
  };
  const auto read = [&](const Configuration& configuration, Answers* answers) {
    const Result<DirectionalIndex> index =
        DirectionalIndex::Build(configuration);
    if (!index.ok()) return false;
    for (const std::string& anchor : anchors) {
      const Result<QueryResult> query = EvaluateQuery(
          configuration, "(x, y) | y = " + anchor + ", color(x) = red, x " +
                             directions + " y");
      const Result<std::vector<std::string>> found =
          index->FindMatching(anchor, relation);
      if (!query.ok() || !found.ok()) return false;
      answers->rows.push_back(query->rows);
      answers->related.push_back(*found);
    }
    const Result<QueryResult> pairwise =
        EvaluateQuery(configuration, "(x, y) | x {S, SW, B:S, S:SW} y");
    if (!pairwise.ok()) return false;
    answers->rows.push_back(pairwise->rows);
    return true;
  };
  Answers serial;
  ASSERT_TRUE(read(config, &serial));
  ASSERT_FALSE(serial.rows.back().empty());
  // One geometry, so every configuration answers alike.
  for (const Configuration* configuration : configurations) {
    Answers answers;
    ASSERT_TRUE(read(*configuration, &answers));
    EXPECT_EQ(answers.rows, serial.rows);
    EXPECT_EQ(answers.related, serial.related);
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&read, &serial, &mismatches, &configurations] {
      for (int round = 0; round < 3; ++round) {
        for (const Configuration* configuration : configurations) {
          Answers answers;
          if (!read(*configuration, &answers) || answers.rows != serial.rows ||
              answers.related != serial.related) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace cardir
