// Determinism of the sweep join: the *stored artefact* — the XML
// serialization of a configuration, relations included — must be
// byte-identical no matter how many threads computed it or how the
// scheduler interleaved them. Ten runs across a spread of thread counts
// must all serialize to the same document as the single-threaded run, and
// every run's relations must digest equal to the serial Compute-CDR loop.

#include <string>
#include <vector>

#include "cardirect/model.h"
#include "cardirect/xml.h"
#include "engine/serial_oracle.h"
#include "gtest/gtest.h"
#include "properties/random_instances.h"
#include "util/random.h"
#include "util/string_util.h"
#include "workload/scenario_gen.h"

namespace cardir {
namespace {

TEST(EngineDeterminismTest, XmlIdenticalAcrossThreadCountsAndRuns) {
  Rng rng(20260806);
  Configuration config("determinism", "map.png");
  for (int i = 0; i < 24; ++i) {
    AnnotatedRegion region;
    region.id = StrFormat("r%d", i);
    region.name = StrFormat("Region %d", i);
    region.color = (i % 2 == 0) ? "red" : "blue";
    region.geometry = RandomTestRegion(&rng);
    ASSERT_TRUE(config.AddRegion(std::move(region)).ok());
  }

  std::vector<Region> geometries;
  for (int i = 0; i < 24; ++i) {
    geometries.push_back(config.FindRegion(StrFormat("r%d", i))->geometry);
  }
  const uint64_t serial_digest = SerialDigest(geometries);

  EngineOptions serial;
  serial.threads = 1;
  ASSERT_TRUE(config.ComputeAllRelations(serial).ok());
  const std::string golden = ConfigurationToXml(config);
  ASSERT_NE(golden.find("<Relation"), std::string::npos);

  const int thread_counts[] = {1, 2, 3, 4, 8, 16, 2, 8, 3, 1};
  int run = 0;
  for (int threads : thread_counts) {
    EngineOptions options;
    options.threads = threads;
    ASSERT_TRUE(config.ComputeAllRelations(options).ok());
    EXPECT_EQ(ConfigurationToXml(config), golden)
        << "run " << run << " with " << threads << " threads";
    ASSERT_NE(config.relation_store(), nullptr);
    EXPECT_EQ(config.relation_store()->Digest(), serial_digest)
        << "run " << run << " with " << threads << " threads";
    ++run;
  }
  EXPECT_EQ(run, 10);
}

TEST(EngineDeterminismTest, GeneratedScenarioIsThreadCountInvariant) {
  // End-to-end through the workload generator: the same seed must yield the
  // same serialized configuration whether relations were computed on one
  // thread or eight.
  std::string golden;
  for (int threads : {1, 8}) {
    Rng rng(42);
    ScenarioOptions options;
    options.num_regions = 20;
    options.engine.threads = threads;
    auto config = GenerateMapConfiguration(&rng, options);
    ASSERT_TRUE(config.ok()) << config.status();
    const std::string xml = ConfigurationToXml(*config);
    if (golden.empty()) {
      golden = xml;
    } else {
      EXPECT_EQ(xml, golden);
    }
  }
  EXPECT_FALSE(golden.empty());
}

}  // namespace
}  // namespace cardir
