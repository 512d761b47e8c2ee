#include "cardirect/tool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "cardirect/constraint_file.h"
#include "cardirect/xml.h"
#include "obs/metrics.h"

namespace cardir {
namespace {

struct ToolRun {
  int exit_code;
  std::string out;
  std::string err;
};

ToolRun RunTool(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunCardirectTool(args, out, err);
  return {code, out.str(), err.str()};
}

class ToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/cardirect_tool_test.xml";
    const ToolRun demo = RunTool({"demo", path_});
    ASSERT_EQ(demo.exit_code, 0) << demo.err;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(ToolTest, NoArgsPrintsUsage) {
  const ToolRun run = RunTool({});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_NE(run.err.find("usage:"), std::string::npos);
}

TEST_F(ToolTest, UnknownCommandPrintsUsage) {
  EXPECT_EQ(RunTool({"frobnicate"}).exit_code, 2);
  EXPECT_EQ(RunTool({"show"}).exit_code, 2);  // Missing argument.
}

TEST_F(ToolTest, ShowListsRegionsAndRelations) {
  const ToolRun run = RunTool({"show", path_});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("lake"), std::string::npos);
  EXPECT_NE(run.out.find("forest"), std::string::npos);
  EXPECT_NE(run.out.find("city"), std::string::npos);
  EXPECT_NE(run.out.find("Stored relations:"), std::string::npos);
}

TEST_F(ToolTest, RelationsComputesAllPairs) {
  const ToolRun run = RunTool({"relations", path_});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  // 3 regions -> 6 ordered pairs, one line each.
  int lines = 0;
  for (char c : run.out) lines += (c == '\n');
  EXPECT_EQ(lines, 6);
}

TEST_F(ToolTest, RelationsCanSaveBack) {
  const std::string out_path = ::testing::TempDir() + "/cardirect_saved.xml";
  const ToolRun run = RunTool({"relations", path_, out_path});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  // Saved relations are not printed as well: on one thread the output is
  // only the confirmation.
  EXPECT_EQ(run.out, "saved: " + out_path + "\n");
  // The file holds every relation the printing form lists.
  const ToolRun show = RunTool({"show", out_path});
  EXPECT_EQ(show.exit_code, 0) << show.err;
  const ToolRun printed = RunTool({"relations", path_});
  ASSERT_EQ(printed.exit_code, 0) << printed.err;
  std::istringstream lines(printed.out);
  int relations = 0;
  for (std::string line; std::getline(lines, line); ++relations) {
    EXPECT_NE(show.out.find("  " + line + "\n"), std::string::npos)
        << line << " missing from:\n"
        << show.out;
  }
  EXPECT_EQ(relations, 6);
  std::remove(out_path.c_str());
}

TEST_F(ToolTest, PercentPrintsAMatrix) {
  const ToolRun run = RunTool({"percent", path_, "forest", "lake"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("%"), std::string::npos);
  EXPECT_EQ(RunTool({"percent", path_, "forest", "ghost"}).exit_code, 1);
}

TEST_F(ToolTest, QueryReturnsRows) {
  const ToolRun run = RunTool({"query", path_, "(x) | color(x) = blue"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("lake"), std::string::npos);
  EXPECT_NE(run.out.find("1 row(s)"), std::string::npos);
  EXPECT_EQ(RunTool({"query", path_, "(x | bad"}).exit_code, 1);
}

TEST_F(ToolTest, ValidateAcceptsDemoConfiguration) {
  const ToolRun run = RunTool({"validate", path_});
  EXPECT_EQ(run.exit_code, 0) << run.err << run.out;
}

TEST_F(ToolTest, MissingFileFails) {
  EXPECT_EQ(RunTool({"show", "/nonexistent/nope.xml"}).exit_code, 1);
  // 50,000 nested elements (350 KB) are a clean XML error, not a stack
  // overflow.
  const std::string nested = ::testing::TempDir() + "/cardirect_nested.xml";
  {
    std::ofstream file(nested);
    for (int level = 0; level < 50000; ++level) file << "<a>";
    for (int level = 0; level < 50000; ++level) file << "</a>";
  }
  const ToolRun run = RunTool({"show", nested});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("xml:"), std::string::npos) << run.err;
  std::remove(nested.c_str());
}

TEST_F(ToolTest, CheckDecidesConsistency) {
  const std::string path = ::testing::TempDir() + "/cardirect_check.txt";
  {
    std::ofstream file(path);
    file << "athens S sparta\nsparta S thebes\nathens {S, SW:S} thebes\n";
  }
  const ToolRun consistent = RunTool({"check", path});
  EXPECT_EQ(consistent.exit_code, 0) << consistent.err;
  EXPECT_NE(consistent.out.find("CONSISTENT"), std::string::npos);
  EXPECT_NE(consistent.out.find("athens:"), std::string::npos);
  {
    std::ofstream file(path);
    file << "a S b\nb S c\na N c\n";
  }
  const ToolRun inconsistent = RunTool({"check", path});
  EXPECT_EQ(inconsistent.exit_code, 1);
  EXPECT_NE(inconsistent.out.find("INCONSISTENT"), std::string::npos);
  {
    std::ofstream file(path);
    file << "not a valid line here at all\n";
  }
  EXPECT_EQ(RunTool({"check", path}).exit_code, 1);
  EXPECT_EQ(RunTool({"check", "/nonexistent/x.txt"}).exit_code, 1);
  std::remove(path.c_str());
}

TEST_F(ToolTest, CheckRejectsTooManyVariables) {
  const std::string path = ::testing::TempDir() + "/cardirect_check_many.txt";
  {
    // A chain over one variable more than the limit.
    std::ofstream file(path);
    for (int v = 1; v <= kMaxConstraintVariables; ++v) {
      file << "v" << v - 1 << " N v" << v << "\n";
    }
  }
  const ToolRun run = RunTool({"check", path});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("more than 32 variables"), std::string::npos)
      << run.err;
  std::remove(path.c_str());
}

TEST_F(ToolTest, WktImportExportRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cardirect_wkt_test.xml";
  ASSERT_EQ(RunTool({"create", path}).exit_code, 0);
  ASSERT_EQ(RunTool({"add-wkt", path, "island", "blue",
                     "POLYGON ((0 0, 0 4, 4 4, 4 0, 0 0))"})
                .exit_code,
            0);
  const ToolRun exported = RunTool({"export-wkt", path, "island"});
  EXPECT_EQ(exported.exit_code, 0) << exported.err;
  EXPECT_NE(exported.out.find("MULTIPOLYGON"), std::string::npos);
  // Bad WKT and unknown region ids fail cleanly.
  EXPECT_EQ(RunTool({"add-wkt", path, "bad", "red", "POINT (1 2)"}).exit_code,
            1);
  EXPECT_EQ(RunTool({"export-wkt", path, "ghost"}).exit_code, 1);
  std::remove(path.c_str());
}

TEST_F(ToolTest, RelatedListsMatchingRegions) {
  // demo config: forest is north-west-ish of the lake.
  const ToolRun run = RunTool({"related", path_, "lake", "{NW, W:NW, NW:N}"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("forest"), std::string::npos);
  EXPECT_NE(run.out.find("region(s)"), std::string::npos);
  EXPECT_EQ(run.out, "forest\n1 region(s)\n");
  EXPECT_EQ(RunTool({"related", path_, "ghost", "N"}).exit_code, 1);
  EXPECT_EQ(RunTool({"related", path_, "lake", "QQ"}).exit_code, 1);
}

TEST_F(ToolTest, TablesPrintsReasoningTables) {
  const ToolRun run = RunTool({"tables"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("inv(SW) = {NE}"), std::string::npos);
  EXPECT_NE(run.out.find("composition table"), std::string::npos);
}

TEST_F(ToolTest, CreateAddQueryRemoveRoundTrip) {
  const std::string path = ::testing::TempDir() + "/cardirect_edit_test.xml";
  EXPECT_EQ(RunTool({"create", path, "editable", "map.png"}).exit_code, 0);
  EXPECT_EQ(RunTool({"add-region", path, "base", "green", "0,0", "0,10",
                     "10,10", "10,0"})
                .exit_code,
            0);
  EXPECT_EQ(RunTool({"add-region", path, "north", "red", "2,12", "2,16",
                     "8,16", "8,12"})
                .exit_code,
            0);
  // Extend `north` with a second (disconnected) polygon.
  EXPECT_EQ(RunTool({"add-polygon", path, "north", "12,12", "12,14",
                     "14,14", "14,12"})
                .exit_code,
            0);
  const ToolRun query =
      RunTool({"query", path, "(x, y) | y = base, x {N, N:NE, NW:N:NE} x"});
  EXPECT_EQ(query.exit_code, 1);  // Malformed on purpose: same variable.
  const ToolRun good =
      RunTool({"query", path, "(x, y) | y = base, x {N, N:NE, NW:N:NE} y"});
  EXPECT_EQ(good.exit_code, 0) << good.err;
  EXPECT_NE(good.out.find("north"), std::string::npos);
  EXPECT_EQ(RunTool({"remove-region", path, "north"}).exit_code, 0);
  const ToolRun show = RunTool({"show", path});
  EXPECT_EQ(show.exit_code, 0);
  EXPECT_EQ(show.out.find("north"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(ToolTest, EditCommandsValidateInput) {
  const std::string path = ::testing::TempDir() + "/cardirect_edit_bad.xml";
  EXPECT_EQ(RunTool({"create", path}).exit_code, 0);
  // Bad vertex syntax.
  EXPECT_EQ(RunTool({"add-region", path, "r", "red", "0;0", "0,1", "1,0"})
                .exit_code,
            1);
  // Too few vertices is rejected by the argument-count dispatch.
  EXPECT_EQ(RunTool({"add-region", path, "r", "red", "0,0", "0,1"})
                .exit_code,
            2);
  // Degenerate polygon.
  EXPECT_EQ(RunTool({"add-region", path, "r", "red", "0,0", "1,1", "2,2"})
                .exit_code,
            1);
  // add-polygon to a missing region.
  EXPECT_EQ(RunTool({"add-polygon", path, "ghost", "0,0", "0,1", "1,0"})
                .exit_code,
            1);
  // remove a missing region.
  EXPECT_EQ(RunTool({"remove-region", path, "ghost"}).exit_code, 1);
  std::remove(path.c_str());
}

// --- observability flags (--stats, --trace-out) ---

// Value of `counter <name> <value>` in a --stats table (0 when absent).
uint64_t CounterFromTable(const std::string& table, const std::string& name) {
  std::istringstream lines(table);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string kind, metric;
    uint64_t value = 0;
    if ((fields >> kind >> metric >> value) && kind == "counter" &&
        metric == name) {
      return value;
    }
  }
  return 0;
}

TEST_F(ToolTest, StatsPrintsCountersSatisfyingEngineInvariants) {
  if (!kObsEnabled) GTEST_SKIP() << "counters compiled out";
  const ToolRun run = RunTool({"--stats", "relations", path_, "--threads=2"});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  ASSERT_NE(run.out.find("=== metrics (this run) ==="), std::string::npos);
  const std::string table =
      run.out.substr(run.out.find("=== metrics (this run) ==="));
  // Every ordered pair is either resolved by the MBB prefilter or fully
  // computed — the engine's accounting identity.
  const uint64_t total = CounterFromTable(table, "engine.pairs.total");
  const uint64_t prefiltered =
      CounterFromTable(table, "engine.pairs.prefiltered");
  const uint64_t computed = CounterFromTable(table, "engine.pairs.computed");
  EXPECT_EQ(total, 6u) << table;  // 3 demo regions -> 6 ordered pairs.
  EXPECT_EQ(prefiltered + computed, total) << table;
  // Splitting only ever adds edges. (The demo's three regions may all be
  // resolved from MBBs alone, in which case both counters are zero.)
  EXPECT_GE(CounterFromTable(table, "core.edges.split"),
            CounterFromTable(table, "core.edges.input"));
}

TEST_F(ToolTest, StatsCountsEdgeWorkOnThePercentCommand) {
  if (!kObsEnabled) GTEST_SKIP() << "counters compiled out";
  // percent always runs the trapezoid pipeline, so edge counters move.
  const ToolRun run = RunTool({"--stats", "percent", path_, "forest", "lake"});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const std::string table =
      run.out.substr(run.out.find("=== metrics (this run) ==="));
  EXPECT_GE(CounterFromTable(table, "core.edges.input"), 1u) << table;
  EXPECT_GE(CounterFromTable(table, "core.edges.split"),
            CounterFromTable(table, "core.edges.input"))
      << table;
  EXPECT_GE(CounterFromTable(table, "core.percent.trapezoid_terms"), 1u)
      << table;
}

TEST_F(ToolTest, StatsCountsQueryBindingsAndDirectionDecisions) {
  if (!kObsEnabled) GTEST_SKIP() << "counters compiled out";
  // The demo's three regions: a binds 3 candidates, b 3 per a (12
  // bindings); the 6 distinct pairs each decide the direction atom. The
  // demo's boxes share no reference line, so the loaded configuration's
  // class codes decide all 6 pairs through the accept mask.
  const ToolRun run =
      RunTool({"--stats", "query", path_, "(a, b) | a {N, S, E, W} b"});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const std::string table =
      run.out.substr(run.out.find("=== metrics (this run) ==="));
  EXPECT_EQ(CounterFromTable(table, "query.bindings"), 12u) << table;
  EXPECT_EQ(CounterFromTable(table, "query.direction.implicit"), 6u) << table;
  EXPECT_EQ(CounterFromTable(table, "query.direction.explicit"), 0u) << table;
}

// `query` and `related` decide from the geometry; `<Relation>` records are
// read only by `show` and StoredRelation. The demo has forest NW lake;
// the edited record says SE.
TEST_F(ToolTest, QueryAndRelatedIgnoreContradictingRecords) {
  std::ifstream in(path_);
  std::string xml((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  const std::string record =
      "<Relation type=\"NW\" primary=\"forest\" reference=\"lake\"/>";
  const size_t at = xml.find(record);
  ASSERT_NE(at, std::string::npos) << xml;
  xml.replace(at, record.size(),
              "<Relation type=\"SE\" primary=\"forest\" "
              "reference=\"lake\"/>");
  const std::string path = ::testing::TempDir() + "/cardirect_contradict.xml";
  std::ofstream(path) << xml;

  const ToolRun nw =
      RunTool({"query", path, "(a, b) | a = forest, b = lake, a NW b"});
  ASSERT_EQ(nw.exit_code, 0) << nw.err;
  EXPECT_NE(nw.out.find("(forest, lake)\n1 row(s)"), std::string::npos)
      << nw.out;
  const ToolRun se =
      RunTool({"query", path, "(a, b) | a = forest, b = lake, a SE b"});
  ASSERT_EQ(se.exit_code, 0) << se.err;
  EXPECT_NE(se.out.find("0 row(s)"), std::string::npos) << se.out;

  const ToolRun related_nw = RunTool({"related", path, "lake", "NW"});
  ASSERT_EQ(related_nw.exit_code, 0) << related_nw.err;
  EXPECT_EQ(related_nw.out, "forest\n1 region(s)\n");
  const ToolRun related_se = RunTool({"related", path, "lake", "SE"});
  ASSERT_EQ(related_se.exit_code, 0) << related_se.err;
  EXPECT_EQ(related_se.out.find("forest"), std::string::npos)
      << related_se.out;

  const ToolRun show = RunTool({"show", path});
  ASSERT_EQ(show.exit_code, 0) << show.err;
  EXPECT_NE(show.out.find("forest SE lake"), std::string::npos) << show.out;
  const Result<Configuration> loaded = LoadConfiguration(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->StoredRelation("forest", "lake"),
            *CardinalRelation::Parse("SE"));
  std::remove(path.c_str());
}

TEST_F(ToolTest, StatsJsonAndPrometheusFormats) {
  if (!kObsEnabled) GTEST_SKIP() << "counters compiled out";
  const ToolRun json = RunTool({"--stats=json", "relations", path_});
  ASSERT_EQ(json.exit_code, 0) << json.err;
  EXPECT_NE(json.out.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(json.out.find("\"engine.pairs.total\": 6"), std::string::npos);

  const ToolRun prom = RunTool({"--stats=prom", "relations", path_});
  ASSERT_EQ(prom.exit_code, 0) << prom.err;
  EXPECT_NE(prom.out.find("# TYPE cardir_engine_pairs_total counter"),
            std::string::npos);
  EXPECT_NE(prom.out.find("cardir_engine_pairs_total 6"), std::string::npos);
}

TEST_F(ToolTest, InvalidStatsFormatIsRejected) {
  const ToolRun run = RunTool({"--stats=xml", "relations", path_});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.err.find("--stats accepts table, json, or prom"),
            std::string::npos);
}

TEST_F(ToolTest, TraceOutWritesChromeTraceJson) {
  const std::string trace_path = ::testing::TempDir() + "/cardirect_trace.json";
  const ToolRun run =
      RunTool({"--trace-out=" + trace_path, "relations", path_, "--threads=2"});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  std::ifstream trace_file(trace_path);
  ASSERT_TRUE(trace_file.is_open());
  std::stringstream buffer;
  buffer << trace_file.rdbuf();
  const std::string trace = buffer.str();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  if (kObsEnabled) {
    EXPECT_NE(trace.find("\"name\": \"engine.run\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  }
  std::remove(trace_path.c_str());
}

TEST_F(ToolTest, ThreadsEqualsFormIsAccepted) {
  const ToolRun run = RunTool({"relations", path_, "--threads=2"});
  EXPECT_EQ(run.exit_code, 0) << run.err;
  EXPECT_EQ(RunTool({"relations", path_, "--threads=bogus"}).exit_code, 1);
  // Above the engine's thread limit, and past int's range: both rejected
  // before the narrowing cast.
  for (const char* flag : {"--threads=257", "--threads=4294967297"}) {
    const ToolRun rejected = RunTool({"relations", path_, flag});
    EXPECT_EQ(rejected.exit_code, 1) << flag;
    EXPECT_NE(rejected.err.find("--threads"), std::string::npos)
        << flag << ": " << rejected.err;
  }
}

TEST_F(ToolTest, FlightRecordWritesDumpOnCleanExit) {
  if (!kObsEnabled) GTEST_SKIP() << "flight recorder compiled out";
  const std::string record_path =
      ::testing::TempDir() + "/cardirect_flight.txt";
  const ToolRun run =
      RunTool({"--flight-record=" + record_path, "relations", path_});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("wrote flight record: " + record_path),
            std::string::npos);
  std::ifstream record_file(record_path);
  ASSERT_TRUE(record_file.is_open());
  std::stringstream buffer;
  buffer << record_file.rdbuf();
  const std::string record = buffer.str();
  EXPECT_EQ(record.rfind("cardir-flight-record v1\n", 0), 0u);
  // The sweep run's phase transitions are in the ring.
  EXPECT_NE(record.find("label=engine.validate"), std::string::npos);
  EXPECT_NE(record.find("label=sweep.done"), std::string::npos);
  // Strip events carry their own record kind.
  EXPECT_NE(record.find("kind=sweep"), std::string::npos);
  EXPECT_NE(record.find("\nend\n"), std::string::npos);
  std::remove(record_path.c_str());

  EXPECT_EQ(RunTool({"--flight-record=", "relations", path_}).exit_code, 1);
}

TEST_F(ToolTest, ProfileWritesCollapsedStacks) {
  if (!kObsEnabled) GTEST_SKIP() << "profiler compiled out";
  const std::string profile_path =
      ::testing::TempDir() + "/cardirect_profile.folded";
  // The demo configuration finishes in microseconds, so the file may hold
  // zero samples — the contract here is flag plumbing: the profiler starts,
  // stops, and writes the file.
  const ToolRun run = RunTool({"--profile=" + profile_path, "--profile-hz=2000",
                               "relations", path_});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  EXPECT_NE(run.out.find("wrote profile: " + profile_path), std::string::npos);
  std::ifstream profile_file(profile_path);
  EXPECT_TRUE(profile_file.is_open());
  std::remove(profile_path.c_str());

  EXPECT_EQ(RunTool({"--profile=", "relations", path_}).exit_code, 1);
  const ToolRun bad_rate = RunTool(
      {"--profile=" + profile_path, "--profile-hz=-5", "relations", path_});
  EXPECT_EQ(bad_rate.exit_code, 1);
  EXPECT_NE(bad_rate.err.find("--profile-hz"), std::string::npos);
}

}  // namespace
}  // namespace cardir
