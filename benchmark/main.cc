// End-to-end CARDIRECT benchmark program (see README.md).
//
// One process runs one workload: a closed loop with one client that calls
// the library's public API, waits for each result and checks it against an
// oracle. Inputs come from inputs.h, generated from --seed; the library
// sees only the generated XML text and the edit/read scripts.
//
//   cardir_e2e --workload NAME [--seed N] [--seconds S] [--smoke]
//              [--trace] [--trace-out FILE]
//
// The last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics, or with --trace the per-layer ones.
// The exit code is 0 only when every operation succeeded and verified.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cardirect/model.h"
#include "cardirect/query.h"
#include "cardirect/xml.h"
#include "core/compute_cdr.h"
#include "index/directional_query.h"
#include "inputs.h"
#include "obs/metrics.h"
#include "trace.h"

namespace {

using bench::EditOp;
using bench::NowNs;
using bench::Rng;
using bench::Span;
using cardir::AnnotatedRegion;
using cardir::CardinalRelation;
using cardir::Configuration;
using cardir::DirectionalIndex;
using cardir::DisjunctiveRelation;
using cardir::Polygon;
using cardir::RelationStore;
using cardir::Result;
using cardir::Status;

// ---------------------------------------------------------------------------
// Workloads and sizes
// ---------------------------------------------------------------------------

enum class OpKind { kOpen, kCompute, kSave, kReopen, kEdit, kQuery, kRelated };
enum class Input { kMap, kQueryMap, kOverlap };

struct Workload {
  const char* name;
  Input input;
  OpKind op;
  const char* op_span;
};

// Each workload times one kind of user operation, so every end-to-end
// metric of a workload describes that operation alone. Edits and reads are
// timed in blocks (inputs.h) so that every timed op does alike work.
constexpr Workload kWorkloads[] = {
    {"map_open", Input::kMap, OpKind::kOpen, "op.open"},
    {"map_compute", Input::kMap, OpKind::kCompute, "op.compute"},
    {"map_edit", Input::kMap, OpKind::kEdit, "op.edit_session"},
    {"map_query", Input::kQueryMap, OpKind::kQuery, "op.query_block"},
    {"map_related", Input::kQueryMap, OpKind::kRelated, "op.related_block"},
    {"overlap_compute", Input::kOverlap, OpKind::kCompute, "op.compute"},
    {"overlap_save", Input::kOverlap, OpKind::kSave, "op.save"},
    {"overlap_reopen", Input::kOverlap, OpKind::kReopen, "op.reopen"},
};

struct Sizes {
  int map;        // Regions of the map workloads.
  int query_map;  // Regions of the map the reads run on.
  int overlap;    // Regions of the overlap workloads.
};
constexpr Sizes kFullSizes{20000, 4000, 600};
constexpr Sizes kSmokeSizes{400, 300, 60};

constexpr int kMinSetups = 3;          // setup_s is the median of at least
constexpr int kMaxSetups = 15;         // this many set-ups, more while they
constexpr double kSetupBudgetS = 1.5;  // fit in this budget.
constexpr int kSampledPairs = 2000;     // Pairs checked against ComputeCdr.
constexpr int kFreshPairs = 100000;     // map_edit end: pairs vs a rebuild.
constexpr size_t kMostEditedRows = 200;  // map_edit end: whole rows checked.
constexpr int kEditSession = 100;        // map_edit: edits per op.
constexpr int kEditsPerReadBlock = 2;    // Read runs: edits between blocks.
constexpr int kRelatedCheckEvery = 4;    // map_related: reads per check.
constexpr int kScriptReadsPerSecond = 5000;  // Read script per run second.
constexpr const char* kDirections = "{N, NE, E, N:NE, NE:E}";
constexpr const char* kEditSpans[] = {"model.add_polygon", "model.add_region",
                                      "model.remove_region"};
constexpr const char* kEditNames[] = {"add_polygon", "add_region",
                                      "remove_region"};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 8.0;
  bool smoke = false;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "cardir_e2e: %s\n", message.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Fatal("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Fatal("unknown workload '" + name + "'");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value().c_str(), nullptr);
      if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
        Fatal("--seconds must be in (0, 120]");
      }
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--trace") {
      args.trace = true;
    } else if (flag == "--trace-out") {
      args.trace_out = value();
    } else {
      Fatal("unknown flag '" + flag + "'");
    }
  }
  if (args.workload == nullptr) Fatal("--workload is required");
  return args;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Linear interpolation between order statistics; 0 for no samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Min(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double Sum(const std::vector<double>& values) {
  double total = 0;
  for (double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Peak resident set of this program image so far, MiB. VmHWM, not
// getrusage's ru_maxrss: that one keeps the peak of the process image
// before exec, i.e. of the parent that forked this run.
double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Library counters diffed around each traced operation
// ---------------------------------------------------------------------------

enum Counter {
  kParseBytes, kParseUs, kSerializeBytes, kSerializeUs, kSweepUs,
  kCandidates, kCrossing, kComputed, kPrefiltered, kTotalPairs, kApplyUs,
  kReresolved, kImplicit, kCdrRuns, kEdgesInput, kEdgesSplit, kPipTests,
  kIndexCandidates, kIndexRefined, kIndexResults, kRtreeNodes, kNumCounters
};

// Name in the obs registry; histograms contribute their sum.
constexpr std::pair<const char*, bool> kCounterSources[kNumCounters] = {
    {"xml.parse.bytes", false},        {"xml.parse_us", true},
    {"xml.serialize.bytes", false},    {"xml.serialize_us", true},
    {"engine.run_us", true},           {"engine.sweep.candidates", false},
    {"engine.pairs.crossing", false},  {"engine.pairs.computed", false},
    {"engine.pairs.prefiltered", false}, {"engine.pairs.total", false},
    {"delta.apply_us", true},          {"delta.pairs_reresolved", false},
    {"delta.pairs_implicit", false},   {"core.cdr.runs", false},
    {"core.edges.input", false},       {"core.edges.split", false},
    {"core.pip_tests", false},         {"index.query.candidates", false},
    {"index.query.refined", false},    {"index.query.results", false},
    {"index.rtree.nodes_visited", false},
};

using Counters = std::array<double, kNumCounters>;

Counters ReadCounters() {
  const cardir::obs::MetricsSnapshot snapshot = cardir::obs::CaptureMetrics();
  Counters out{};
  for (size_t i = 0; i < kNumCounters; ++i) {
    const auto& [name, is_histogram] = kCounterSources[i];
    if (is_histogram) {
      const auto it = snapshot.histograms.find(name);
      out[i] = it == snapshot.histograms.end()
                   ? 0.0
                   : static_cast<double>(it->second.sum);
    } else {
      out[i] = static_cast<double>(snapshot.counter(name));
    }
  }
  return out;
}

// One traced call: the workload's own op, or a single edit (inside an edit
// session, or between read blocks), with what the library counted.
struct OpRecord {
  bool primary = false;
  int edit_kind = -1;  // EditOp::Kind of a single edit.
  double ms = 0;
  Counters delta{};
};

// ---------------------------------------------------------------------------
// Helpers over the configuration
// ---------------------------------------------------------------------------

Polygon ToPolygon(const bench::Ring& ring) {
  std::vector<cardir::Point> vertices;
  vertices.reserve(ring.size());
  for (const bench::Pt& p : ring) vertices.emplace_back(p.x, p.y);
  return Polygon(std::move(vertices));
}

size_t IndexOf(const Configuration& config, const std::string& id) {
  const auto& regions = config.regions();
  for (size_t i = 0; i < regions.size(); ++i) {
    if (regions[i].id == id) return i;
  }
  return regions.size();
}

std::string QueryText(const std::string& anchor) {
  return "(x, y) | y = " + anchor + ", color(x) = red, x " + kDirections +
         " y";
}

// store.Relation(i, j) equals the paper's Compute-CDR on the geometries.
bool PairMatches(const Configuration& config, const RelationStore& store,
                 size_t i, size_t j) {
  const Result<CardinalRelation> expected = cardir::ComputeCdr(
      config.regions()[i].geometry, config.regions()[j].geometry);
  return expected.ok() && *expected == store.Relation(i, j);
}

Configuration Open(const std::string& xml, const char* what) {
  Result<Configuration> config = cardir::ConfigurationFromXml(xml);
  if (!config.ok()) Fatal(std::string(what) + ": " + config.status().ToString());
  return std::move(*config);
}

void Compute(Configuration* config, const char* what) {
  const Status status = config->ComputeAllRelations();
  if (!status.ok()) Fatal(std::string(what) + ": " + status.ToString());
}

Status Apply(Configuration& config, const EditOp& op) {
  switch (op.kind) {
    case EditOp::Kind::kAddPolygon:
      return config.AddPolygonToRegion(op.id, ToPolygon(op.ring));
    case EditOp::Kind::kAddRegion:
      return config.AddRegion(AnnotatedRegion{
          op.id, "", op.color, cardir::Region(ToPolygon(op.ring))});
    case EditOp::Kind::kRemoveRegion:
      return config.RemoveRegion(op.id);
  }
  return Status::Internal("bad edit kind");
}

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

class Benchmark {
 public:
  explicit Benchmark(const Args& args)
      : args_(args),
        w_(*args.workload),
        sizes_(args.smoke ? kSmokeSizes : kFullSizes),
        oracle_rng_(args.seed ^ 0x6f7261636c65ULL),
        directions_(*DisjunctiveRelation::Parse(kDirections)) {}

  int Run() {
    Generate();
    SetUp();
    tracer_.SetEnabled(args_.trace);
    if (args_.trace) fresh_relation_ns_ = ProbeStoreRelationNs();
    tracer_.SetEnabled(false);
    Measure();
    peak_rss_mib_ = PeakRssMiB();
    const uint64_t verify_start = NowNs();
    VerifyEnd();
    verify_s_ += static_cast<double>(NowNs() - verify_start) / 1e9;
    if (args_.trace) {
      tracer_.SetEnabled(true);
      Probe();
      if (!args_.trace_out.empty() &&
          !tracer_.WriteChromeTrace(args_.trace_out)) {
        Fatal("cannot write " + args_.trace_out);
      }
      PerLayerMetrics();
    } else {
      EndToEndMetrics();
    }
    Print();
    return failed_ == 0 ? 0 : 1;
  }

 private:
  // ---- Inputs ------------------------------------------------------------

  void Generate() {
    const int n = w_.input == Input::kMap        ? sizes_.map
                  : w_.input == Input::kQueryMap ? sizes_.query_map
                                                 : sizes_.overlap;
    set_ = w_.input == Input::kOverlap ? bench::OverlapRegions(args_.seed, n)
                                       : bench::MapRegions(args_.seed, n);
    xml_ = bench::ToXml(set_, w_.input == Input::kOverlap ? "overlap" : "map");
    grid_ = static_cast<size_t>(bench::GridSide(n));
    if (w_.op == OpKind::kEdit) {
      edits_ = bench::EditScript(args_.seed, set_, bench::kEditBlock + kEditSession);
    } else if (w_.op == OpKind::kQuery || w_.op == OpKind::kRelated) {
      // Far more reads than one run takes at today's speed, so a faster
      // library still finds work until the time is up.
      const int reads = static_cast<int>(args_.seconds * kScriptReadsPerSecond);
      edits_ = bench::EditScript(
          args_.seed, set_, reads / bench::kReadBlock * kEditsPerReadBlock + 1);
      anchors_ = bench::AnchorScript(args_.seed, n, reads + bench::kReadBlock);
    }
    std::printf("workload %s seed %llu regions %d xml_bytes %zu edits %zu "
                "reads %zu\n",
                w_.name, static_cast<unsigned long long>(args_.seed), n,
                xml_.size(), edits_.size(), anchors_.size());
    std::printf("input_digest %016llx\n",
                static_cast<unsigned long long>(
                    bench::InputDigest(xml_, edits_, anchors_)));
  }

  // ---- Set-up: the calls before the first timed op, done several times ----

  void SetUp() {
    std::vector<double> samples;
    while (static_cast<int>(samples.size()) < kMinSetups ||
           (Sum(samples) < kSetupBudgetS &&
            static_cast<int>(samples.size()) < kMaxSetups)) {
      config_ = Configuration();  // Free the previous state first.
      const uint64_t start = NowNs();
      SetUpOnce();
      samples.push_back(static_cast<double>(NowNs() - start) / 1e9);
    }
    setup_s_ = samples;
    next_edit_ = 1;
    if (w_.op == OpKind::kEdit) snapshot_ = config_;
  }

  // Open, compute, then one warm-up op: for edits, the first edit block
  // (the first edit promotes the computed store to the delta engine).
  void SetUpOnce() {
    config_ = Open(xml_, "set-up open");
    if (w_.op == OpKind::kOpen) return;
    Compute(&config_, "set-up compute");
    switch (w_.op) {
      case OpKind::kSave:
      case OpKind::kReopen:
        saved_ = cardir::ConfigurationToXml(config_);
        saved_hash_ = bench::Fnv1a(saved_.data(), saved_.size());
        if (w_.op == OpKind::kReopen) Open(saved_, "set-up reopen");
        break;
      case OpKind::kEdit:
        for (int e = 0; e < bench::kEditBlock; ++e) {
          if (!Apply(config_, edits_[static_cast<size_t>(e)]).ok()) {
            Fatal("set-up edit failed");
          }
        }
        break;
      case OpKind::kQuery:
      case OpKind::kRelated: {
        if (!Apply(config_, edits_[0]).ok()) Fatal("set-up edit failed");
        const std::string anchor = config_.regions()[0].id;
        const bool ok =
            w_.op == OpKind::kQuery ? Query(anchor).ok() : Related(anchor).ok();
        if (!ok) Fatal("set-up read failed");
        break;
      }
      default:
        break;
    }
  }

  Result<std::vector<std::string>> Related(const std::string& anchor) {
    Result<DirectionalIndex> index = [&] {
      Span span(&tracer_, "index.build", op_id_);
      return DirectionalIndex::Build(config_);
    }();
    if (!index.ok()) return index.status();
    Span span(&tracer_, "index.find", op_id_);
    return index->FindMatching(anchor, directions_);
  }

  // ---- The timed phase ---------------------------------------------------

  // Runs one of the workload's ops under the closed loop's clock. In a
  // traced run every other op is traced (spans plus a counter diff), so the
  // untraced ones measure the tracing overhead in the same process.
  template <typename Fn>
  void Timed(Fn&& fn) {
    ++op_id_;
    const bool traced = args_.trace && ++primary_ops_ % 2 == 0;
    tracer_.SetEnabled(traced);
    const Counters before = traced ? ReadCounters() : Counters{};
    const uint64_t start = NowNs();
    {
      Span span(&tracer_, w_.op_span, op_id_);
      fn(traced);
    }
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    if (traced) Record(true, -1, ms, before);
    tracer_.SetEnabled(false);
    (traced ? traced_ms_ : op_ms_).push_back(ms);
    timed_s_ += ms / 1e3;
    ++attempted_;
  }

  void Record(bool primary, int edit_kind, double ms, const Counters& before) {
    OpRecord record;
    record.primary = primary;
    record.edit_kind = edit_kind;
    record.ms = ms;
    const Counters after = ReadCounters();
    for (size_t i = 0; i < kNumCounters; ++i) {
      record.delta[i] = after[i] - before[i];
    }
    records_.push_back(record);
  }

  void Measure() {
    const uint64_t wall_start = NowNs();
    auto wall_s = [&] { return static_cast<double>(NowNs() - wall_start) / 1e9; };
    while (timed_s_ < args_.seconds && wall_s() < 4.0 * args_.seconds + 10.0) {
      switch (w_.op) {
        case OpKind::kOpen: OpOpen(xml_); break;
        case OpKind::kCompute: OpCompute(); break;
        case OpKind::kSave: OpSave(); break;
        case OpKind::kReopen: OpOpen(saved_); break;
        case OpKind::kEdit: OpEditSession(); break;
        case OpKind::kQuery:
        case OpKind::kRelated:
          if (next_read_ + bench::kReadBlock > anchors_.size()) {
            return Exhausted();
          }
          OpReadBlock();
          for (int e = 0; e < kEditsPerReadBlock; ++e) InterleavedEdit();
          break;
      }
    }
  }

  void Exhausted() {
    std::fprintf(stderr, "cardir_e2e: script exhausted after %.2f s\n", timed_s_);
  }

  void Fail(const std::string& what) {
    if (failed_ < 5) std::fprintf(stderr, "cardir_e2e: FAILED %s\n", what.c_str());
    ++failed_;
  }

  // Runs `check` as verification time, outside every op span.
  bool Verify(const std::function<bool()>& check) {
    const uint64_t start = NowNs();
    const bool ok = check();
    verify_s_ += static_cast<double>(NowNs() - start) / 1e9;
    return ok;
  }

  void OpOpen(const std::string& xml) {
    last_opened_ = Configuration();  // Not held while the next one builds.
    Result<Configuration> opened = Status::Internal("not run");
    Timed([&](bool) {
      Span span(&tracer_, "model.from_xml", op_id_);
      opened = cardir::ConfigurationFromXml(xml);
    });
    if (!opened.ok()) return Fail("open: " + opened.status().ToString());
    const size_t expected_relations =
        w_.op == OpKind::kReopen ? PairCount() : 0;
    if (opened->regions().size() != set_.regions.size() ||
        opened->relation_count() != expected_relations) {
      Fail("open: wrong region or relation count");
    }
    last_opened_ = std::move(*opened);
  }

  void OpCompute() {
    Status status;
    Timed([&](bool) {
      Span span(&tracer_, "model.compute", op_id_);
      status = config_.ComputeAllRelations();
    });
    if (!status.ok()) return Fail("compute: " + status.ToString());
    const size_t overlay = config_.relation_store()->overlay_pairs();
    if (overlay_pairs_ == 0) overlay_pairs_ = overlay;
    if (config_.relation_count() != PairCount() || overlay != overlay_pairs_) {
      Fail("compute: relation count or overlay pairs changed");
    }
  }

  void OpSave() {
    std::string text;
    Timed([&](bool) {
      Span span(&tracer_, "model.to_xml", op_id_);
      text = cardir::ConfigurationToXml(config_);
    });
    if (!Verify([&] {
          return bench::Fnv1a(text.data(), text.size()) == saved_hash_;
        })) {
      Fail("save: document differs from the first save");
    }
  }

  // One scripted edit, timed on its own inside whatever op runs it.
  Status ApplyEdit(const EditOp& op, bool traced) {
    const auto kind = static_cast<int>(op.kind);
    const Counters before = traced ? ReadCounters() : Counters{};
    const uint64_t start = NowNs();
    Status status;
    {
      Span span(&tracer_, kEditSpans[kind], op_id_);
      status = Apply(config_, op);
    }
    const double ms = static_cast<double>(NowNs() - start) / 1e6;
    edit_ms_[static_cast<size_t>(kind)].push_back(ms);
    if (traced) Record(false, kind, ms, before);
    return status;
  }

  // The edit workload's op: an editing session of kEditSession script edits,
  // replayed each time from the set-up state. Every op then does the same
  // work, wear of the store included, however many ran before it. The
  // set-up state is kept as a copy, which peak_rss_mib counts too.
  void OpEditSession() {
    config_ = snapshot_;
    std::array<Status, kEditSession> statuses;
    Timed([&](bool traced) {
      for (size_t e = 0; e < statuses.size(); ++e) {
        statuses[e] = ApplyEdit(edits_[bench::kEditBlock + e], traced);
      }
    });
    for (size_t e = 0; e < statuses.size(); ++e) {
      const EditOp& op = edits_[bench::kEditBlock + e];
      if (!statuses[e].ok()) {
        Fail("edit " + op.id + ": " + statuses[e].ToString());
      } else {
        EditVerified(op);
      }
    }
  }

  // A read run's edit, between two reads; not one of the workload's ops.
  void InterleavedEdit() {
    if (next_edit_ >= edits_.size()) return;
    const EditOp& op = edits_[next_edit_++];
    ++op_id_;
    const bool traced = args_.trace && ++interleaved_edits_ % 2 == 0;
    tracer_.SetEnabled(traced);
    const Status status = ApplyEdit(op, traced);
    tracer_.SetEnabled(false);
    ++attempted_;
    if (!status.ok()) return Fail("edit " + op.id + ": " + status.ToString());
    EditVerified(op);
  }

  void EditVerified(const EditOp& op) {
    if (op.kind == EditOp::Kind::kAddPolygon) ++edit_counts_[op.id];
    if (!Verify([&] { return CheckEdit(op); })) {
      Fail("edit " + op.id + ": partner pair differs from ComputeCdr");
    }
  }

  Result<cardir::QueryResult> Query(const std::string& anchor) {
    Result<cardir::Query> query = [&] {
      Span span(&tracer_, "query.parse", op_id_);
      return cardir::Query::Parse(QueryText(anchor));
    }();
    if (!query.ok()) return query.status();
    Span span(&tracer_, "query.eval", op_id_);
    return cardir::EvaluateQuery(config_, *query);
  }

  // The read workloads' op: one block of kReadBlock anchored reads, each a
  // query (map_query) or a related call (map_related).
  void OpReadBlock() {
    std::vector<std::string> anchors;
    for (int r = 0; r < bench::kReadBlock; ++r) {
      const auto& regions = config_.regions();
      anchors.push_back(regions[anchors_[next_read_++] % regions.size()].id);
    }
    std::vector<Result<cardir::QueryResult>> rows;
    std::vector<Result<std::vector<std::string>>> related;
    bool traced = false;
    Timed([&](bool traced_op) {
      traced = traced_op;
      for (const std::string& anchor : anchors) {
        if (w_.op == OpKind::kQuery) {
          rows.push_back(Query(anchor));
        } else {
          related.push_back(Related(anchor));
        }
      }
    });
    if (traced && w_.op == OpKind::kQuery) {
      // Both variables bind by unary filters: y to the anchor, x to red.
      query_bindings_ += static_cast<double>(config_.RegionsByColor("red").size() *
                                             anchors.size());
      for (const auto& result : rows) {
        if (result.ok()) query_rows_ += static_cast<double>(result->rows.size());
      }
    }
    for (size_t r = 0; r < anchors.size(); ++r) {
      const std::string& anchor = anchors[r];
      if (w_.op == OpKind::kQuery) {
        if (!rows[r].ok()) {
          Fail("query: " + rows[r].status().ToString());
        } else if (!Verify([&] { return CheckQuery(anchor, *rows[r]); })) {
          Fail("query " + anchor + ": rows differ from related");
        }
      } else if (!related[r].ok()) {
        Fail("related: " + related[r].status().ToString());
      } else if (r % kRelatedCheckEvery == 0 &&
                 !Verify([&] { return CheckRelated(anchor, *related[r]); })) {
        Fail("related " + anchor + ": differs from the store");
      }
    }
  }

  size_t PairCount() const {
    const size_t n = set_.regions.size();
    return n * (n - 1);
  }

  // ---- Oracles -----------------------------------------------------------

  // After an edit: the edited region against four partners, both
  // directions (grid neighbours for a grown region, random otherwise; a
  // random region when the edited one is gone).
  bool CheckEdit(const EditOp& op) {
    const size_t n = config_.regions().size();
    const RelationStore& store = *config_.relation_store();
    size_t k = op.kind == EditOp::Kind::kRemoveRegion ? n : IndexOf(config_, op.id);
    std::vector<size_t> partners;
    if (k < n && op.kind == EditOp::Kind::kAddPolygon) {
      for (const size_t j : {k - 1, k + 1, k - grid_, k + grid_}) {
        if (j < n && j != k) partners.push_back(j);
      }
    }
    if (k >= n) k = oracle_rng_.Below(n);
    while (partners.size() < 4) {
      const size_t j = oracle_rng_.Below(n);
      if (j != k) partners.push_back(j);
    }
    for (const size_t j : partners) {
      if (!PairMatches(config_, store, k, j) || !PairMatches(config_, store, j, k)) {
        return false;
      }
    }
    return true;
  }

  // Each query row (x, anchor) is exactly a red region that `related`
  // returns for the anchor.
  bool CheckQuery(const std::string& anchor, const cardir::QueryResult& result) {
    const Result<std::vector<std::string>> related = Related(anchor);
    if (!related.ok()) return false;
    std::unordered_set<std::string> red;
    for (const AnnotatedRegion* region : config_.RegionsByColor("red")) {
      red.insert(region->id);
    }
    std::vector<std::string> expected;
    for (const std::string& id : *related) {
      if (red.count(id) != 0) expected.push_back(id);
    }
    std::vector<std::string> actual;
    for (const cardir::QueryRow& row : result.rows) {
      if (row.region_ids.size() != 2 || row.region_ids[1] != anchor) return false;
      actual.push_back(row.region_ids[0]);
    }
    std::sort(expected.begin(), expected.end());
    std::sort(actual.begin(), actual.end());
    return expected == actual;
  }

  // `related` equals a scan of the anchor's column in the relation store.
  bool CheckRelated(const std::string& anchor, std::vector<std::string> ids) {
    const RelationStore& store = *config_.relation_store();
    const size_t a = IndexOf(config_, anchor);
    const auto& regions = config_.regions();
    std::vector<std::string> expected;
    for (size_t x = 0; x < regions.size(); ++x) {
      if (x != a && directions_.Contains(store.Relation(x, a))) {
        expected.push_back(regions[x].id);
      }
    }
    std::sort(expected.begin(), expected.end());
    std::sort(ids.begin(), ids.end());
    return expected == ids;
  }

  void VerifyEnd() {
    if (op_ms_.empty() && traced_ms_.empty()) Fail("no operation completed");
    // The configuration whose relations are sampled.
    Configuration* checked = &config_;
    if (w_.op == OpKind::kOpen || w_.op == OpKind::kReopen) {
      if (!OpenedMatchesInput()) Fail("open: configuration differs from the input");
      if (w_.op == OpKind::kReopen && !ReopenedMatchesComputed()) {
        Fail("reopen: relations differ from the computed store");
      }
      if (w_.op == OpKind::kOpen) {
        Compute(&last_opened_, "verify compute");
        checked = &last_opened_;
      }
    }
    if (w_.op == OpKind::kSave) {
      last_opened_ = Open(saved_, "verify reopen");
      if (!ReopenedMatchesComputed()) Fail("save: reopened relations differ");
    }
    const RelationStore& store = *checked->relation_store();
    const size_t n = checked->regions().size();
    for (int p = 0; n >= 2 && p < kSampledPairs; ++p) {
      const size_t i = oracle_rng_.Below(n);
      const size_t j = oracle_rng_.Below(n);
      if (i != j && !PairMatches(*checked, store, i, j)) {
        Fail("sampled pair differs from ComputeCdr");
        break;
      }
    }
    if (w_.op == OpKind::kEdit && !MaintainedMatchesFresh()) {
      Fail("edit: maintained store differs from a fresh compute");
    }
  }

  // Every region of the last opened configuration carries the generated
  // id, colour and vertices (rings are generated clockwise, so opening
  // leaves them as they are).
  bool OpenedMatchesInput() const {
    const auto& regions = last_opened_.regions();
    if (regions.size() != set_.regions.size()) return false;
    for (size_t i = 0; i < regions.size(); ++i) {
      const bench::InputRegion& input = set_.regions[i];
      const auto& polygons = regions[i].geometry.polygons();
      if (regions[i].id != input.id || regions[i].color != input.color ||
          polygons.size() != 1 || polygons[0].size() != input.ring.size()) {
        return false;
      }
      for (size_t v = 0; v < input.ring.size(); ++v) {
        if (polygons[0].vertex(v) != cardir::Point(input.ring[v].x, input.ring[v].y)) {
          return false;
        }
      }
    }
    return true;
  }

  // The reopened <Relation> records equal the computed store pair by pair.
  bool ReopenedMatchesComputed() const {
    const auto& records = last_opened_.relations();
    if (records.size() != config_.relation_count()) return false;
    size_t k = 0;
    bool same = true;
    config_.ForEachRelation([&](const std::string& primary,
                                const std::string& reference,
                                const CardinalRelation& relation) {
      const cardir::RelationRecord& record = records[k++];
      same = same && record.primary_id == primary &&
             record.reference_id == reference && record.relation == relation;
    });
    return same;
  }

  // The delta-maintained store against a fresh sweep over the current
  // geometries: random pairs plus the whole rows of the most-edited regions.
  bool MaintainedMatchesFresh() {
    std::vector<const cardir::Region*> geometries;
    for (const AnnotatedRegion& region : config_.regions()) {
      geometries.push_back(&region.geometry);
    }
    const Result<RelationStore> fresh = cardir::ComputeRelationStore(geometries);
    if (!fresh.ok()) return false;
    const RelationStore& live = *config_.relation_store();
    const size_t n = geometries.size();
    for (int p = 0; p < kFreshPairs; ++p) {
      const size_t i = oracle_rng_.Below(n);
      const size_t j = oracle_rng_.Below(n);
      if (i != j && fresh->Relation(i, j) != live.Relation(i, j)) return false;
    }
    std::vector<std::pair<int, std::string>> ranked;
    for (const auto& [id, count] : edit_counts_) ranked.emplace_back(-count, id);
    std::sort(ranked.begin(), ranked.end());
    ranked.resize(std::min(ranked.size(), kMostEditedRows));
    for (const auto& entry : ranked) {
      const size_t row = IndexOf(config_, entry.second);
      if (row >= n) continue;  // Removed after its last edit.
      std::vector<uint16_t> a, b;
      fresh->ForEachInRow(row, [&](size_t, const CardinalRelation& r) {
        a.push_back(r.mask());
      });
      live.ForEachInRow(row, [&](size_t, const CardinalRelation& r) {
        b.push_back(r.mask());
      });
      if (a != b) return false;
    }
    return true;
  }

  // ---- Probes (traced runs only, outside every op span) -------------------

  // Median ns per RelationStore::Relation call over 10k random pairs, timed
  // in batches of 100.
  double ProbeStoreRelationNs() {
    const RelationStore* store = config_.relation_store();
    if (store == nullptr) return 0.0;
    Span span(&tracer_, "probe.store_relation", 0);
    const size_t n = store->regions();
    std::vector<double> batches;
    volatile uint16_t sink = 0;  // Keeps the lookups from being elided.
    for (int b = 0; b < 100; ++b) {
      std::vector<std::pair<size_t, size_t>> pairs;
      while (pairs.size() < 100) {
        const size_t i = oracle_rng_.Below(n), j = oracle_rng_.Below(n);
        if (i != j) pairs.emplace_back(i, j);
      }
      const uint64_t start = NowNs();
      for (const auto& [i, j] : pairs) {
        sink = static_cast<uint16_t>(sink ^ store->Relation(i, j).mask());
      }
      batches.push_back(static_cast<double>(NowNs() - start) / 100.0);
    }
    return Median(batches);
  }

  void Probe() {
    patched_relation_ns_ = ProbeStoreRelationNs();
    const RelationStore* store = config_.relation_store();
    if (store == nullptr) return;
    const auto& regions = config_.regions();
    const size_t n = regions.size();
    {
      Span span(&tracer_, "probe.stored_relation", 0);
      std::vector<double> us;
      for (int p = 0; p < 1000; ++p) {
        const size_t i = oracle_rng_.Below(n), j = oracle_rng_.Below(n);
        const uint64_t start = NowNs();
        const auto relation = config_.StoredRelation(regions[i].id, regions[j].id);
        us.push_back(static_cast<double>(NowNs() - start) / 1e3);
        if (i != j && !relation.has_value()) Fail("StoredRelation missing a pair");
      }
      stored_relation_us_ = Median(us);
    }
    {
      Span span(&tracer_, "probe.compute_cdr", 0);
      std::vector<double> us;
      for (int attempt = 0; attempt < 1000000 && us.size() < 1000; ++attempt) {
        const size_t i = oracle_rng_.Below(n), j = oracle_rng_.Below(n);
        if (i == j || !store->IsExplicit(i, j)) continue;
        const uint64_t start = NowNs();
        const bool ok =
            cardir::ComputeCdr(regions[i].geometry, regions[j].geometry).ok();
        us.push_back(static_cast<double>(NowNs() - start) / 1e3);
        if (!ok) Fail("ComputeCdr probe failed");
      }
      compute_cdr_us_ = Median(us);
    }
  }

  // ---- Metrics -----------------------------------------------------------

  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples});
  }

  void EndToEndMetrics() {
    Add("setup_s", Median(setup_s_), "s", setup_s_.size());
    Add("op_ms_min", Min(op_ms_), "ms", op_ms_.size());
    Add("peak_rss_mib", peak_rss_mib_, "MiB", 1);
  }

  // One value per traced record that `keep` selects.
  std::vector<double> Each(const std::function<bool(const OpRecord&)>& keep,
                           const std::function<double(const OpRecord&)>& value) const {
    std::vector<double> out;
    for (const OpRecord& record : records_) {
      if (keep(record)) out.push_back(value(record));
    }
    return out;
  }

  void PerLayerMetrics() {
    using R = const OpRecord&;
    auto counter = [](Counter c) { return [c](R r) { return r.delta[c]; }; };
    // The library-timed part of a record subtracted from its latency.
    auto self_ms = [](Counter inner_us) {
      return [inner_us](R r) { return r.ms - r.delta[inner_us] / 1e3; };
    };
    // The workload's own ops, when they are of the given kind.
    auto primary_if = [](bool kind) { return [kind](R r) { return kind && r.primary; }; };
    auto primary = [](R r) { return r.primary; };
    auto edit = [](R r) { return r.edit_kind >= 0; };
    auto edit_of = [](int kind) { return [kind](R r) { return r.edit_kind == kind; }; };
    const auto opens = primary_if(w_.op == OpKind::kOpen || w_.op == OpKind::kReopen);
    const auto computes = primary_if(w_.op == OpKind::kCompute);
    const auto saves = primary_if(w_.op == OpKind::kSave);
    const auto related = primary_if(w_.op == OpKind::kRelated);

    // Span durations and self times by name.
    std::map<std::string, std::vector<double>> span_ms;
    std::map<std::string, double> self_total_ms;
    const std::vector<uint64_t> self = tracer_.SelfNs();
    for (size_t i = 0; i < tracer_.spans().size(); ++i) {
      const bench::SpanRecord& s = tracer_.spans()[i];
      span_ms[s.name].push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      self_total_ms[s.name] += static_cast<double>(self[i]) / 1e6;
    }
    for (const auto& [name, ms] : span_ms) {
      std::printf("span %-22s n=%-6zu total_ms=%.3f self_ms=%.3f\n", name.c_str(),
                  ms.size(), Sum(ms), self_total_ms[name]);
    }

    // xml
    const auto parse_us = Each(opens, counter(kParseUs));
    const auto bytes_in = Each(opens, counter(kParseBytes));
    Add("xml.parse_ms", Median(parse_us) / 1e3, "ms", parse_us.size());
    Add("xml.parse_mb_per_s", Ratio(Sum(bytes_in), Sum(parse_us)), "MB/s",
        parse_us.size());
    Add("xml.bytes_in", Median(bytes_in), "bytes", bytes_in.size());
    const auto serialize_us = Each(saves, counter(kSerializeUs));
    Add("xml.serialize_ms", Median(serialize_us) / 1e3, "ms", serialize_us.size());
    Add("xml.bytes_out", Median(Each(saves, counter(kSerializeBytes))), "bytes",
        serialize_us.size());

    // model
    const auto from_xml_self = Each(opens, self_ms(kParseUs));
    const auto to_xml_self = Each(saves, self_ms(kSerializeUs));
    const auto compute_self = Each(computes, self_ms(kSweepUs));
    Add("model.from_xml_self_ms", Median(from_xml_self), "ms", from_xml_self.size());
    Add("model.to_xml_self_ms", Median(to_xml_self), "ms", to_xml_self.size());
    Add("model.compute_self_ms", Median(compute_self), "ms", compute_self.size());
    for (int k = 0; k < 3; ++k) {
      // Every timed edit, traced or not: its spans cost nothing beside it.
      const std::vector<double>& ms = edit_ms_[static_cast<size_t>(k)];
      const std::string name = std::string("model.") + kEditNames[k] + "_ms";
      Add(name + "_p50", Median(ms), "ms", ms.size());
      Add(name + "_p99", Quantile(ms, 0.99), "ms", ms.size());
    }
    const auto edit_self = Each(edit, self_ms(kApplyUs));
    Add("model.edit_self_ms_p50", Median(edit_self), "ms", edit_self.size());
    Add("model.stored_relation_us_p50", stored_relation_us_, "us", 1000);

    // engine.sweep
    const auto sweep_us = Each(computes, counter(kSweepUs));
    const auto runs = static_cast<double>(sweep_us.size());
    const double candidates = Sum(Each(computes, counter(kCandidates)));
    const double crossing = Sum(Each(computes, counter(kCrossing)));
    const double prefiltered = Sum(Each(computes, counter(kPrefiltered)));
    Add("engine.sweep_ms", Median(sweep_us) / 1e3, "ms", sweep_us.size());
    Add("engine.sweep.candidates", Ratio(candidates, runs), "count", sweep_us.size());
    Add("engine.pairs.crossing", Ratio(crossing, runs), "count", sweep_us.size());
    Add("engine.pairs.computed",
        Ratio(Sum(Each(computes, counter(kComputed))), runs), "count",
        sweep_us.size());
    Add("engine.pairs.prefiltered", Ratio(prefiltered, runs), "count", sweep_us.size());
    Add("engine.implicit_ratio",
        Ratio(prefiltered, Sum(Each(computes, counter(kTotalPairs)))), "ratio",
        sweep_us.size());
    Add("engine.candidate_yield", Ratio(crossing, candidates), "ratio", sweep_us.size());
    const cardir::DeltaEngine* delta = config_.delta_engine();
    const RelationStore* store = config_.relation_store();
    Add("engine.store_bytes",
        static_cast<double>(delta != nullptr   ? delta->bytes()
                            : store != nullptr ? store->bytes()
                                               : 0),
        "bytes", 1);

    // engine.delta
    const char* delta_metrics[] = {"delta.move_ms", "delta.insert_ms",
                                   "delta.remove_ms"};
    for (int k = 0; k < 3; ++k) {
      const auto apply = Each(edit_of(k), [](R r) { return r.delta[kApplyUs] / 1e3; });
      const std::string name = delta_metrics[k];
      Add(name + "_p50", Median(apply), "ms", apply.size());
      Add(name + "_p99", Quantile(apply, 0.99), "ms", apply.size());
    }
    const auto reresolved = Each(edit, counter(kReresolved));
    const auto implicit = Each(edit, counter(kImplicit));
    Add("delta.pairs_reresolved_per_edit", Mean(reresolved), "count", reresolved.size());
    Add("delta.pairs_implicit_per_edit", Mean(implicit), "count", implicit.size());
    Add("delta.reresolve_yield",
        Ratio(Sum(reresolved), Sum(reresolved) + Sum(implicit)), "ratio",
        reresolved.size());

    // engine.store
    Add("store.relation_ns_p50_fresh", fresh_relation_ns_, "ns", 100);
    Add("store.relation_ns_p50_patched", patched_relation_ns_, "ns", 100);
    Add("store.overlay_pairs",
        static_cast<double>(store != nullptr ? store->overlay_pairs() : 0), "count", 1);

    // core, per op of the workload
    const auto cdr_runs = Each(primary, counter(kCdrRuns));
    const auto edges_in = Each(primary, counter(kEdgesInput));
    const auto edges_split = Each(primary, counter(kEdgesSplit));
    Add("core.cdr.runs", Mean(cdr_runs), "count", cdr_runs.size());
    Add("core.edges.input", Mean(edges_in), "count", edges_in.size());
    Add("core.edges.split", Mean(edges_split), "count", edges_split.size());
    Add("core.pip_tests", Mean(Each(primary, counter(kPipTests))), "count",
        cdr_runs.size());
    Add("core.split_ratio", Ratio(Sum(edges_split), Sum(edges_in)), "ratio",
        cdr_runs.size());
    Add("core.compute_cdr_us_p50", compute_cdr_us_, "us", 1000);

    // query, per query (a traced block holds kReadBlock of them)
    const auto& parse = span_ms["query.parse"];
    const auto& eval = span_ms["query.eval"];
    const auto queried = static_cast<double>(eval.size());
    Add("query.parse_us_p50", Median(parse) * 1e3, "us", parse.size());
    Add("query.eval_ms_p50", Median(eval), "ms", eval.size());
    Add("query.eval_ms_p99", Quantile(eval, 0.99), "ms", eval.size());
    Add("query.bindings_per_query", Ratio(query_bindings_, queried), "count",
        eval.size());
    Add("query.rows_per_query", Ratio(query_rows_, queried), "count", eval.size());
    Add("query.yield", Ratio(query_rows_, query_bindings_), "ratio", eval.size());

    // index, per related call
    const auto& build = span_ms["index.build"];
    const auto& find = span_ms["index.find"];
    const auto finds = static_cast<double>(find.size());
    const double refined = Sum(Each(related, counter(kIndexRefined)));
    const double results = Sum(Each(related, counter(kIndexResults)));
    Add("index.build_ms_p50", Median(build), "ms", build.size());
    Add("index.find_ms_p50", Median(find), "ms", find.size());
    Add("index.find_ms_p99", Quantile(find, 0.99), "ms", find.size());
    Add("index.candidates_per_query",
        Ratio(Sum(Each(related, counter(kIndexCandidates))), finds), "count",
        find.size());
    Add("index.refined_per_query", Ratio(refined, finds), "count", find.size());
    Add("index.results_per_query", Ratio(results, finds), "count", find.size());
    Add("index.rtree.nodes_visited_per_query",
        Ratio(Sum(Each(related, counter(kRtreeNodes))), finds), "count",
        find.size());
    Add("index.refine_yield", Ratio(results, refined), "ratio", find.size());

    // The workload's untraced ops beyond their fastest: op_ms_min misses a
    // cost that only some ops pay.
    Add("op_ms_p50", Median(op_ms_), "ms", op_ms_.size());
    Add("op_ms_max", Max(op_ms_), "ms", op_ms_.size());

    // bench: fastest traced against fastest untraced op, as op_ms_min is.
    const double untraced = Min(op_ms_);
    Add("bench.trace_overhead_pct",
        untraced > 0 ? (Min(traced_ms_) / untraced - 1.0) * 100.0 : 0.0, "%",
        traced_ms_.size());
    Add("bench.verify_s", verify_s_, "s", 1);
  }

  void Print() const {
    if (!args_.trace) {
      double busy_s = 0;
      for (double ms : op_ms_) busy_s += ms / 1e3;
      std::printf("op_ms_p50 %.6g ms n=%zu\n", Median(op_ms_), op_ms_.size());
      // The slowest percentile the run supports: ten samples beyond it.
      for (const double q : {0.999, 0.99, 0.9}) {
        if (static_cast<double>(op_ms_.size()) * (1.0 - q) >= 10.0) {
          std::printf("op_ms_p%g %.6g ms n=%zu\n", q * 100, Quantile(op_ms_, q),
                      op_ms_.size());
          break;
        }
      }
      std::printf("ops_per_s %.6g 1/s n=%zu\n",
                  Ratio(static_cast<double>(op_ms_.size()), busy_s), op_ms_.size());
      for (size_t k = 0; k < edit_ms_.size(); ++k) {
        const std::vector<double>& ms = edit_ms_[k];
        if (ms.empty()) continue;
        std::printf("edit.%s_ms_p50 %.6g ms n=%zu\n", kEditNames[k], Median(ms),
                    ms.size());
        if (ms.size() >= 1000) {
          std::printf("edit.%s_ms_p99 %.6g ms n=%zu\n", kEditNames[k],
                      Quantile(ms, 0.99), ms.size());
        }
      }
    }
    for (const Metric& m : metrics_) {
      std::printf("metric %-36s %-14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    }
    std::printf("error_rate %.6g (%zu/%zu) verify_s %.3f\n",
                Ratio(static_cast<double>(failed_), static_cast<double>(attempted_)),
                failed_, attempted_, verify_s_);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                failed_ == 0 ? "true" : "false", attempted_, failed_);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
  }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };

  const Args args_;
  const Workload& w_;
  const Sizes sizes_;
  Rng oracle_rng_;
  const DisjunctiveRelation directions_;
  bench::Tracer tracer_;

  // Inputs.
  bench::RegionSet set_;
  std::string xml_;
  std::vector<EditOp> edits_;
  std::vector<size_t> anchors_;
  size_t grid_ = 0;

  // Live state.
  Configuration config_;
  Configuration snapshot_;  // map_edit: the state every session starts from.
  Configuration last_opened_;
  std::string saved_;
  uint64_t saved_hash_ = 0;
  size_t next_edit_ = 0;
  size_t next_read_ = 0;
  size_t overlay_pairs_ = 0;
  std::unordered_map<std::string, int> edit_counts_;

  // Measurements.
  uint32_t op_id_ = 0;
  uint32_t primary_ops_ = 0;
  uint32_t interleaved_edits_ = 0;
  std::vector<double> setup_s_;
  double timed_s_ = 0;
  double verify_s_ = 0;
  double peak_rss_mib_ = 0;
  std::vector<double> op_ms_;      // Untraced ops of the workload.
  std::vector<double> traced_ms_;  // Traced ops (--trace only).
  std::array<std::vector<double>, 3> edit_ms_;  // By EditOp::Kind.
  std::vector<OpRecord> records_;
  double query_bindings_ = 0;  // Over traced query blocks.
  double query_rows_ = 0;
  double fresh_relation_ns_ = 0;
  double patched_relation_ns_ = 0;
  double stored_relation_us_ = 0;
  double compute_cdr_us_ = 0;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<Metric> metrics_;
};

}  // namespace

int main(int argc, char** argv) {
  // Freed memory stays in the process (no trimming, no per-block mmap), so
  // a timed op reuses pages earlier ops faulted in. Otherwise a large save
  // or reopen faults tens of MB in again each time, and the time the host
  // takes to serve those faults swung save latency by up to 60% between
  // minutes on a shared VM.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, -1);
  const Args args = ParseArgs(argc, argv);
  return Benchmark(args).Run();
}
