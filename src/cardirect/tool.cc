#include "cardirect/tool.h"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cardirect/constraint_file.h"
#include "cardirect/query.h"
#include "cardirect/xml.h"
#include "engine/parallel_for.h"
#include "geometry/wkt.h"
#include "index/directional_query.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "reasoning/tables.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace cardir {
namespace {

constexpr const char* kUsage =
    "usage: cardirect [--stats[=json|prom]] [--trace-out=FILE] "
    "[--flight-record=FILE] [--profile=FILE] <command> [args]\n"
    "  --stats[=FORMAT]   after the command, print the metric counters the\n"
    "                     run incremented (table, json, or prom[etheus])\n"
    "  --trace-out=FILE   record trace spans and write Chrome trace_event\n"
    "                     JSON to FILE (open in chrome://tracing/Perfetto)\n"
    "  --flight-record=FILE\n"
    "                     keep a ring of recent engine events and write it\n"
    "                     (plus a metrics snapshot) to FILE on crash\n"
    "                     (SIGSEGV/SIGABRT/SIGBUS) or on clean exit\n"
    "  --profile=FILE     sample wall-clock stacks while the command runs\n"
    "                     and write collapsed (flamegraph) lines to FILE\n"
    "  --profile-hz=N     sampling rate for --profile (default 97); a run\n"
    "                     under ~1 s needs a higher rate, such as 997\n"
    "  create <out.xml> [name] [image]      start an empty configuration\n"
    "  add-region <xml> <id> <color> <x,y> <x,y> <x,y>...\n"
    "                                       annotate a polygon region\n"
    "  add-polygon <xml> <id> <x,y>...      extend a region (REG*)\n"
    "  add-wkt <xml> <id> <color> <wkt>     annotate a region from WKT\n"
    "  export-wkt <xml> <id>                print a region as WKT\n"
    "  remove-region <xml> <id>             delete a region\n"
    "  show <config.xml>                    list regions and stored relations\n"
    "  relations <config.xml> [out.xml] [--threads N]\n"
    "                                       compute all pairwise relations\n"
    "                                       on the batch engine (N=0 uses\n"
    "                                       all hardware threads); prints\n"
    "                                       them, or saves them to out.xml\n"
    "  percent <config.xml> <primary> <ref> percentage matrix\n"
    "  related <config.xml> <ref-id> <rel>  regions related to <ref-id> by\n"
    "                                       the (disjunctive) relation,\n"
    "                                       computed from the geometry\n"
    "  query <config.xml> <query>           evaluate a query, e.g.\n"
    "      '(a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b'\n"
    "                                       direction atoms are decided from\n"
    "                                       the geometry; stored <Relation>\n"
    "                                       records are not read\n"
    "  validate <config.xml>                strict geometry validation\n"
    "  demo <out.xml>                       write a sample configuration\n"
    "  check <constraints.txt>              decide consistency of a\n"
    "                                       cardinal-direction constraint\n"
    "                                       network (at most 32 variables);\n"
    "                                       prints a model\n"
    "  tables                               print the reasoning tables\n";
static_assert(kMaxConstraintVariables == 32,
              "the check line of kUsage states the variable limit");

int Fail(std::ostream& err, const Status& status) {
  err << "cardirect: " << status << "\n";
  return 1;
}

// Parses "x,y" vertex arguments into a polygon ring.
Result<Polygon> ParseVertexArgs(const std::vector<std::string>& args,
                                size_t first) {
  Polygon polygon;
  for (size_t i = first; i < args.size(); ++i) {
    const std::vector<std::string> pieces = StrSplit(args[i], ',');
    if (pieces.size() != 2) {
      return Status::ParseError("vertex '" + args[i] +
                                "' is not of the form x,y");
    }
    CARDIR_ASSIGN_OR_RETURN(double x, ParseDouble(pieces[0]));
    CARDIR_ASSIGN_OR_RETURN(double y, ParseDouble(pieces[1]));
    polygon.AddVertex(Point(x, y));
  }
  if (polygon.size() < 3) {
    return Status::ParseError("a polygon needs at least 3 vertices");
  }
  return polygon;
}

int CmdCreate(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  Configuration config(args.size() > 2 ? args[2] : "untitled",
                       args.size() > 3 ? args[3] : "");
  const Status status = SaveConfiguration(config, args[1]);
  if (!status.ok()) return Fail(err, status);
  out << "created " << args[1] << "\n";
  return 0;
}

int CmdAddRegion(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(args[1]);
  if (!config.ok()) return Fail(err, config.status());
  Result<Polygon> polygon = ParseVertexArgs(args, 4);
  if (!polygon.ok()) return Fail(err, polygon.status());
  AnnotatedRegion region;
  region.id = args[2];
  region.name = args[2];
  region.color = args[3];
  region.geometry.AddPolygon(*std::move(polygon));
  Status status = config->AddRegion(std::move(region));
  if (!status.ok()) return Fail(err, status);
  status = SaveConfiguration(*config, args[1]);
  if (!status.ok()) return Fail(err, status);
  out << "added region " << args[2] << "\n";
  return 0;
}

int CmdAddPolygon(const std::vector<std::string>& args, std::ostream& out,
                  std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(args[1]);
  if (!config.ok()) return Fail(err, config.status());
  Result<Polygon> polygon = ParseVertexArgs(args, 3);
  if (!polygon.ok()) return Fail(err, polygon.status());
  Status status = config->AddPolygonToRegion(args[2], *std::move(polygon));
  if (!status.ok()) return Fail(err, status);
  status = SaveConfiguration(*config, args[1]);
  if (!status.ok()) return Fail(err, status);
  out << "extended region " << args[2] << "\n";
  return 0;
}

int CmdAddWkt(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(args[1]);
  if (!config.ok()) return Fail(err, config.status());
  Result<Region> geometry = RegionFromWkt(args[4]);
  if (!geometry.ok()) return Fail(err, geometry.status());
  AnnotatedRegion region;
  region.id = args[2];
  region.name = args[2];
  region.color = args[3];
  region.geometry = *std::move(geometry);
  Status status = config->AddRegion(std::move(region));
  if (!status.ok()) return Fail(err, status);
  status = SaveConfiguration(*config, args[1]);
  if (!status.ok()) return Fail(err, status);
  out << "added region " << args[2] << " from WKT\n";
  return 0;
}

int CmdExportWkt(const std::vector<std::string>& args, std::ostream& out,
                 std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(args[1]);
  if (!config.ok()) return Fail(err, config.status());
  const AnnotatedRegion* region = config->FindRegion(args[2]);
  if (region == nullptr) {
    return Fail(err, Status::NotFound("no region with id '" + args[2] + "'"));
  }
  out << ToWkt(region->geometry) << "\n";
  return 0;
}

int CmdRemoveRegion(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(args[1]);
  if (!config.ok()) return Fail(err, config.status());
  Status status = config->RemoveRegion(args[2]);
  if (!status.ok()) return Fail(err, status);
  status = SaveConfiguration(*config, args[1]);
  if (!status.ok()) return Fail(err, status);
  out << "removed region " << args[2] << "\n";
  return 0;
}

int CmdShow(const std::string& path, std::ostream& out, std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(path);
  if (!config.ok()) return Fail(err, config.status());
  out << "Image: " << config->name() << " (file: " << config->image_file()
      << ")\n";
  for (const AnnotatedRegion& region : config->regions()) {
    out << StrFormat("  region %-12s name=%-16s color=%-8s polygons=%zu "
                     "edges=%zu area=%.2f\n",
                     region.id.c_str(), region.name.c_str(),
                     region.color.c_str(), region.geometry.polygon_count(),
                     region.geometry.TotalEdges(), region.geometry.Area());
  }
  if (config->has_relations()) {
    out << "Stored relations:\n";
    config->ForEachRelation([&out](const std::string& primary_id,
                                   const std::string& reference_id,
                                   const CardinalRelation& relation) {
      out << "  " << primary_id << " " << relation.ToString() << " "
          << reference_id << "\n";
    });
  }
  return 0;
}

int CmdRelations(const std::string& path, const std::string& save_path,
                 const EngineOptions& options, std::ostream& out,
                 std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(path);
  if (!config.ok()) return Fail(err, config.status());
  EngineStats stats;
  Status status = config->ComputeAllRelations(options, &stats);
  if (!status.ok()) return Fail(err, status);
  // With an output file the relations go there, not to the terminal: one
  // line per ordered pair is n·(n−1) lines.
  if (save_path.empty()) {
    config->ForEachRelation([&out](const std::string& primary_id,
                                   const std::string& reference_id,
                                   const CardinalRelation& relation) {
      out << primary_id << " " << relation.ToString() << " " << reference_id
          << "\n";
    });
  }
  if (stats.threads_used > 1) {
    out << StrFormat(
        "computed %zu relations on %d threads (%zu from mbbs alone)\n",
        stats.total_pairs, stats.threads_used, stats.prefiltered_pairs);
  }
  if (!save_path.empty()) {
    status = SaveConfiguration(*config, save_path);
    if (!status.ok()) return Fail(err, status);
    out << "saved: " << save_path << "\n";
  }
  return 0;
}

int CmdPercent(const std::string& path, const std::string& primary,
               const std::string& reference, std::ostream& out,
               std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(path);
  if (!config.ok()) return Fail(err, config.status());
  Result<PercentageMatrix> matrix =
      config->ComputePercentages(primary, reference);
  if (!matrix.ok()) return Fail(err, matrix.status());
  out << primary << " w.r.t. " << reference << ":\n"
      << matrix->ToString() << "\n";
  return 0;
}

int CmdQuery(const std::string& path, const std::string& query_text,
             std::ostream& out, std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(path);
  if (!config.ok()) return Fail(err, config.status());
  Result<QueryResult> result = EvaluateQuery(*config, query_text);
  if (!result.ok()) return Fail(err, result.status());
  out << "(" << StrJoin(result->variables, ", ") << ")\n";
  for (const QueryRow& row : result->rows) {
    out << "(" << StrJoin(row.region_ids, ", ") << ")\n";
  }
  out << result->rows.size() << " row(s)\n";
  return 0;
}

int CmdValidate(const std::string& path, std::ostream& out,
                std::ostream& err) {
  Result<Configuration> config = LoadConfiguration(path);
  if (!config.ok()) return Fail(err, config.status());
  bool all_ok = true;
  for (const AnnotatedRegion& region : config->regions()) {
    const Status status = region.geometry.ValidateStrict();
    if (status.ok()) {
      out << "ok:   " << region.id << "\n";
    } else {
      out << "BAD:  " << region.id << ": " << status.message() << "\n";
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}

int CmdDemo(const std::string& path, std::ostream& out, std::ostream& err) {
  Configuration config("demo", "demo-map.png");
  auto add = [&config](const std::string& id, const std::string& color,
                       Polygon polygon) {
    AnnotatedRegion region;
    region.id = id;
    region.name = id;
    region.color = color;
    region.geometry.AddPolygon(std::move(polygon));
    CARDIR_CHECK_OK(config.AddRegion(std::move(region)));
  };
  add("lake", "blue", MakeRectangle(40, 40, 60, 60));
  add("forest", "green",
      Polygon({Point(10, 90), Point(35, 95), Point(30, 70), Point(5, 75)}));
  add("city", "red",
      Polygon({Point(70, 20), Point(90, 25), Point(85, 5), Point(65, 10)}));
  Status status = config.ComputeAllRelations();
  if (!status.ok()) return Fail(err, status);
  status = SaveConfiguration(config, path);
  if (!status.ok()) return Fail(err, status);
  out << "wrote demo configuration: " << path << "\n";
  return 0;
}

int DispatchCommand(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 2;
  }
  const std::string& command = args[0];
  if (command == "create" && args.size() >= 2 && args.size() <= 4) {
    return CmdCreate(args, out, err);
  }
  if (command == "add-region" && args.size() >= 7) {
    return CmdAddRegion(args, out, err);
  }
  if (command == "add-polygon" && args.size() >= 6) {
    return CmdAddPolygon(args, out, err);
  }
  if (command == "add-wkt" && args.size() == 5) {
    return CmdAddWkt(args, out, err);
  }
  if (command == "export-wkt" && args.size() == 3) {
    return CmdExportWkt(args, out, err);
  }
  if (command == "remove-region" && args.size() == 3) {
    return CmdRemoveRegion(args, out, err);
  }
  if (command == "show" && args.size() == 2) {
    return CmdShow(args[1], out, err);
  }
  if (command == "relations" && args.size() >= 2) {
    // Positional args (path, optional out.xml) with a --threads N flag
    // accepted anywhere after the command.
    std::vector<std::string> positional;
    EngineOptions options;
    for (size_t i = 1; i < args.size(); ++i) {
      std::string value;
      bool has_value = false;
      if (args[i] == "--threads") {
        if (i + 1 >= args.size()) {
          return Fail(err, Status::InvalidArgument("--threads needs a value"));
        }
        value = args[++i];
        has_value = true;
      } else if (args[i].rfind("--threads=", 0) == 0) {
        value = args[i].substr(std::string("--threads=").size());
        has_value = true;
      }
      if (has_value) {
        Result<int64_t> threads = ParseInt(value);
        if (!threads.ok() || *threads < 0 || *threads > kMaxEngineThreads) {
          return Fail(err, Status::InvalidArgument(StrFormat(
                               "--threads needs an integer from 0 to %d",
                               kMaxEngineThreads)));
        }
        options.threads = static_cast<int>(*threads);
      } else {
        positional.push_back(args[i]);
      }
    }
    if (positional.size() < 1 || positional.size() > 2) {
      err << kUsage;
      return 2;
    }
    return CmdRelations(positional[0],
                        positional.size() == 2 ? positional[1] : "", options,
                        out, err);
  }
  if (command == "percent" && args.size() == 4) {
    return CmdPercent(args[1], args[2], args[3], out, err);
  }
  if (command == "query" && args.size() == 3) {
    return CmdQuery(args[1], args[2], out, err);
  }
  if (command == "related" && args.size() == 4) {
    Result<Configuration> config = LoadConfiguration(args[1]);
    if (!config.ok()) return Fail(err, config.status());
    Result<DisjunctiveRelation> relation = DisjunctiveRelation::Parse(args[3]);
    if (!relation.ok()) return Fail(err, relation.status());
    Result<DirectionalIndex> index = DirectionalIndex::Build(*config);
    if (!index.ok()) return Fail(err, index.status());
    Result<std::vector<std::string>> results =
        index->FindMatching(args[2], *relation);
    if (!results.ok()) return Fail(err, results.status());
    for (const std::string& id : *results) out << id << "\n";
    out << results->size() << " region(s)\n";
    return 0;
  }
  if (command == "validate" && args.size() == 2) {
    return CmdValidate(args[1], out, err);
  }
  if (command == "demo" && args.size() == 2) {
    return CmdDemo(args[1], out, err);
  }
  if (command == "check" && args.size() == 2) {
    std::ifstream file(args[1]);
    if (!file) {
      return Fail(err, Status::IoError("cannot open '" + args[1] + "'"));
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    Result<ConstraintNetwork> network = ParseConstraintFile(buffer.str());
    if (!network.ok()) return Fail(err, network.status());
    Result<NetworkModel> model = network->Solve();
    if (model.ok()) {
      out << "CONSISTENT\n" << FormatNetworkModel(*network, *model);
      return 0;
    }
    if (model.status().code() == StatusCode::kInconsistent) {
      out << "INCONSISTENT: " << model.status().message() << "\n";
      return 1;
    }
    return Fail(err, model.status());
  }
  if (command == "tables" && args.size() == 1) {
    out << "=== Inverses of the single-tile relations ===\n"
        << SingleTileInverseTable() << "\n"
        << "=== Single-tile composition table ===\n"
        << SingleTileCompositionTable() << "\n"
        << InverseTableStatistics() << "\n";
    return 0;
  }
  err << kUsage;
  return 2;
}

enum class StatsFormat { kNone, kTable, kJson, kPrometheus };

}  // namespace

int RunCardirectTool(const std::vector<std::string>& args, std::ostream& out,
                     std::ostream& err) {
  // Observability flags are global: accepted anywhere on the command line,
  // for every subcommand.
  StatsFormat stats_format = StatsFormat::kNone;
  std::string trace_path;
  std::string flight_record_path;
  std::string profile_path;
  double profile_hz = obs::ProfileOptions().hz;
  std::vector<std::string> command_args;
  command_args.reserve(args.size());
  for (const std::string& arg : args) {
    if (arg == "--stats" || arg == "--stats=table") {
      stats_format = StatsFormat::kTable;
    } else if (arg == "--stats=json") {
      stats_format = StatsFormat::kJson;
    } else if (arg == "--stats=prom" || arg == "--stats=prometheus") {
      stats_format = StatsFormat::kPrometheus;
    } else if (arg.rfind("--stats=", 0) == 0) {
      return Fail(err, Status::InvalidArgument(
                           "--stats accepts table, json, or prom, got '" +
                           arg.substr(std::string("--stats=").size()) + "'"));
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_path = arg.substr(std::string("--trace-out=").size());
      if (trace_path.empty()) {
        return Fail(err,
                    Status::InvalidArgument("--trace-out needs a file name"));
      }
    } else if (arg.rfind("--flight-record=", 0) == 0) {
      flight_record_path = arg.substr(std::string("--flight-record=").size());
      if (flight_record_path.empty()) {
        return Fail(err, Status::InvalidArgument(
                             "--flight-record needs a file name"));
      }
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_path = arg.substr(std::string("--profile=").size());
      if (profile_path.empty()) {
        return Fail(err,
                    Status::InvalidArgument("--profile needs a file name"));
      }
    } else if (arg.rfind("--profile-hz=", 0) == 0) {
      const std::string value = arg.substr(std::string("--profile-hz=").size());
      char* end = nullptr;
      profile_hz = std::strtod(value.c_str(), &end);
      if (value.empty() || end == nullptr || *end != '\0' ||
          !(profile_hz > 0)) {
        return Fail(err, Status::InvalidArgument(
                             "--profile-hz needs a positive number, got '" +
                             value + "'"));
      }
    } else {
      command_args.push_back(arg);
    }
  }

  if (!flight_record_path.empty()) {
    // Crash handlers + the log tail go in before the command so the ring
    // holds the run's own history; the clean-exit dump happens below.
    obs::InstallCrashDump(flight_record_path.c_str());
    obs::CaptureLogTail();
  }
  if (!profile_path.empty()) {
    obs::ProfileOptions profile_options;
    profile_options.hz = profile_hz;
    const Status started = obs::StartProfiling(profile_options);
    if (!started.ok()) return Fail(err, started);
  }
  if (!trace_path.empty()) obs::StartTracing();
  const obs::MetricsSnapshot before = stats_format != StatsFormat::kNone
                                          ? obs::CaptureMetrics()
                                          : obs::MetricsSnapshot();

  const int code = DispatchCommand(command_args, out, err);

  if (!profile_path.empty()) {
    obs::StopProfiling();
    const Status written = obs::WriteCollapsedProfile(profile_path);
    if (!written.ok()) return Fail(err, written);
    const obs::ProfileStats pstats = obs::GetProfileStats();
    out << "wrote profile: " << profile_path << " (" << pstats.samples_taken
        << " samples, " << pstats.samples_with_work << " with work)\n";
  }
  if (!flight_record_path.empty()) {
    // Clean-exit dump: the same file the crash handler would have written,
    // so post-mortem tooling reads one format either way.
    if (!obs::DumpFlightRecordToPath(flight_record_path.c_str())) {
      return Fail(err, Status::IoError("cannot write flight record to '" +
                                       flight_record_path + "'"));
    }
    out << "wrote flight record: " << flight_record_path << "\n";
  }
  if (!trace_path.empty()) {
    obs::StopTracing();
    std::ofstream trace_file(trace_path);
    if (!trace_file) {
      return Fail(err, Status::IoError("cannot open '" + trace_path +
                                       "' for writing"));
    }
    obs::WriteChromeTrace(trace_file);
    out << "wrote trace: " << trace_path << "\n";
  }
  if (stats_format != StatsFormat::kNone) {
    const obs::MetricsSnapshot delta = obs::CaptureMetrics().Diff(before);
    switch (stats_format) {
      case StatsFormat::kTable:
        out << "=== metrics (this run) ===\n" << obs::FormatMetricsTable(delta);
        break;
      case StatsFormat::kJson:
        out << obs::FormatMetricsJson(delta);
        break;
      case StatsFormat::kPrometheus:
        out << obs::FormatMetricsPrometheus(delta);
        break;
      case StatsFormat::kNone:
        break;
    }
  }
  return code;
}

}  // namespace cardir
