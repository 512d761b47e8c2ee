// The configuration writer: appends each element of the DTD (xml.h)
// straight to one output string, from regions() and ForEachRelation.

#include <cstdlib>
#include <fstream>

#include "cardirect/xml.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace cardir {
namespace {

constexpr std::string_view kSpecial = "&<>\"'";
constexpr std::string_view kEscaped[] = {"&amp;", "&lt;", "&gt;", "&quot;",
                                         "&apos;"};

// Appends ` name="value"`, with the characters of kSpecial escaped.
void AppendAttribute(std::string_view name, std::string_view value,
                     std::string* out) {
  out->append(" ").append(name).append("=\"");
  size_t done = 0;
  for (size_t i = 0; i < value.size(); ++i) {
    const char c = value[i];
    if (c == '&' || c == '<' || c == '>' || c == '"' || c == '\'') {
      out->append(value.substr(done, i - done));
      out->append(kEscaped[kSpecial.find(c)]);
      done = i + 1;
    }
  }
  out->append(value.substr(done)).append("\"");
}

// Formats a coordinate compactly but round-trippably: %.15g covers most
// values produced by hand or by the generators; %.17g always round-trips.
std::string FormatCoordinate(double value) {
  std::string candidate = StrFormat("%.15g", value);
  if (std::strtod(candidate.c_str(), nullptr) == value) return candidate;
  return StrFormat("%.17g", value);
}

}  // namespace

std::string ConfigurationToXml(const Configuration& configuration) {
  CARDIR_TRACE_SPAN("xml.serialize");
  const uint64_t start_us = obs::TraceNowMicros();
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Image";
  if (!configuration.name().empty()) {
    AppendAttribute("name", configuration.name(), &out);
  }
  if (!configuration.image_file().empty()) {
    AppendAttribute("file", configuration.image_file(), &out);
  }
  // Relations need regions, and a stored region holds at least one polygon
  // of at least three vertices, so only <Image> can be an empty element.
  out += configuration.regions().empty() ? "/>\n" : ">\n";
  for (const AnnotatedRegion& region : configuration.regions()) {
    out += "  <Region";
    AppendAttribute("id", region.id, &out);
    if (!region.name.empty()) AppendAttribute("name", region.name, &out);
    if (!region.color.empty()) AppendAttribute("color", region.color, &out);
    out += ">\n";
    int index = 0;
    for (const Polygon& polygon : region.geometry.polygons()) {
      out += "    <Polygon";
      const std::string id = StrFormat("%s-p%d", region.id.c_str(), index++);
      AppendAttribute("id", id, &out);
      out += ">\n";
      for (const Point& vertex : polygon.vertices()) {
        out += "      <Edge";
        AppendAttribute("x", FormatCoordinate(vertex.x), &out);
        AppendAttribute("y", FormatCoordinate(vertex.y), &out);
        out += "/>\n";
      }
      out += "    </Polygon>\n";
    }
    out += "  </Region>\n";
  }
  // Computed configurations stream straight out of the RelationStore in
  // the same canonical order the record vector holds, so the XML is
  // byte-identical across the two representations.
  configuration.ForEachRelation([&out](const std::string& primary_id,
                                       const std::string& reference_id,
                                       const CardinalRelation& relation) {
    out += "  <Relation";
    AppendAttribute("type", relation.ToString(), &out);
    AppendAttribute("primary", primary_id, &out);
    AppendAttribute("reference", reference_id, &out);
    out += "/>\n";
  });
  if (!configuration.regions().empty()) out += "</Image>\n";
  CARDIR_METRIC_COUNT("xml.serialize.calls", 1);
  CARDIR_METRIC_COUNT("xml.serialize.bytes", out.size());
  CARDIR_METRIC_OBSERVE("xml.serialize_us", obs::TraceNowMicros() - start_us);
  return out;
}

Status SaveConfiguration(const Configuration& configuration,
                         const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot open '" + path + "' for writing");
  const std::string text = ConfigurationToXml(configuration);
  CARDIR_MEMSTAT_ALLOC("xml_buffer", text.size());
  file << text;
  CARDIR_MEMSTAT_FREE("xml_buffer", text.size());
  file.close();
  if (!file) return Status::IoError("failed writing '" + path + "'");
  return Status::Ok();
}

}  // namespace cardir
