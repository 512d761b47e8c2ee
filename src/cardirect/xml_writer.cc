// The configuration writer: appends each element of the DTD (xml.h)
// straight to one output string, from regions() and ForEachRelationAt.
//
// A document states up to n·(n−1) relations, each one of 512 masks between
// two of n regions, so the text a <Relation> is made of is formatted once
// per call: a type text per mask and a primary and a reference text per
// region. Each relation is then three appends.

#include <array>
#include <charconv>
#include <fstream>
#include <iterator>
#include <string_view>

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

// Appends a coordinate compactly but round-trippably: as printf's %.15g
// when that reads back to the same value, which covers most values
// produced by hand or by the generators, and else as %.17g, which always
// does. to_chars with a precision writes what printf writes.
void AppendCoordinate(double value, std::string* out) {
  char text[32];
  char* end = std::to_chars(std::begin(text), std::end(text), value,
                            std::chars_format::general, 15)
                  .ptr;
  double read_back = 0;
  const auto [read_end, error] = std::from_chars(text, end, read_back);
  if (error != std::errc() || read_end != end || read_back != value) {
    end = std::to_chars(std::begin(text), std::end(text), value,
                        std::chars_format::general, 17)
              .ptr;
  }
  out->append(text, end);
}

}  // namespace

std::string ConfigurationToXml(const Configuration& configuration) {
  CARDIR_TRACE_SPAN("xml.serialize");
  const uint64_t start_us = obs::TraceNowMicros();
  const std::vector<AnnotatedRegion>& regions = configuration.regions();
  constexpr std::string_view kEnd = "</Image>\n";
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<Image";
  if (!configuration.name().empty()) {
    AppendAttribute("name", configuration.name(), &out);
  }
  if (!configuration.image_file().empty()) {
    AppendAttribute("file", configuration.image_file(), &out);
  }
  // Relations need regions, and a stored region holds at least one polygon
  // of at least three vertices, so only <Image> can be an empty element.
  out += regions.empty() ? "/>\n" : ">\n";
  for (const AnnotatedRegion& region : regions) {
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
        out += "      <Edge x=\"";
        AppendCoordinate(vertex.x, &out);
        out += "\" y=\"";
        AppendCoordinate(vertex.y, &out);
        out += "\"/>\n";
      }
      out += "    </Polygon>\n";
    }
    out += "  </Region>\n";
  }
  std::vector<std::string> primary_text(regions.size());
  std::vector<std::string> reference_text(regions.size());
  for (size_t k = 0; k < regions.size(); ++k) {
    AppendAttribute("primary", regions[k].id, &primary_text[k]);
    AppendAttribute("reference", regions[k].id, &reference_text[k]);
    reference_text[k] += "/>\n";
  }
  std::array<std::string, 512> type_text;
  for (uint16_t mask = 0; mask < type_text.size(); ++mask) {
    type_text[mask] = "  <Relation";
    AppendAttribute("type", CardinalRelation::FromMask(mask).Name(),
                    &type_text[mask]);
  }
  // A first pass sizes the document exactly, so it is allocated once:
  // growing it by doubling copies it and can leave up to twice its size
  // allocated, and an upper bound raised the resident peak of later work
  // (DESIGN §3.31).
  size_t relation_bytes = 0;
  configuration.ForEachRelationAt(
      [&](size_t i, size_t j, const CardinalRelation& relation) {
        relation_bytes += type_text[relation.mask()].size() +
                          primary_text[i].size() + reference_text[j].size();
      });
  out.reserve(out.size() + relation_bytes + kEnd.size());
  // Computed and XML-loaded relations stream in the order they are held,
  // which for a computed configuration is the canonical one that a saved
  // and reloaded document holds too.
  configuration.ForEachRelationAt(
      [&](size_t i, size_t j, const CardinalRelation& relation) {
        out.append(type_text[relation.mask()])
            .append(primary_text[i])
            .append(reference_text[j]);
      });
  if (!regions.empty()) out += kEnd;
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
