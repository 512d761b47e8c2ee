#include "cardirect/xml.h"

#include <cctype>
#include <fstream>
#include <sstream>

#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace cardir {

const std::string* XmlNode::FindAttribute(std::string_view name) const {
  for (const auto& [key, value] : attributes) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::string XmlNode::AttributeOr(std::string_view name,
                                 std::string fallback) const {
  const std::string* value = FindAttribute(name);
  return value != nullptr ? *value : std::move(fallback);
}

std::vector<const XmlNode*> XmlNode::ChildrenNamed(std::string_view tag_name) const {
  std::vector<const XmlNode*> out;
  for (const XmlNode& child : children) {
    if (child.tag == tag_name) out.push_back(&child);
  }
  return out;
}

namespace {

class XmlParser {
 public:
  explicit XmlParser(std::string_view input) : input_(input) {}

  Result<XmlNode> ParseDocument() {
    SkipPrologue();
    if (AtEnd() || Peek() != '<') {
      return Error("expected root element");
    }
    CARDIR_ASSIGN_OR_RETURN(XmlNode root, ParseElement());
    SkipMisc();
    if (!AtEnd()) return Error("trailing content after root element");
    return root;
  }

 private:
  bool AtEnd() const { return pos_ >= input_.size(); }
  char Peek() const { return input_[pos_]; }
  bool LookingAt(std::string_view token) const {
    return input_.substr(pos_, token.size()) == token;
  }

  Status Error(const std::string& message) const {
    // Report 1-based line for usability.
    size_t line = 1;
    for (size_t i = 0; i < pos_ && i < input_.size(); ++i) {
      if (input_[i] == '\n') ++line;
    }
    return Status::ParseError(StrFormat("xml:%zu: %s", line,
                                        message.c_str()));
  }

  void SkipWhitespace() {
    while (!AtEnd() && std::isspace(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
  }

  bool SkipComment() {
    if (!LookingAt("<!--")) return false;
    const size_t end = input_.find("-->", pos_ + 4);
    pos_ = (end == std::string_view::npos) ? input_.size() : end + 3;
    return true;
  }

  bool SkipProcessingInstruction() {
    if (!LookingAt("<?")) return false;
    const size_t end = input_.find("?>", pos_ + 2);
    pos_ = (end == std::string_view::npos) ? input_.size() : end + 2;
    return true;
  }

  bool SkipDoctype() {
    if (!LookingAt("<!DOCTYPE")) return false;
    // Skip to the matching '>', honouring an internal subset in [...].
    int bracket_depth = 0;
    while (!AtEnd()) {
      const char c = input_[pos_++];
      if (c == '[') ++bracket_depth;
      if (c == ']') --bracket_depth;
      if (c == '>' && bracket_depth == 0) break;
    }
    return true;
  }

  void SkipMisc() {
    for (;;) {
      SkipWhitespace();
      if (SkipComment() || SkipProcessingInstruction()) continue;
      break;
    }
  }

  void SkipPrologue() {
    for (;;) {
      SkipWhitespace();
      if (SkipProcessingInstruction() || SkipComment() || SkipDoctype()) {
        continue;
      }
      break;
    }
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  Result<std::string> ParseName() {
    const size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a name");
    return std::string(input_.substr(start, pos_ - start));
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out += raw[i];
        continue;
      }
      const size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      const std::string_view entity = raw.substr(i + 1, semi - i - 1);
      if (entity == "amp") {
        out += '&';
      } else if (entity == "lt") {
        out += '<';
      } else if (entity == "gt") {
        out += '>';
      } else if (entity == "quot") {
        out += '"';
      } else if (entity == "apos") {
        out += '\'';
      } else if (!entity.empty() && entity[0] == '#') {
        // Numeric character reference; ASCII only in this subset.
        long code = 0;
        if (entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X')) {
          code = std::strtol(std::string(entity.substr(2)).c_str(), nullptr, 16);
        } else {
          code = std::strtol(std::string(entity.substr(1)).c_str(), nullptr, 10);
        }
        if (code <= 0 || code > 127) {
          return Error("unsupported character reference: &" +
                       std::string(entity) + ";");
        }
        out += static_cast<char>(code);
      } else {
        return Error("unknown entity: &" + std::string(entity) + ";");
      }
      i = semi;
    }
    return out;
  }

  Result<std::pair<std::string, std::string>> ParseAttribute() {
    CARDIR_ASSIGN_OR_RETURN(std::string name, ParseName());
    SkipWhitespace();
    if (AtEnd() || Peek() != '=') return Error("expected '=' in attribute");
    ++pos_;
    SkipWhitespace();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    const char quote = Peek();
    ++pos_;
    const size_t start = pos_;
    while (!AtEnd() && Peek() != quote) ++pos_;
    if (AtEnd()) return Error("unterminated attribute value");
    CARDIR_ASSIGN_OR_RETURN(
        std::string value, DecodeEntities(input_.substr(start, pos_ - start)));
    ++pos_;  // Closing quote.
    return std::make_pair(std::move(name), std::move(value));
  }

  Result<XmlNode> ParseElement() {
    ++pos_;  // '<'
    XmlNode node;
    CARDIR_ASSIGN_OR_RETURN(node.tag, ParseName());
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) return Error("unterminated start tag <" + node.tag);
      if (LookingAt("/>")) {
        pos_ += 2;
        return node;
      }
      if (Peek() == '>') {
        ++pos_;
        break;
      }
      CARDIR_ASSIGN_OR_RETURN(auto attribute, ParseAttribute());
      node.attributes.push_back(std::move(attribute));
    }
    // Content until the matching end tag.
    for (;;) {
      if (AtEnd()) return Error("missing </" + node.tag + ">");
      if (LookingAt("</")) {
        pos_ += 2;
        CARDIR_ASSIGN_OR_RETURN(std::string closing, ParseName());
        if (closing != node.tag) {
          return Error("mismatched end tag </" + closing + ">, expected </" +
                       node.tag + ">");
        }
        SkipWhitespace();
        if (AtEnd() || Peek() != '>') return Error("malformed end tag");
        ++pos_;
        return node;
      }
      if (SkipComment()) continue;
      if (SkipProcessingInstruction()) continue;
      if (Peek() == '<') {
        CARDIR_ASSIGN_OR_RETURN(XmlNode child, ParseElement());
        node.children.push_back(std::move(child));
        continue;
      }
      const size_t start = pos_;
      while (!AtEnd() && Peek() != '<') ++pos_;
      CARDIR_ASSIGN_OR_RETURN(
          std::string text, DecodeEntities(input_.substr(start, pos_ - start)));
      node.text += text;
    }
  }

  std::string_view input_;
  size_t pos_ = 0;
};

void WriteNode(const XmlNode& node, bool pretty, int depth,
               std::string* out) {
  const std::string indent = pretty ? std::string(2 * depth, ' ') : "";
  *out += indent;
  *out += '<';
  *out += node.tag;
  for (const auto& [key, value] : node.attributes) {
    *out += ' ';
    *out += key;
    *out += "=\"";
    *out += XmlEscape(value);
    *out += '"';
  }
  const std::string_view text = StripWhitespace(node.text);
  if (node.children.empty() && text.empty()) {
    *out += "/>";
    if (pretty) *out += '\n';
    return;
  }
  *out += '>';
  if (!text.empty()) *out += XmlEscape(text);
  if (!node.children.empty()) {
    if (pretty) *out += '\n';
    for (const XmlNode& child : node.children) {
      WriteNode(child, pretty, depth + 1, out);
    }
    *out += indent;
  }
  *out += "</";
  *out += node.tag;
  *out += '>';
  if (pretty) *out += '\n';
}

// Formats a coordinate compactly but round-trippably: %.15g covers most
// values produced by hand or by the generators; %.17g always round-trips.
std::string FormatCoordinate(double value) {
  std::string candidate = StrFormat("%.15g", value);
  if (std::strtod(candidate.c_str(), nullptr) == value) return candidate;
  return StrFormat("%.17g", value);
}

}  // namespace

Result<XmlNode> ParseXml(std::string_view input) {
  CARDIR_TRACE_SPAN("xml.parse");
  const uint64_t start_us = obs::TraceNowMicros();
  Result<XmlNode> root = XmlParser(input).ParseDocument();
  CARDIR_METRIC_COUNT("xml.parse.calls", 1);
  CARDIR_METRIC_COUNT("xml.parse.bytes", input.size());
  CARDIR_METRIC_OBSERVE("xml.parse_us", obs::TraceNowMicros() - start_us);
  return root;
}

std::string WriteXml(const XmlNode& root, bool pretty) {
  CARDIR_TRACE_SPAN("xml.serialize");
  const uint64_t start_us = obs::TraceNowMicros();
  std::string out;
  WriteNode(root, pretty, 0, &out);
  CARDIR_METRIC_COUNT("xml.serialize.calls", 1);
  CARDIR_METRIC_COUNT("xml.serialize.bytes", out.size());
  CARDIR_METRIC_OBSERVE("xml.serialize_us", obs::TraceNowMicros() - start_us);
  return out;
}

std::string XmlEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&apos;"; break;
      default: out += c;
    }
  }
  return out;
}

Result<Configuration> ConfigurationFromXml(std::string_view xml) {
  CARDIR_ASSIGN_OR_RETURN(XmlNode root, ParseXml(xml));
  if (root.tag != "Image") {
    return Status::ParseError("root element must be <Image>, got <" +
                              root.tag + ">");
  }
  Configuration configuration(root.AttributeOr("name", ""),
                              root.AttributeOr("file", ""));
  for (const XmlNode* region_node : root.ChildrenNamed("Region")) {
    AnnotatedRegion region;
    const std::string* id = region_node->FindAttribute("id");
    if (id == nullptr) {
      return Status::ParseError("<Region> is missing the required id");
    }
    region.id = *id;
    region.name = region_node->AttributeOr("name", "");
    region.color = region_node->AttributeOr("color", "");
    for (const XmlNode* polygon_node : region_node->ChildrenNamed("Polygon")) {
      Polygon polygon;
      for (const XmlNode* edge_node : polygon_node->ChildrenNamed("Edge")) {
        const std::string* x = edge_node->FindAttribute("x");
        const std::string* y = edge_node->FindAttribute("y");
        if (x == nullptr || y == nullptr) {
          return Status::ParseError("<Edge> requires x and y attributes");
        }
        CARDIR_ASSIGN_OR_RETURN(double px, ParseDouble(*x));
        CARDIR_ASSIGN_OR_RETURN(double py, ParseDouble(*y));
        polygon.AddVertex(Point(px, py));
      }
      if (polygon.size() < 3) {
        return Status::ParseError("region '" + region.id +
                                  "': polygon with fewer than 3 edges");
      }
      region.geometry.AddPolygon(std::move(polygon));
    }
    CARDIR_RETURN_IF_ERROR(configuration.AddRegion(std::move(region)));
  }
  std::vector<RelationRecord> records;
  for (const XmlNode* relation_node : root.ChildrenNamed("Relation")) {
    const std::string* type = relation_node->FindAttribute("type");
    const std::string* primary = relation_node->FindAttribute("primary");
    const std::string* reference = relation_node->FindAttribute("reference");
    if (type == nullptr || primary == nullptr || reference == nullptr) {
      return Status::ParseError(
          "<Relation> requires type, primary and reference attributes");
    }
    if (configuration.FindRegion(*primary) == nullptr ||
        configuration.FindRegion(*reference) == nullptr) {
      return Status::ParseError("<Relation> references unknown region id");
    }
    CARDIR_ASSIGN_OR_RETURN(CardinalRelation relation,
                            CardinalRelation::Parse(*type));
    // A region has no direction relation to itself; a computed store never
    // holds one either.
    if (*primary == *reference) {
      return Status::ParseError("<Relation> relates region '" + *primary +
                                "' to itself");
    }
    records.push_back({*primary, *reference, relation});
  }
  CARDIR_RETURN_IF_ERROR(configuration.SetRelations(std::move(records)));
  return configuration;
}

std::string ConfigurationToXml(const Configuration& configuration) {
  XmlNode root;
  root.tag = "Image";
  if (!configuration.name().empty()) {
    root.attributes.emplace_back("name", configuration.name());
  }
  if (!configuration.image_file().empty()) {
    root.attributes.emplace_back("file", configuration.image_file());
  }
  for (const AnnotatedRegion& region : configuration.regions()) {
    XmlNode region_node;
    region_node.tag = "Region";
    region_node.attributes.emplace_back("id", region.id);
    if (!region.name.empty()) {
      region_node.attributes.emplace_back("name", region.name);
    }
    if (!region.color.empty()) {
      region_node.attributes.emplace_back("color", region.color);
    }
    int polygon_id = 0;
    for (const Polygon& polygon : region.geometry.polygons()) {
      XmlNode polygon_node;
      polygon_node.tag = "Polygon";
      polygon_node.attributes.emplace_back(
          "id", StrFormat("%s-p%d", region.id.c_str(), polygon_id++));
      for (const Point& vertex : polygon.vertices()) {
        XmlNode edge_node;
        edge_node.tag = "Edge";
        edge_node.attributes.emplace_back("x", FormatCoordinate(vertex.x));
        edge_node.attributes.emplace_back("y", FormatCoordinate(vertex.y));
        polygon_node.children.push_back(std::move(edge_node));
      }
      region_node.children.push_back(std::move(polygon_node));
    }
    root.children.push_back(std::move(region_node));
  }
  // Computed configurations stream straight out of the RelationStore in
  // the same canonical order the record vector used to hold, so the XML is
  // byte-identical across the two representations.
  configuration.ForEachRelation([&root](const std::string& primary_id,
                                        const std::string& reference_id,
                                        const CardinalRelation& relation) {
    XmlNode relation_node;
    relation_node.tag = "Relation";
    relation_node.attributes.emplace_back("type", relation.ToString());
    relation_node.attributes.emplace_back("primary", primary_id);
    relation_node.attributes.emplace_back("reference", reference_id);
    root.children.push_back(std::move(relation_node));
  });
  std::string out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  out += WriteXml(root, /*pretty=*/true);
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

Result<Configuration> LoadConfiguration(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  const std::string text = buffer.str();
  // The whole-file text buffer is the transient peak of an ingest; charge
  // it for the duration of the parse so mem.xml_buffer's high-water shows
  // the real footprint of loading a large configuration.
  CARDIR_MEMSTAT_ALLOC("xml_buffer", text.size());
  Result<Configuration> result = ConfigurationFromXml(text);
  CARDIR_MEMSTAT_FREE("xml_buffer", text.size());
  return result;
}

}  // namespace cardir
