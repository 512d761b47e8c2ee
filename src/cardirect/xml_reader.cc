// The configuration reader: one pull loop over the document that checks
// each start tag against its one place in the DTD (xml.h) and binds the
// element straight into the Configuration — a vertex per <Edge>, a region
// per closed <Region>, the <Relation> records at the end. The DTD nests at
// most four deep (Image > Region > Polygon > Edge), so the open elements
// fit a fixed array and hostile nesting fails at its first misplaced tag.

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>
#include <vector>

#include "cardirect/xml.h"
#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"

namespace cardir {
namespace {

enum Element { kImage, kRegion, kPolygon, kEdge, kRelation, kNoElement };

// One element of the DTD: its tag, the one element it may appear in, and
// its declared attributes, the first `required` of them #REQUIRED.
// Polygon's id is #REQUIRED in the DTD but has always been optional here.
struct ElementSpec {
  std::string_view tag;
  Element parent;
  size_t required;
  std::array<std::string_view, 3> attributes;
};

constexpr ElementSpec kDtd[] = {
    {"Image", kNoElement, 0, {"name", "file"}},
    {"Region", kImage, 1, {"id", "name", "color"}},
    {"Polygon", kRegion, 0, {"id"}},
    {"Edge", kPolygon, 2, {"x", "y"}},
    {"Relation", kImage, 3, {"type", "primary", "reference"}},
};

constexpr std::pair<std::string_view, char> kEntities[] = {
    {"amp", '&'}, {"lt", '<'}, {"gt", '>'}, {"quot", '"'}, {"apos", '\''}};

class ConfigurationReader {
 public:
  explicit ConfigurationReader(std::string_view input) : input_(input) {}

  Result<Configuration> Read() {
    SkipMisc(/*prologue=*/true);
    if (AtEnd() || Peek() != '<') return Error("expected root element");
    CARDIR_RETURN_IF_ERROR(StartElement());
    while (depth_ > 0) {
      SkipWhitespace();
      const char* open = Tag(open_[depth_ - 1]);
      if (AtEnd()) return Error(StrFormat("missing </%s>", open));
      if (LookingAt("</")) {
        CARDIR_RETURN_IF_ERROR(EndElement());
      } else if (SkipComment() || SkipProcessingInstruction()) {
        continue;
      } else if (Peek() == '<') {
        CARDIR_RETURN_IF_ERROR(StartElement());
      } else {
        const size_t end = std::min(input_.find('<', pos_), pos_ + 32);
        const std::string text(input_.substr(pos_, end - pos_));
        return Error(StrFormat("character data in <%s>: '%s'", open,
                               text.c_str()));
      }
    }
    SkipMisc(/*prologue=*/false);
    if (!AtEnd()) return Error("trailing content after root element");
    Status status = configuration_.SetRelations(std::move(records_));
    if (status.code() == StatusCode::kNotFound) {
      return Status::ParseError("<Relation> references unknown region id");
    }
    CARDIR_RETURN_IF_ERROR(status);
    return std::move(configuration_);
  }

 private:
  // The DTD element `tag` names inside `parent`, or kNoElement.
  static Element Lookup(std::string_view tag, Element parent) {
    for (int element = kImage; element < kNoElement; ++element) {
      if (kDtd[element].tag == tag && kDtd[element].parent == parent) {
        return static_cast<Element>(element);
      }
    }
    return kNoElement;
  }

  // The tag of `element`, NUL-terminated (kDtd holds literals).
  static const char* Tag(Element element) { return kDtd[element].tag.data(); }

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

  // Skips whitespace, comments and processing instructions, and in the
  // prologue DOCTYPE declarations too.
  void SkipMisc(bool prologue) {
    do {
      SkipWhitespace();
    } while (SkipComment() || SkipProcessingInstruction() ||
             (prologue && SkipDoctype()));
  }

  static bool IsNameChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':';
  }

  Result<std::string_view> ParseName() {
    const size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    if (pos_ == start) return Error("expected a name");
    return input_.substr(start, pos_ - start);
  }

  // Decodes the entities of `raw` into `out`, reusing its capacity.
  Status DecodeEntities(std::string_view raw, std::string* out) const {
    out->clear();
    for (size_t amp; (amp = raw.find('&')) != std::string_view::npos;) {
      out->append(raw.substr(0, amp));
      const size_t semi = raw.find(';', amp + 1);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      const std::string entity(raw.substr(amp + 1, semi - amp - 1));
      char decoded = 0;
      for (const auto& [name, c] : kEntities) {
        if (entity == name) decoded = c;
      }
      if (!entity.empty() && entity[0] == '#') {
        // Numeric character reference; ASCII only in this subset.
        const bool hex =
            entity.size() > 1 && (entity[1] == 'x' || entity[1] == 'X');
        const long code = std::strtol(entity.c_str() + (hex ? 2 : 1),
                                      nullptr, hex ? 16 : 10);
        if (code <= 0 || code > 127) {
          return Error(StrFormat("unsupported character reference: &%s;",
                                 entity.c_str()));
        }
        decoded = static_cast<char>(code);
      }
      if (decoded == 0) {
        return Error(StrFormat("unknown entity: &%s;", entity.c_str()));
      }
      *out += decoded;
      raw.remove_prefix(semi + 1);
    }
    out->append(raw);
    return Status::Ok();
  }

  // Parses `="value"` (or single-quoted) after an attribute name.
  Status ParseAttributeValue(std::string* value) {
    SkipWhitespace();
    if (AtEnd() || Peek() != '=') return Error("expected '=' in attribute");
    ++pos_;
    SkipWhitespace();
    if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
      return Error("expected quoted attribute value");
    }
    const size_t start = ++pos_;
    const size_t end = input_.find(input_[start - 1], start);
    if (end == std::string_view::npos) {
      pos_ = input_.size();
      return Error("unterminated attribute value");
    }
    pos_ = end;
    CARDIR_RETURN_IF_ERROR(
        DecodeEntities(input_.substr(start, end - start), value));
    ++pos_;  // Closing quote.
    return Status::Ok();
  }

  // Reads a start tag at '<' whose element must sit in the open one (or
  // be the root), then binds it; an empty-element tag also closes it.
  Status StartElement() {
    ++pos_;  // '<'
    CARDIR_ASSIGN_OR_RETURN(const std::string_view tag, ParseName());
    const Element parent = depth_ == 0 ? kNoElement : open_[depth_ - 1];
    const Element element = Lookup(tag, parent);
    if (element == kNoElement && parent == kNoElement) {
      return Error(StrFormat("root element must be <Image>, got <%s>",
                             std::string(tag).c_str()));
    }
    if (element == kNoElement) {
      return Error(StrFormat("<%s> is not allowed in <%s>",
                             std::string(tag).c_str(), Tag(parent)));
    }
    const ElementSpec& spec = kDtd[element];
    unsigned seen = 0;
    for (;;) {
      SkipWhitespace();
      if (AtEnd()) {
        return Error(StrFormat("unterminated start tag <%s", Tag(element)));
      }
      if (LookingAt("/>") || Peek() == '>') break;
      CARDIR_ASSIGN_OR_RETURN(const std::string_view name, ParseName());
      size_t slot = 0;
      while (slot < spec.attributes.size() && spec.attributes[slot] != name) {
        ++slot;
      }
      if (slot == spec.attributes.size() || (seen >> slot & 1) != 0) {
        return Error(StrFormat(slot == spec.attributes.size()
                                   ? "<%s> has no attribute '%s'"
                                   : "<%s> repeats attribute '%s'",
                               Tag(element), std::string(name).c_str()));
      }
      seen |= 1u << slot;
      CARDIR_RETURN_IF_ERROR(ParseAttributeValue(&values_[slot]));
    }
    for (size_t slot = 0; slot < spec.attributes.size(); ++slot) {
      if ((seen >> slot & 1) != 0) continue;
      if (slot < spec.required) {
        return Error(StrFormat("<%s> requires the %s attribute", Tag(element),
                               spec.attributes[slot].data()));
      }
      values_[slot].clear();
    }
    CARDIR_RETURN_IF_ERROR(Open(element));
    if (LookingAt("/>")) {
      pos_ += 2;
      return Close(element);
    }
    ++pos_;  // '>'
    open_[depth_++] = element;
    return Status::Ok();
  }

  // Reads an end tag at "</", which must close the innermost open element.
  Status EndElement() {
    pos_ += 2;
    CARDIR_ASSIGN_OR_RETURN(const std::string_view tag, ParseName());
    const Element element = open_[depth_ - 1];
    if (tag != kDtd[element].tag) {
      return Error(StrFormat("mismatched end tag </%s>, expected </%s>",
                             std::string(tag).c_str(), Tag(element)));
    }
    SkipWhitespace();
    if (AtEnd() || Peek() != '>') return Error("malformed end tag");
    ++pos_;
    --depth_;
    return Close(element);
  }

  // Binds a start tag's attributes (values_, by declared slot).
  Status Open(Element element) {
    if (element == kImage) {
      configuration_.set_name(values_[0]);
      configuration_.set_image_file(values_[1]);
    } else if (element == kRegion) {
      region_.id = values_[0];
      region_.name = values_[1];
      region_.color = values_[2];
    } else if (element == kEdge) {
      CARDIR_ASSIGN_OR_RETURN(const double x, ParseDouble(values_[0]));
      CARDIR_ASSIGN_OR_RETURN(const double y, ParseDouble(values_[1]));
      polygon_.AddVertex(Point(x, y));
    } else if (element == kRelation) {
      CARDIR_ASSIGN_OR_RETURN(const CardinalRelation relation,
                              CardinalRelation::Parse(values_[0]));
      // A region has no direction relation to itself; a computed store
      // never holds one either.
      if (values_[1] == values_[2]) {
        return Error("<Relation> relates region '" + values_[1] +
                     "' to itself");
      }
      records_.push_back({values_[1], values_[2], relation});
    }
    return Status::Ok();
  }

  // Binds what an element gathered once it closes.
  Status Close(Element element) {
    if (element == kPolygon) {
      if (polygon_.size() < 3) {
        return Error("region '" + region_.id +
                     "': polygon with fewer than 3 edges");
      }
      region_.geometry.AddPolygon(std::move(polygon_));
      polygon_ = Polygon();
    } else if (element == kRegion) {
      CARDIR_RETURN_IF_ERROR(configuration_.AddRegion(std::move(region_)));
      region_ = AnnotatedRegion();
    }
    return Status::Ok();
  }

  std::string_view input_;
  size_t pos_ = 0;
  std::array<Element, 4> open_{};  // Image > Region > Polygon > Edge.
  int depth_ = 0;
  std::array<std::string, 3> values_;
  Configuration configuration_;
  AnnotatedRegion region_;
  Polygon polygon_;
  std::vector<RelationRecord> records_;
};

}  // namespace

Result<Configuration> ConfigurationFromXml(std::string_view xml) {
  CARDIR_TRACE_SPAN("xml.parse");
  const uint64_t start_us = obs::TraceNowMicros();
  Result<Configuration> configuration = ConfigurationReader(xml).Read();
  CARDIR_METRIC_COUNT("xml.parse.calls", 1);
  CARDIR_METRIC_COUNT("xml.parse.bytes", xml.size());
  CARDIR_METRIC_OBSERVE("xml.parse_us", obs::TraceNowMicros() - start_us);
  return configuration;
}

Result<Configuration> LoadConfiguration(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot open '" + path + "' for reading");
  // One buffer, sized from the file when it is a regular file. A path of
  // unknown size (a pipe) or a file that grew is read on to its end.
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  std::string text(size_error ? 0 : size, '\0');
  file.read(text.data(), static_cast<std::streamsize>(text.size()));
  size_t filled = static_cast<size_t>(file.gcount());
  while (file && file.peek() != std::ifstream::traits_type::eof()) {
    text.resize(std::max<size_t>(2 * text.size(), size_t{1} << 16));
    file.read(text.data() + filled,
              static_cast<std::streamsize>(text.size() - filled));
    filled += static_cast<size_t>(file.gcount());
  }
  if (file.bad()) return Status::IoError("failed reading '" + path + "'");
  text.resize(filled);
  // The whole-file text buffer is the transient peak of an ingest; charge
  // it for the duration of the parse so mem.xml_buffer's high-water shows
  // the real footprint of loading a large configuration.
  CARDIR_MEMSTAT_ALLOC("xml_buffer", text.size());
  Result<Configuration> result = ConfigurationFromXml(text);
  CARDIR_MEMSTAT_FREE("xml_buffer", text.size());
  return result;
}

}  // namespace cardir
