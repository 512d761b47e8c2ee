#include "geometry/wkt.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

#include "geometry/decompose.h"
#include "util/string_util.h"

namespace cardir {
namespace {

std::string FormatCoordinate(double value) {
  std::string candidate = StrFormat("%.15g", value);
  // cardir-analyzer: allow(float-eq): round-trip check must be bit-exact
  if (std::strtod(candidate.c_str(), nullptr) == value) return candidate;
  return StrFormat("%.17g", value);
}

class WktParser {
 public:
  // Copies the view: strtod reads to a NUL or a non-number character, and
  // a view need not end at one.
  explicit WktParser(std::string_view input) : input_(input) {}

  Result<Region> Parse() {
    SkipSpace();
    CARDIR_ASSIGN_OR_RETURN(std::string keyword, ReadKeyword());
    Region region;
    if (keyword == "POLYGON") {
      CARDIR_RETURN_IF_ERROR(ParsePolygonBody(&region));
    } else if (keyword == "MULTIPOLYGON") {
      CARDIR_RETURN_IF_ERROR(Expect('('));
      for (;;) {
        CARDIR_RETURN_IF_ERROR(ParsePolygonBody(&region));
        SkipSpace();
        if (TryConsume(',')) continue;
        break;
      }
      CARDIR_RETURN_IF_ERROR(Expect(')'));
    } else {
      return Status::ParseError("unsupported WKT type '" + keyword +
                                "' (POLYGON and MULTIPOLYGON supported)");
    }
    SkipSpace();
    if (pos_ != input_.size()) {
      return Status::ParseError("trailing content after WKT geometry");
    }
    region.EnsureClockwise();
    CARDIR_RETURN_IF_ERROR(region.Validate());
    return region;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  bool TryConsume(char c) {
    SkipSpace();
    if (pos_ < input_.size() && input_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!TryConsume(c)) {
      return Status::ParseError(StrFormat("expected '%c' at offset %zu", c,
                                          pos_));
    }
    return Status::Ok();
  }

  Result<std::string> ReadKeyword() {
    SkipSpace();
    std::string keyword;
    while (pos_ < input_.size() &&
           std::isalpha(static_cast<unsigned char>(input_[pos_]))) {
      keyword += static_cast<char>(
          std::toupper(static_cast<unsigned char>(input_[pos_])));
      ++pos_;
    }
    if (keyword.empty()) return Status::ParseError("expected a WKT keyword");
    return keyword;
  }

  Result<double> ReadNumber() {
    SkipSpace();
    const char* start = input_.data() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) {
      return Status::ParseError(
          StrFormat("expected a number at offset %zu", pos_));
    }
    pos_ += static_cast<size_t>(end - start);
    return value;
  }

  // Parses "((ring) [, (hole)...])". A bare exterior ring is appended
  // as-is; rings with holes are decomposed into trapezoids (the Fig. 2
  // representation, generalised) so the result is a valid REG* region.
  Status ParsePolygonBody(Region* region) {
    SkipSpace();
    // "EMPTY" polygons carry no area and cannot be REG* members.
    if (input_.substr(pos_, 5) == "EMPTY") {
      return Status::ParseError("EMPTY geometries are not valid regions");
    }
    CARDIR_RETURN_IF_ERROR(Expect('('));
    Polygon outer;
    CARDIR_RETURN_IF_ERROR(ParseRing(&outer));
    std::vector<Polygon> holes;
    SkipSpace();
    while (TryConsume(',')) {
      Polygon hole;
      CARDIR_RETURN_IF_ERROR(ParseRing(&hole));
      holes.push_back(std::move(hole));
      SkipSpace();
    }
    CARDIR_RETURN_IF_ERROR(Expect(')'));
    if (holes.empty()) {
      region->AddPolygon(std::move(outer));
      return Status::Ok();
    }
    CARDIR_ASSIGN_OR_RETURN(Region decomposed,
                            DecomposePolygonWithHoles(outer, holes));
    for (const Polygon& piece : decomposed.polygons()) {
      region->AddPolygon(piece);
    }
    return Status::Ok();
  }

  Status ParseRing(Polygon* ring) {
    CARDIR_RETURN_IF_ERROR(Expect('('));
    for (;;) {
      CARDIR_ASSIGN_OR_RETURN(double x, ReadNumber());
      CARDIR_ASSIGN_OR_RETURN(double y, ReadNumber());
      ring->AddVertex(Point(x, y));
      SkipSpace();
      if (TryConsume(',')) continue;
      break;
    }
    CARDIR_RETURN_IF_ERROR(Expect(')'));
    // Drop the conventional repeated closing point.
    if (ring->size() >= 2 &&
        ring->vertices().front() == ring->vertices().back()) {
      std::vector<Point> open(ring->vertices().begin(),
                              ring->vertices().end() - 1);
      *ring = Polygon(std::move(open));
    }
    if (ring->size() < 3) {
      return Status::ParseError("ring with fewer than 3 distinct vertices");
    }
    return Status::Ok();
  }

  const std::string input_;
  size_t pos_ = 0;
};

}  // namespace

std::string ToWkt(const Region& region) {
  std::string out = "MULTIPOLYGON (";
  for (size_t p = 0; p < region.polygons().size(); ++p) {
    if (p > 0) out += ", ";
    out += "((";
    const Polygon& polygon = region.polygons()[p];
    for (size_t i = 0; i <= polygon.size(); ++i) {
      if (i > 0) out += ", ";
      const Point& v = polygon.vertex(i % polygon.size());
      out += FormatCoordinate(v.x);
      out += ' ';
      out += FormatCoordinate(v.y);
    }
    out += "))";
  }
  out += ")";
  return out;
}

Result<Region> RegionFromWkt(std::string_view wkt) {
  return WktParser(wkt).Parse();
}

}  // namespace cardir
