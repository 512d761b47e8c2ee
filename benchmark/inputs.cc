#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numbers>
#include <utility>

namespace bench {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

const char* const kColors[] = {"red", "green", "blue", "yellow"};

// Fixed-width ids, so comparing two ids costs the same whichever they are.
std::string Id(char prefix, int i) {
  char buffer[16];
  std::snprintf(buffer, sizeof(buffer), "%c%06d", prefix, i);
  return buffer;
}

// Exactly n/4 regions of each colour (±1), in a random order.
std::vector<const char*> BalancedColors(Rng* rng, int n) {
  std::vector<const char*> colors(static_cast<size_t>(n));
  for (size_t i = 0; i < colors.size(); ++i) colors[i] = kColors[i % 4];
  for (size_t i = colors.size(); i > 1; --i) {
    std::swap(colors[i - 1], colors[rng->Below(i)]);
  }
  return colors;
}

void AppendCoordinate(std::string* out, const char* name, double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), " %s=\"%.17g\"", name, value);
  *out += buffer;
}

struct BoxD {
  double min_x, min_y, max_x, max_y;
};

BoxD BoundsOf(const Ring& ring) {
  BoxD box{ring[0].x, ring[0].y, ring[0].x, ring[0].y};
  for (const Pt& p : ring) {
    box.min_x = std::min(box.min_x, p.x);
    box.min_y = std::min(box.min_y, p.y);
    box.max_x = std::max(box.max_x, p.x);
    box.max_y = std::max(box.max_y, p.y);
  }
  return box;
}

Ring StarRing(Rng* rng, const BoxD& box, int vertices) {
  const double cx = 0.5 * (box.min_x + box.max_x);
  const double cy = 0.5 * (box.min_y + box.max_y);
  const double radius =
      0.5 * std::min(box.max_x - box.min_x, box.max_y - box.min_y);
  std::vector<double> gaps(static_cast<size_t>(vertices));
  double total = 0.0;
  for (double& gap : gaps) {
    gap = 0.05 + rng->Uniform(0.0, 1.0);
    total += gap;
  }
  Ring ring;
  ring.reserve(gaps.size());
  double angle = rng->Uniform(0.0, 2.0 * std::numbers::pi);
  for (double gap : gaps) {
    angle -= gap / total * 2.0 * std::numbers::pi;
    const double r = radius * rng->Uniform(0.35, 1.0);
    ring.push_back({cx + r * std::cos(angle), cy + r * std::sin(angle)});
  }
  return ring;
}

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix64(&seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t Rng::Below(size_t n) { return static_cast<size_t>(Next() % n); }

int GridSide(int n) { return static_cast<int>(std::ceil(std::sqrt(n))); }

RegionSet MapRegions(uint64_t seed, int n) {
  Rng rng(seed ^ 0x6d6170ULL);
  RegionSet set;
  const int grid = GridSide(n);
  set.cell = 1000.0 / grid;
  const double pad = 0.05 * set.cell;
  const std::vector<const char*> colors = BalancedColors(&rng, n);
  set.regions.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double x = (i % grid) * set.cell;
    const double y = (i / grid) * set.cell;
    const BoxD cell{x + pad, y + pad, x + set.cell - pad, y + set.cell - pad};
    set.regions.push_back({Id('r', i), colors[static_cast<size_t>(i)],
                           StarRing(&rng, cell, 8)});
  }
  return set;
}

RegionSet OverlapRegions(uint64_t seed, int n) {
  Rng rng(seed ^ 0x6f766cULL);
  RegionSet set;
  const std::vector<const char*> colors = BalancedColors(&rng, n);
  set.regions.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double side = rng.Uniform(40.0, 160.0);
    const double x = rng.Uniform(0.0, 400.0 - side);
    const double y = rng.Uniform(0.0, 400.0 - side);
    set.regions.push_back({Id('o', i), colors[static_cast<size_t>(i)],
                           StarRing(&rng, {x, y, x + side, y + side}, 10)});
  }
  return set;
}

std::string ToXml(const RegionSet& set, const std::string& name) {
  std::string out =
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE Image SYSTEM \"cardirect.dtd\">\n<Image name=\"" +
      name + "\" file=\"" + name + ".png\">\n";
  for (const InputRegion& region : set.regions) {
    out += "  <Region id=\"" + region.id + "\" color=\"" + region.color +
           "\">\n    <Polygon id=\"" + region.id + "-p0\">\n";
    for (const Pt& p : region.ring) {
      out += "      <Edge";
      AppendCoordinate(&out, "x", p.x);
      AppendCoordinate(&out, "y", p.y);
      out += "/>\n";
    }
    out += "    </Polygon>\n  </Region>\n";
  }
  out += "</Image>\n";
  return out;
}

std::vector<EditOp> EditScript(uint64_t seed, const RegionSet& set,
                               int count) {
  Rng rng(seed ^ 0x656469ULL);
  // The live regions in configuration order (appends at the end, removes
  // keep the order), so a rank here is the region's index when replayed.
  struct Live {
    std::string id;
    BoxD box;
  };
  std::vector<Live> live;
  live.reserve(set.regions.size() + static_cast<size_t>(count));
  for (const InputRegion& region : set.regions) {
    live.push_back({region.id, BoundsOf(region.ring)});
  }
  const double cell = set.cell;
  std::vector<EditOp> script;
  script.reserve(static_cast<size_t>(count));
  EditOp::Kind block[kEditBlock];
  double remove_at = 0;  // The block's two removes sit at remove_at, 1 - it.
  for (int e = 0; e < count; ++e) {
    if (e % kEditBlock == 0) {
      for (int k = 0; k < kEditBlock; ++k) {
        block[k] = k < 5   ? EditOp::Kind::kAddPolygon
                   : k < 8 ? EditOp::Kind::kAddRegion
                           : EditOp::Kind::kRemoveRegion;
      }
      for (int k = kEditBlock - 1; k > 0; --k) {
        std::swap(block[k], block[rng.Below(static_cast<size_t>(k) + 1)]);
      }
      remove_at = rng.Uniform(0.0, 1.0);
    }
    EditOp op;
    op.kind = block[e % kEditBlock];
    if (op.kind == EditOp::Kind::kAddPolygon) {
      // A new polygon of cell size just past one side of the region's box.
      Live& target = live[rng.Below(live.size())];
      const BoxD& b = target.box;
      const double side = 0.6 * cell;
      const double gap = 0.05 * cell;
      const double mx = 0.5 * (b.min_x + b.max_x) - 0.5 * side;
      const double my = 0.5 * (b.min_y + b.max_y) - 0.5 * side;
      BoxD at{};
      switch (rng.Below(4)) {
        case 0: at = {b.max_x + gap, my, b.max_x + gap + side, my + side}; break;
        case 1: at = {b.min_x - gap - side, my, b.min_x - gap, my + side}; break;
        case 2: at = {mx, b.max_y + gap, mx + side, b.max_y + gap + side}; break;
        default: at = {mx, b.min_y - gap - side, mx + side, b.min_y - gap}; break;
      }
      op.id = target.id;
      op.ring = StarRing(&rng, at, 8);
      const BoxD added = BoundsOf(op.ring);
      target.box = {std::min(b.min_x, added.min_x), std::min(b.min_y, added.min_y),
                    std::max(b.max_x, added.max_x), std::max(b.max_y, added.max_y)};
    } else if (op.kind == EditOp::Kind::kAddRegion) {
      const double x = rng.Uniform(0.0, 1000.0 - cell);
      const double y = rng.Uniform(0.0, 1000.0 - cell);
      op.id = Id('e', e);
      op.color = kColors[rng.Below(4)];
      op.ring = StarRing(&rng, {x, y, x + cell, y + cell}, 8);
      live.push_back({op.id, BoundsOf(op.ring)});
    } else {
      // A remove costs more the lower its region's index; the block's pair
      // of removes at ranks u and 1 - u keeps every block's cost alike.
      const auto victim = std::min(
          live.size() - 1,
          static_cast<size_t>(remove_at * static_cast<double>(live.size())));
      remove_at = 1.0 - remove_at;
      op.id = live[victim].id;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    script.push_back(std::move(op));
  }
  return script;
}

std::vector<size_t> AnchorScript(uint64_t seed, int n, int reads) {
  Rng rng(seed ^ 0x726561ULL);
  const int grid = GridSide(n);
  std::vector<size_t> anchors;
  anchors.reserve(static_cast<size_t>(reads));
  for (int r = 0; r < reads; ++r) {
    const int stratum = r % kReadBlock;
    const double fx = (stratum % 4 + rng.Uniform(0.0, 1.0)) / 4.0;
    const double fy = (stratum / 4 + rng.Uniform(0.0, 1.0)) / 4.0;
    const int col = std::min(grid - 1, static_cast<int>(fx * grid));
    const int row = std::min(grid - 1, static_cast<int>(fy * grid));
    anchors.push_back(static_cast<size_t>(row * grid + col));
  }
  return anchors;
}

uint64_t Fnv1a(const void* data, size_t size, uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t InputDigest(const std::string& xml, const std::vector<EditOp>& edits,
                     const std::vector<size_t>& anchors) {
  uint64_t h = Fnv1a(xml.data(), xml.size());
  for (const EditOp& op : edits) {
    const int kind = static_cast<int>(op.kind);
    h = Fnv1a(&kind, sizeof(kind), h);
    h = Fnv1a(op.id.data(), op.id.size(), h);
    h = Fnv1a(op.color.data(), op.color.size(), h);
    for (const Pt& p : op.ring) h = Fnv1a(&p, sizeof(p), h);
  }
  return Fnv1a(anchors.data(), anchors.size() * sizeof(size_t), h);
}

}  // namespace bench
