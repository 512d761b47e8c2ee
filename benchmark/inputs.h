// Benchmark-owned input generation: maps and overlapping region sets as
// DTD-shaped XML text, plus the edit and anchor scripts the workloads
// replay.
//
// Nothing here calls the library, so a change to the library (including its
// own workload generators) cannot change the inputs it is measured on. Every
// input is a pure function of (workload, seed); InputDigest fingerprints the
// bytes so two commits can be shown to have run identical inputs. The
// inputs are shaped so that ops of one workload do alike work whatever the
// seed (fixed-width ids, exact colour shares, balanced edit blocks,
// stratified anchors); only then is a run's fastest op a steady metric.

#ifndef CARDIR_BENCHMARK_INPUTS_H_
#define CARDIR_BENCHMARK_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/// xoshiro256** seeded through SplitMix64.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform in [0, n); n > 0.
  size_t Below(size_t n);

 private:
  uint64_t s_[4];
};

struct Pt {
  double x = 0.0;
  double y = 0.0;
};

/// One polygon ring, clockwise, no repeated closing vertex. Every ring is a
/// star: strictly decreasing angles around its box's centre (so it is
/// simple) and radii in [0.35, 1] of the half-extent.
using Ring = std::vector<Pt>;

/// Side of the square grid a map of `n` regions is laid out on.
int GridSide(int n);

struct InputRegion {
  std::string id;
  std::string color;
  Ring ring;
};

/// A region set plus the canvas it lives on.
struct RegionSet {
  std::vector<InputRegion> regions;
  double cell = 0.0;  ///< Map cell side (0 for overlap sets).
};

/// `n` disjoint-cell regions on a GridSide(n)² grid over [0, 1000]², in
/// row-major order: one 8-vertex star per cell with 5% padding, a quarter
/// each red/green/blue/yellow.
RegionSet MapRegions(uint64_t seed, int n);

/// `n` heavily overlapping 10-vertex stars, squares of side 40..160 placed
/// uniformly in [0, 400]²: most pairs cross an mbb line.
RegionSet OverlapRegions(uint64_t seed, int n);

/// The DTD-shaped XML text of a regions-only configuration, coordinates
/// written with %.17g (exact round trip).
std::string ToXml(const RegionSet& set, const std::string& name);

/// One scripted configuration mutation.
struct EditOp {
  enum class Kind { kAddPolygon, kAddRegion, kRemoveRegion };
  Kind kind = Kind::kAddPolygon;
  std::string id;     ///< Target region (or the new region's id).
  std::string color;  ///< kAddRegion only.
  Ring ring;          ///< kAddPolygon / kAddRegion only.
};

/// Edits come in blocks of this many: 5 AddPolygonToRegion, 3 AddRegion and
/// 2 RemoveRegion in a shuffled order, the two removes at ranks u and 1 - u
/// of the live regions.
inline constexpr int kEditBlock = 10;

/// `count` edits against `set`, in blocks of kEditBlock. The generator
/// tracks the live regions and their boxes, so every op is valid when
/// replayed in order: removes and polygon adds target live regions, and an
/// added polygon sits just outside its region's current box (interiors stay
/// disjoint).
std::vector<EditOp> EditScript(uint64_t seed, const RegionSet& set, int count);

/// Reads come in blocks of this many, one anchor in each cell of a 4 × 4
/// partition of the map, so every block covers the map alike.
inline constexpr int kReadBlock = 16;

/// `reads` read anchors for a map of `n` regions, as ranks into the live
/// regions (taken modulo their count when replayed).
std::vector<size_t> AnchorScript(uint64_t seed, int n, int reads);

/// FNV-1a 64 over arbitrary bytes, chained through `h`.
uint64_t Fnv1a(const void* data, size_t size,
               uint64_t h = 1469598103934665603ULL);

/// Fingerprint of the generated inputs (XML text and scripts).
uint64_t InputDigest(const std::string& xml, const std::vector<EditOp>& edits,
                     const std::vector<size_t>& anchors);

}  // namespace bench

#endif  // CARDIR_BENCHMARK_INPUTS_H_
