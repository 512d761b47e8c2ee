// The CARDIRECT query language (paper §4), extended with the combinations
// §5 lists as future work (topological and distance relations, richer
// thematic conditions).
//
// A query q = {(x1, ..., xn) | φ(x1, ..., xn)} returns all tuples of
// configuration regions satisfying the conjunctive condition φ, whose atoms
// are:
//   * identity:    x = Attica           (region id, or name as fallback)
//   * thematic:    color(x) = red       (also name(x) = value)
//   * direction:   x R y                with R a basic relation ("B:S:SW")
//                                       or a disjunctive one ("{N, N:NE}")
//   * topological: x overlap y          (RCC8: disjoint, meet, overlap,
//                                       equal, inside, coveredBy, contains,
//                                       covers — extensions/topology.h)
//   * distance:    x close y            (veryClose, close, commensurate,
//                                       far, veryFar — extensions/distance.h)
//   * numeric:     area(x) < 100, distance(x, y) < 25
//   * percentage:  percent(x, NE, y) > 50   (the Compute-CDR% matrix entry:
//                                           the share of x's area in the NE
//                                           tile of y, in percent)
//
// Concrete syntax (the paper's query, verbatim modulo ASCII):
//   (a, b) | color(a) = red, color(b) = blue, a S:SW:W:NW:N:NE:E:SE b
//
// Evaluation compiles the query once: variables resolve to head indices,
// bindings are positions in regions(), and each binary atom is checked at
// the search depth where the later of its two variables binds. A
// direction atom's relation compiles to a 16-bit accept mask over
// class-pair codes (ClassCodeAcceptMask, engine/interval_kernel.h), and
// every direction pair is decided by the DirectionDecider below: the
// pair's class code and one mask bit, which decides 95–98% of pairs on
// map-like inputs, and for a kCross pair the sweep's resolution kernel.
// A direction atom is therefore decided from the geometry in every state
// of the configuration — uncomputed, computed, edited or loaded from XML —
// and never from a stored relation: XML-loaded <Relation> records are not
// read. Topological, distance, distance() and percent() atoms are computed
// from the geometry too, afresh each time a binding is checked; nothing is
// cached.
//
// Each evaluation runs in a `query.eval` span and adds, once per query,
// `query.bindings` (candidates bound, over all variables),
// `query.direction.implicit` (pairs the accept mask decided) and
// `query.direction.explicit` (kCross pairs the resolution kernel decided).

#ifndef CARDIR_CARDIRECT_QUERY_H_
#define CARDIR_CARDIRECT_QUERY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cardirect/model.h"
#include "core/compute_cdr.h"
#include "engine/interval_index.h"
#include "engine/interval_kernel.h"
#include "engine/relation_store.h"
#include "extensions/distance.h"
#include "extensions/topology.h"
#include "reasoning/disjunctive_relation.h"
#include "util/status.h"

namespace cardir {

/// x = <region id or name>.
struct IdentityCondition {
  std::string variable;
  std::string region;
};

/// attribute(x) = value; attribute ∈ {color, name}.
struct ThematicCondition {
  std::string variable;
  std::string attribute;
  std::string value;
};

/// x R y (possibly disjunctive R).
struct DirectionCondition {
  std::string primary_variable;
  std::string reference_variable;
  DisjunctiveRelation relation;
};

/// x overlap y, x inside y, ... (RCC8 keyword atoms).
struct TopologyCondition {
  std::string primary_variable;
  std::string reference_variable;
  TopologicalRelation relation;
};

/// x close y, x far y, ... (qualitative distance keyword atoms).
struct DistanceCondition {
  std::string primary_variable;
  std::string reference_variable;
  DistanceRelation relation;
};

/// area(x) < v | area(x) > v | distance(x, y) < v | distance(x, y) > v.
struct NumericCondition {
  enum class Kind { kArea, kDistance };
  Kind kind;
  std::string primary_variable;
  std::string reference_variable;  ///< Empty for kArea.
  bool less_than = true;           ///< false means strictly greater.
  double value = 0.0;
};

/// percent(x, T, y) < v | > v: the Compute-CDR% percentage of x falling in
/// tile T of y.
struct PercentCondition {
  std::string primary_variable;
  Tile tile;
  std::string reference_variable;
  bool less_than = true;
  double value = 0.0;
};

/// The most head variables a query may declare: evaluation recurses once
/// per head variable, so a longer head is a ParseError.
inline constexpr size_t kMaxQueryVariables = 64;

/// A parsed query.
struct Query {
  std::vector<std::string> variables;
  std::vector<IdentityCondition> identity_conditions;
  std::vector<ThematicCondition> thematic_conditions;
  std::vector<DirectionCondition> direction_conditions;
  std::vector<TopologyCondition> topology_conditions;
  std::vector<DistanceCondition> distance_conditions;
  std::vector<NumericCondition> numeric_conditions;
  std::vector<PercentCondition> percent_conditions;

  /// Parses the concrete syntax above. All condition variables must be
  /// declared in the head, which holds at most kMaxQueryVariables; unknown
  /// tile names and malformed atoms are rejected.
  static Result<Query> Parse(std::string_view text);
};

/// One result tuple: region ids in variable order.
struct QueryRow {
  std::vector<std::string> region_ids;

  friend bool operator==(const QueryRow& a, const QueryRow& b) {
    return a.region_ids == b.region_ids;
  }
  friend bool operator<(const QueryRow& a, const QueryRow& b) {
    return a.region_ids < b.region_ids;
  }
};

/// All rows, in lexicographic region-id order.
struct QueryResult {
  std::vector<std::string> variables;
  std::vector<QueryRow> rows;
};

/// Decides direction atoms `x R y` between regions of one configuration
/// the one way the sweep and the delta engine decide a pair: the class-pair
/// code of the two boxes (ClassPairCode) settles R by one bit of its accept
/// mask when the boxes alone decide the pair; a kCross pair (boxes crossing
/// a reference line) runs the sweep's resolution kernel on x's geometry
/// (ResolveExplicitMask: the one-axis shortcut, or Compute-CDR when both
/// axes cross or a box is degenerate). On a computed configuration the
/// decider borrows the store's box profile and the engine's polygon boxes,
/// unsynchronized like DeltaEngine::store(); on any other it builds both
/// once, from the geometry. It reads no stored relation — neither the
/// store's explicit pairs nor XML-loaded <Relation> records — so its answer
/// is the relation ComputeAllRelations would store. One decider per thread;
/// the configuration must outlive it unchanged.
class DirectionDecider {
 public:
  explicit DirectionDecider(const Configuration& configuration);
  DirectionDecider(const DirectionDecider&) = delete;
  DirectionDecider& operator=(const DirectionDecider&) = delete;
  /// Flushes the core.* Compute-CDR counters of the pairs it resolved.
  ~DirectionDecider() { cdr_metrics_.FlushToRegistry(); }

  /// Whether regions()[x] R regions()[y], for positions x ≠ y, where
  /// `accept` is ClassCodeAcceptMask(relation).
  bool Holds(size_t x, size_t y, const DisjunctiveRelation& relation,
             uint16_t accept) {
    const uint8_t code = ClassPairCode(*profile_, x, y);
    if (RelationStore::ResolvableCode(code)) {
      ++implicit_pairs_;
      return AcceptsClassCode(accept, code);
    }
    ++explicit_pairs_;
    return relation.Contains(CardinalRelation::FromMask(Resolve(code, x, y)));
  }

  /// Pairs an accept-mask bit decided.
  uint64_t implicit_pairs() const { return implicit_pairs_; }
  /// kCross pairs the resolution kernel decided.
  uint64_t explicit_pairs() const { return explicit_pairs_; }

 private:
  uint16_t Resolve(uint8_t code, size_t x, size_t y);

  const std::vector<AnnotatedRegion>& regions_;
  RegionProfile built_profile_;  // Empty on a computed configuration…
  PolygonBoxes built_poly_;      // …as is this.
  const RegionProfile* profile_ = &built_profile_;
  const PolygonBoxes* poly_ = &built_poly_;
  CdrMetricsDelta cdr_metrics_;
  CdrScratch scratch_;
  uint64_t implicit_pairs_ = 0;
  uint64_t explicit_pairs_ = 0;
};

/// Evaluates `query` over `configuration`. Distinct variables may bind the
/// same region only when no binary atom relates them: every direction,
/// topological, distance, distance() and percent() atom rejects a binding
/// of both its variables to one region (a region has no cardinal direction
/// relation to itself). An atom naming a variable the head does not
/// declare (only a hand-built Query can) is an InvalidArgument.
Result<QueryResult> EvaluateQuery(const Configuration& configuration,
                                  const Query& query);

/// Parse-and-evaluate convenience.
Result<QueryResult> EvaluateQuery(const Configuration& configuration,
                                  std::string_view query_text);

}  // namespace cardir

#endif  // CARDIR_CARDIRECT_QUERY_H_
