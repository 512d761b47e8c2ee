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
// class-pair codes (ClassCodeAcceptMask, engine/interval_kernel.h). On a
// computed configuration a pair is then one ClassPairCode over the store's
// box profile and a bit test, which decides 95–98% of pairs on map-like
// inputs; only kCross pairs read RelationStore::Relation. An XML-loaded
// configuration reads its <Relation> records per pair, and a pair no
// record states (or any pair of an uncomputed configuration) runs
// Compute-CDR. Topological, distance, distance() and percent() atoms are
// always computed from the geometry, afresh each time a binding is
// checked; nothing is cached.
//
// Each evaluation runs in a `query.eval` span and adds, once per query,
// `query.bindings` (candidates bound, over all variables),
// `query.direction.implicit` (pairs the accept mask decided),
// `query.direction.explicit` (kCross pairs read from the store) and
// `query.direction.computed` (pairs read from a record or computed).

#ifndef CARDIR_CARDIRECT_QUERY_H_
#define CARDIR_CARDIRECT_QUERY_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "cardirect/model.h"
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
