// Directional queries over a CARDIRECT configuration: the query primitive
// "find all regions a with a R b" for a reference region b and a
// (disjunctive) relation R.
//
// One pass over the configuration's regions answers it with the query
// evaluator's DirectionDecider (cardirect/query.h): R becomes a class-code
// accept mask (ClassCodeAcceptMask, engine/interval_kernel.h), a candidate
// a whose ClassPairCode against b is resolvable is decided by one bit of
// it, and a kCross pair (about 3% on map-like inputs) by the sweep's
// resolution kernel on a's geometry — the one-axis shortcut, or Compute-CDR
// when both axes cross. The codes and polygon boxes are the computed
// engine's, or on an uncomputed or XML-loaded configuration built once per
// call from the geometry. No stored relation is read: neither the store's
// explicit pairs nor XML-loaded relation records. The answer therefore
// equals a brute-force Compute-CDR scan, and `query` decides the same pairs
// the same way.

#ifndef CARDIR_INDEX_DIRECTIONAL_QUERY_H_
#define CARDIR_INDEX_DIRECTIONAL_QUERY_H_

#include <string>
#include <vector>

#include "cardirect/model.h"
#include "reasoning/disjunctive_relation.h"

namespace cardir {

/// A directional query engine over one configuration. It answers from the
/// geometry through a DirectionDecider per call. The configuration must
/// outlive the engine; queries see its current regions.
class DirectionalIndex {
 public:
  /// Binds the configuration; builds nothing and never fails.
  static Result<DirectionalIndex> Build(const Configuration& configuration);

  /// Ids, sorted, of all regions a (≠ reference) whose relation
  /// `a R reference` is a member of the disjunction. NotFound for an
  /// unknown reference id. Counts `index.query.refined` (kCross pairs,
  /// which the resolution kernel decided) and `index.query.results`.
  Result<std::vector<std::string>> FindMatching(
      const std::string& reference_id,
      const DisjunctiveRelation& relation) const;

 private:
  explicit DirectionalIndex(const Configuration& configuration)
      : configuration_(&configuration) {}

  const Configuration* configuration_;
};

}  // namespace cardir

#endif  // CARDIR_INDEX_DIRECTIONAL_QUERY_H_
