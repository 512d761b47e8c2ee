// Directional queries over a CARDIRECT configuration: the query primitive
// "find all regions a with a R b" for a reference region b and a
// (disjunctive) relation R.
//
// One pass over the configuration's regions answers it with the direction
// atom the query evaluator compiles (cardirect/query.h): R becomes a
// class-code accept mask (ClassCodeAcceptMask, engine/interval_kernel.h),
// and a candidate a whose ClassPairCode against b is resolvable is decided
// by one bit of it. The codes come from a box profile: the computed
// store's, or on an uncomputed or XML-loaded configuration one built per
// call from the region boxes. Only kCross pairs (about 3% on map-like
// inputs) run the exact Compute-CDR. The store's explicit relations are
// not read: on a base or patched row that read ranks the pair in O(n)
// (RelationStore::Relation), which costs more than Compute-CDR on these
// pairs. The answer therefore equals a brute-force Compute-CDR scan, and
// XML-loaded relation records are never read.

#ifndef CARDIR_INDEX_DIRECTIONAL_QUERY_H_
#define CARDIR_INDEX_DIRECTIONAL_QUERY_H_

#include <string>
#include <vector>

#include "cardirect/model.h"
#include "reasoning/disjunctive_relation.h"

namespace cardir {

/// A directional query engine over one configuration. It answers from the
/// geometry, classifying through the computed store's box profile when
/// there is one. The configuration must outlive the engine; queries see
/// its current regions.
class DirectionalIndex {
 public:
  /// Binds the configuration; builds nothing and never fails.
  static Result<DirectionalIndex> Build(const Configuration& configuration);

  /// Ids, sorted, of all regions a (≠ reference) whose relation
  /// `a R reference` is a member of the disjunction. NotFound for an
  /// unknown reference id; Compute-CDR's error for a pair it rejects.
  /// Counts `index.query.refined` (kCross pairs, which ran Compute-CDR)
  /// and `index.query.results`.
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
