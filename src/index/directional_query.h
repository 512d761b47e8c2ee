// Directional queries over a CARDIRECT configuration: the query primitive
// "find all regions a with a R b" for a reference region b and a
// (disjunctive) relation R.
//
// One pass over the configuration's regions answers it. For each candidate
// a, the box classification MbbPrefilterRelation(mbb(a), mbb(b))
// (engine/prefilter.h) yields the relation whenever mbb(a) lies in a single
// closed tile of b. Only the pairs the boxes cannot decide run the exact
// Compute-CDR. The box rule is the per-pair semantics reference the sweep
// engine's interval kernel is checked against, so the answer equals a
// brute-force Compute-CDR scan.

#ifndef CARDIR_INDEX_DIRECTIONAL_QUERY_H_
#define CARDIR_INDEX_DIRECTIONAL_QUERY_H_

#include <string>
#include <vector>

#include "cardirect/model.h"
#include "reasoning/disjunctive_relation.h"

namespace cardir {

/// A directional query engine over one configuration. It answers from the
/// geometry, not from stored relations. The configuration must outlive the
/// engine; queries see its current regions.
class DirectionalIndex {
 public:
  /// Binds the configuration; builds nothing and never fails.
  static Result<DirectionalIndex> Build(const Configuration& configuration);

  /// Ids, sorted, of all regions a (≠ reference) whose relation
  /// `a R reference` is a member of the disjunction. NotFound for an
  /// unknown reference id; Compute-CDR's error for a pair it rejects.
  /// Counts `index.query.refined` (pairs that ran Compute-CDR) and
  /// `index.query.results`.
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
