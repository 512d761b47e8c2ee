#include "index/directional_query.h"

#include <algorithm>
#include <optional>

#include "core/compute_cdr.h"
#include "engine/prefilter.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cardir {

Result<DirectionalIndex> DirectionalIndex::Build(
    const Configuration& configuration) {
  return DirectionalIndex(configuration);
}

Result<std::vector<std::string>> DirectionalIndex::FindMatching(
    const std::string& reference_id,
    const DisjunctiveRelation& relation) const {
  CARDIR_TRACE_SPAN("index.query");
  const AnnotatedRegion* reference = configuration_->FindRegion(reference_id);
  if (reference == nullptr) {
    return Status::NotFound("no region with id '" + reference_id + "'");
  }
  const Box mbb = reference->geometry.BoundingBox();
  size_t refined = 0;
  std::vector<std::string> results;
  for (const AnnotatedRegion& candidate : configuration_->regions()) {
    if (&candidate == reference) continue;
    std::optional<CardinalRelation> actual =
        MbbPrefilterRelation(candidate.geometry.BoundingBox(), mbb);
    if (!actual.has_value()) {
      ++refined;
      CARDIR_ASSIGN_OR_RETURN(
          actual, ComputeCdr(candidate.geometry, reference->geometry));
    }
    if (relation.Contains(*actual)) results.push_back(candidate.id);
  }
  std::sort(results.begin(), results.end());
  CARDIR_METRIC_COUNT("index.queries", 1);
  CARDIR_METRIC_COUNT("index.query.refined", refined);
  CARDIR_METRIC_COUNT("index.query.results", results.size());
  return results;
}

}  // namespace cardir
