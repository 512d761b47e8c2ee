#include "index/directional_query.h"

#include <algorithm>

#include "cardirect/query.h"
#include "engine/interval_kernel.h"
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
  const std::vector<AnnotatedRegion>& regions = configuration_->regions();
  const size_t ref = static_cast<size_t>(reference - regions.data());
  const uint16_t accept = ClassCodeAcceptMask(relation);
  DirectionDecider decider(*configuration_);
  std::vector<std::string> results;
  for (size_t x = 0; x < regions.size(); ++x) {
    if (x != ref && decider.Holds(x, ref, relation, accept)) {
      results.push_back(regions[x].id);
    }
  }
  std::sort(results.begin(), results.end());
  CARDIR_METRIC_COUNT("index.queries", 1);
  CARDIR_METRIC_COUNT("index.query.refined", decider.explicit_pairs());
  CARDIR_METRIC_COUNT("index.query.results", results.size());
  return results;
}

}  // namespace cardir
