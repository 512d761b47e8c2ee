#include "index/directional_query.h"

#include <algorithm>

#include "core/compute_cdr.h"
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
  // The computed store's profile, or one built from the region boxes.
  const RelationStore* store = configuration_->relation_store();
  RegionProfile built;
  if (store == nullptr) {
    std::vector<Box> boxes;
    boxes.reserve(regions.size());
    for (const AnnotatedRegion& region : regions) {
      boxes.push_back(region.geometry.BoundingBox());
    }
    built = RegionProfile::FromBoxes(boxes);
  }
  const RegionProfile& profile = store != nullptr ? store->profile() : built;
  const uint16_t accept = ClassCodeAcceptMask(relation);
  size_t refined = 0;
  std::vector<std::string> results;
  for (size_t x = 0; x < regions.size(); ++x) {
    if (x == ref) continue;
    const uint8_t code = ClassPairCode(profile, x, ref);
    if (RelationStore::ResolvableCode(code)) {
      if (AcceptsClassCode(accept, code)) results.push_back(regions[x].id);
      continue;
    }
    ++refined;
    CARDIR_ASSIGN_OR_RETURN(
        const CardinalRelation actual,
        ComputeCdr(regions[x].geometry, reference->geometry));
    if (relation.Contains(actual)) results.push_back(regions[x].id);
  }
  std::sort(results.begin(), results.end());
  CARDIR_METRIC_COUNT("index.queries", 1);
  CARDIR_METRIC_COUNT("index.query.refined", refined);
  CARDIR_METRIC_COUNT("index.query.results", results.size());
  return results;
}

}  // namespace cardir
