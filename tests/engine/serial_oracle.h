// The serial Compute-CDR oracle the sweep and delta models are checked
// against: the plain nested loop over every ordered pair, in canonical
// row-major order (primary 0's references in index order first, then
// primary 1, ...), each pair run through the validated ComputeCdr.

#ifndef CARDIR_TESTS_ENGINE_SERIAL_ORACLE_H_
#define CARDIR_TESTS_ENGINE_SERIAL_ORACLE_H_

#include <cstdint>
#include <vector>

#include "core/compute_cdr.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "gtest/gtest.h"

namespace cardir {

/// The relation mask of every ordered pair (i ≠ j), row-major.
inline std::vector<uint16_t> SerialMasks(const std::vector<Region>& regions) {
  std::vector<uint16_t> masks;
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = 0; j < regions.size(); ++j) {
      if (i == j) continue;
      const Result<CardinalRelation> relation =
          ComputeCdr(regions[i], regions[j]);
      EXPECT_TRUE(relation.ok()) << relation.status();
      masks.push_back(relation.ok() ? relation->mask() : 0);
    }
  }
  return masks;
}

/// The MixPairDigest sum over SerialMasks — comparable with
/// RelationStore::Digest and DeltaEngine::Digest.
inline uint64_t SerialDigest(const std::vector<Region>& regions) {
  const std::vector<uint16_t> masks = SerialMasks(regions);
  uint64_t digest = 0;
  size_t k = 0;
  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = 0; j < regions.size(); ++j) {
      if (i != j) digest += MixPairDigest(i, j, masks[k++]);
    }
  }
  return digest;
}

}  // namespace cardir

#endif  // CARDIR_TESTS_ENGINE_SERIAL_ORACLE_H_
