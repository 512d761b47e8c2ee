// The CARDIRECT configuration model (paper §4).
//
// A configuration ("Image" in the paper's DTD) is defined upon an image file
// and comprises a set of annotated regions plus the direction relations
// computed between them. Each region has an id, an optional name, a thematic
// color attribute, and a set of polygons.

#ifndef CARDIR_CARDIRECT_MODEL_H_
#define CARDIR_CARDIRECT_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cardinal_relation.h"
#include "core/percentage_matrix.h"
#include "engine/delta_engine.h"
#include "engine/relation_store.h"
#include "geometry/region.h"
#include "util/status.h"

namespace cardir {

/// A user-annotated region of interest.
struct AnnotatedRegion {
  std::string id;     ///< Required, unique within the configuration.
  std::string name;   ///< Optional display name.
  std::string color;  ///< Thematic attribute (paper §4: f(x) = color).
  Region geometry;
};

/// A stored qualitative relation: `primary` R `reference`.
struct RelationRecord {
  std::string primary_id;
  std::string reference_id;
  CardinalRelation relation;
};

/// A CARDIRECT configuration (the DTD's Image element).
///
/// Regions are addressed by id through a hash index over their positions in
/// regions(), so every id-keyed call below resolves its ids in O(1)
/// expected time.
class Configuration {
 public:
  Configuration() = default;
  Configuration(std::string name, std::string image_file)
      : name_(std::move(name)), image_file_(std::move(image_file)) {}

  const std::string& name() const { return name_; }
  const std::string& image_file() const { return image_file_; }
  void set_name(std::string name) { name_ = std::move(name); }
  void set_image_file(std::string file) { image_file_ = std::move(file); }

  const std::vector<AnnotatedRegion>& regions() const { return regions_; }

  /// The *explicit* relation records — ones loaded from XML. Computed
  /// relations live in the delta engine's store instead (45 bytes/region +
  /// 2 bytes per crossing pair, vs ~56 bytes per pair here — n·(n−1)
  /// records defeat the engine's sub-quadratic memory); consumers that want
  /// "all stored relations" regardless of provenance iterate
  /// ForEachRelation / count relation_count.
  const std::vector<RelationRecord>& relations() const { return relations_; }

  /// Stored relations, from whichever representation holds them: the
  /// computed, delta-maintained RelationStore when present, the explicit
  /// records otherwise.
  size_t relation_count() const {
    const RelationStore* store = relation_store();
    return store != nullptr ? store->pair_count() : relations_.size();
  }
  bool has_relations() const { return relation_count() != 0; }

  /// Invokes `fn(primary_id, reference_id, relation)` for every stored
  /// relation, in canonical (primary, reference) row-major order — the
  /// order ComputeAllRelations has always produced, so XML output is
  /// byte-identical whichever representation backs the configuration.
  template <typename Fn>
  void ForEachRelation(Fn&& fn) const {
    ForEachRelationAt(
        [this, &fn](size_t i, size_t j, const CardinalRelation& relation) {
          fn(regions_[i].id, regions_[j].id, relation);
        });
  }

  /// ForEachRelation with the two regions' positions in regions() in place
  /// of their ids: `fn(primary, reference, relation)`. An XML-loaded
  /// record's two ids resolve through the id index, O(1) expected each;
  /// both always name a region (SetRelations admits no other record, and
  /// the edits drop the records of the regions they change).
  template <typename Fn>
  void ForEachRelationAt(Fn&& fn) const {
    const RelationStore* store = relation_store();
    if (store != nullptr) {
      store->ForEach(fn);
    } else {
      for (const RelationRecord& record : relations_) {
        fn(PositionOf(record.primary_id), PositionOf(record.reference_id),
           record.relation);
      }
    }
  }

  /// The computed relation store (the delta engine's), or nullptr when
  /// none was computed or relations were loaded from XML (telemetry).
  const RelationStore* relation_store() const {
    return delta_.has_value() ? &delta_->store() : nullptr;
  }

  /// The incremental engine holding the computed relations, engaged by
  /// every successful ComputeAllRelations. DirectionDecider
  /// (cardirect/query.h) borrows its box profile and polygon boxes.
  const DeltaEngine* delta_engine() const {
    return delta_.has_value() ? &*delta_ : nullptr;
  }

  /// Adds a region; fails on an empty id (InvalidArgument), a duplicate id
  /// (AlreadyExists, checked before the geometry) or invalid geometry.
  /// Polygon rings are reoriented to the canonical clockwise order. On a
  /// computed configuration the new region's relations are resolved
  /// incrementally (DeltaEngine::Insert) — the store stays complete, no
  /// recompute needed. The duplicate check is O(1) expected; indexing the
  /// new id is O(1) amortized.
  Status AddRegion(AnnotatedRegion region);

  /// Removes the region with `id` and every stored relation touching it.
  /// On a computed configuration the store is delta-maintained
  /// (DeltaEngine::Remove); all other pairs keep their stored relations.
  /// O(n) memmove-class work: every region after the removed one shifts
  /// down one position and the id index renumbers with it; the delta
  /// engine re-resolves nothing, and splices and renumbers its per-region
  /// arrays, interval indexes and store in place (no re-sort, no rehash).
  Status RemoveRegion(const std::string& id);

  /// Appends one more polygon to an existing region (regions in REG* are
  /// sets of polygons). The ring is reoriented to clockwise and validated.
  /// On a computed configuration the region's relations are re-resolved
  /// incrementally (DeltaEngine::Move); XML-loaded records touching the
  /// region are dropped as stale instead. Finding the region is O(1)
  /// expected.
  Status AddPolygonToRegion(const std::string& id, Polygon polygon);

  /// The region with `id`, or nullptr. O(1) expected.
  const AnnotatedRegion* FindRegion(const std::string& id) const;

  /// Regions carrying thematic color `color`.
  std::vector<const AnnotatedRegion*> RegionsByColor(
      const std::string& color) const;

  /// Recomputes all pairwise cardinal direction relations and stores them
  /// (the paper's "compute their relationships" action — Fig. 12) in a
  /// DeltaEngine whose RelationStore covers the n·(n−1) ordered pairs in
  /// canonical (primary, reference) order. Runs on the sweep-join engine
  /// (src/engine/sweep_join.cc): implicit box resolution plus optional
  /// parallel row strips; the stored relations are identical for every
  /// `options.threads` value. The engine keeps the sweep's plan, so later
  /// edits are delta-maintained from the start. Replaces any explicit
  /// records; drops the previous computed relations first, also when the
  /// engine then rejects `options`. `stats`, when non-null, receives the
  /// engine instrumentation.
  Status ComputeAllRelations(const EngineOptions& options = EngineOptions(),
                             EngineStats* stats = nullptr);

  /// The stored relation `primary R reference`, or nullopt when relations
  /// have not been computed (or a region is missing). On a computed
  /// configuration: two id lookups (O(1) expected) plus
  /// RelationStore::Relation, which is O(1) for an implicit pair in a base
  /// row but an O(n) rank walk for an explicit pair in a base or patched
  /// row (9.8 µs at 4k regions, 93 µs at 50k); rows with an edit record
  /// binary-search it first. On an XML-loaded configuration it scans the
  /// explicit records, which stay a list until loading rebuilds a store
  /// from the geometry. No read path of the tool comes through here:
  /// `query` and `related` decide direction atoms from the geometry
  /// (DirectionDecider, cardirect/query.h), so a loaded record that
  /// contradicts the geometry is returned here and by `show`, never by a
  /// query.
  std::optional<CardinalRelation> StoredRelation(
      const std::string& primary_id, const std::string& reference_id) const;

  /// On-demand percentage matrix between two regions (not persisted in the
  /// XML, matching the DTD which stores qualitative relations only).
  Result<PercentageMatrix> ComputePercentages(
      const std::string& primary_id, const std::string& reference_id) const;

  /// Replaces the stored relations with explicit records (used by the XML
  /// reader), kept in the given order. Drops any delta engine. Fails,
  /// changing nothing, with NotFound when a record names an unknown region,
  /// with InvalidArgument naming both ids when a record relates a region to
  /// itself or states the empty relation (neither saves a document the
  /// reader accepts), and with ParseError naming both ids when two records
  /// state one ordered pair. Two id lookups per record plus one sort.
  Status SetRelations(std::vector<RelationRecord> relations);

 private:
  // The delta engine's partner accessor over this configuration's regions_.
  DeltaEngine::RegionAccessor GeometryAt() const;

  // The position of the region with `id` in regions_, or regions_.size().
  size_t PositionOf(const std::string& id) const;
  // Puts `position` into a free slot of id_slots_ on its id's probe chain.
  void IndexPosition(size_t position);
  // Erases `position` from id_slots_ and renumbers the positions above it
  // down by one; call before regions_ drops the region.
  void UnindexPosition(size_t position);

  std::string name_;
  std::string image_file_;
  std::vector<AnnotatedRegion> regions_;
  // The id index: an open-addressing hash table (linear probing, a power
  // of two in size, at most half full) of positions in regions_, hashed
  // through regions_[position].id. Positions, not ids or views of them,
  // so the table stays valid when regions_ reallocates and copies with
  // the configuration. Positions are the indices the store and delta
  // engine use.
  std::vector<uint32_t> id_slots_;
  // Stored relations: at most one representation is active. `delta_` after
  // ComputeAllRelations (indices parallel regions_; it owns the maintained
  // store and the sweep's plan, and borrows geometry from regions_ through
  // GeometryAt); `relations_` after an XML load.
  std::vector<RelationRecord> relations_;
  std::optional<DeltaEngine> delta_;
};

}  // namespace cardir

#endif  // CARDIR_CARDIRECT_MODEL_H_
