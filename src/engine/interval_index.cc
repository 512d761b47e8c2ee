#include "engine/interval_index.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cardir {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

void IntervalOverlapIndex::Build(const AxisIntervals& axis) {
  const size_t n = axis.lo.size();
  ids_.clear();
  for (size_t i = 0; i < n; ++i) {
    if (axis.skip[i] == 0) ids_.push_back(static_cast<uint32_t>(i));
  }
  const std::vector<double>& lo = axis.lo;
  std::sort(ids_.begin(), ids_.end(), [&lo](uint32_t a, uint32_t b) {
    return lo[a] < lo[b] || (lo[a] == lo[b] && a < b);
  });
  const size_t m = ids_.size();
  lo_.resize(m);
  hi_.resize(m);
  pos_.assign(n, kAbsent);
  for (size_t p = 0; p < m; ++p) {
    lo_[p] = axis.lo[ids_[p]];
    hi_[p] = axis.hi[ids_[p]];
    pos_[ids_[p]] = p;
  }
  block_max_.assign((m + kBlock - 1) / kBlock, kNegInf);
  super_max_.assign((m + kSuper - 1) / kSuper, kNegInf);
  for (size_t p = 0; p < m; ++p) {
    block_max_[p / kBlock] = std::max(block_max_[p / kBlock], hi_[p]);
    super_max_[p / kSuper] = std::max(super_max_[p / kSuper], hi_[p]);
  }
  overflow_ids_.clear();
  overflow_lo_.clear();
  overflow_hi_.clear();
  dead_ = 0;
}

void IntervalOverlapIndex::RebuildIfStale(const AxisIntervals& axis) {
  if (pending() <= rebuild_threshold()) return;
  CARDIR_TRACE_SPAN("delta.index_rebuild");
  CARDIR_METRIC_COUNT("delta.index.rebuilds", 1);
  Build(axis);
}

void IntervalOverlapIndex::RemoveOverflowAt(size_t slot) {
  const size_t last = overflow_ids_.size() - 1;
  if (slot != last) {
    overflow_ids_[slot] = overflow_ids_[last];
    overflow_lo_[slot] = overflow_lo_[last];
    overflow_hi_[slot] = overflow_hi_[last];
    pos_[overflow_ids_[slot]] = kOverflowTag | slot;
  }
  overflow_ids_.pop_back();
  overflow_lo_.pop_back();
  overflow_hi_.pop_back();
}

void IntervalOverlapIndex::Update(size_t id, const AxisIntervals& axis) {
  const double lo = axis.lo[id];
  const double hi = axis.hi[id];
  const bool skip = axis.skip[id] != 0;
  uint64_t pos = pos_[id];
  if (pos != kAbsent && (pos & kOverflowTag) == 0) {
    // Live main entry: tombstone it. The block maxima above it go stale
    // high, which only ever *admits* blocks — never skips a live overlap.
    hi_[static_cast<size_t>(pos)] = kNegInf;
    ++dead_;
    pos_[id] = kAbsent;
    pos = kAbsent;
  }
  if (skip) {
    if (pos != kAbsent) {
      RemoveOverflowAt(static_cast<size_t>(pos & ~kOverflowTag));
      pos_[id] = kAbsent;
    }
  } else if (pos != kAbsent) {
    const size_t slot = static_cast<size_t>(pos & ~kOverflowTag);
    overflow_lo_[slot] = lo;
    overflow_hi_[slot] = hi;
  } else {
    pos_[id] = kOverflowTag | overflow_ids_.size();
    overflow_ids_.push_back(static_cast<uint32_t>(id));
    overflow_lo_.push_back(lo);
    overflow_hi_.push_back(hi);
  }
  RebuildIfStale(axis);
}

void IntervalOverlapIndex::Append(const AxisIntervals& axis) {
  const size_t id = pos_.size();
  pos_.push_back(kAbsent);
  if (axis.skip[id] == 0) {
    pos_[id] = kOverflowTag | overflow_ids_.size();
    overflow_ids_.push_back(static_cast<uint32_t>(id));
    overflow_lo_.push_back(axis.lo[id]);
    overflow_hi_.push_back(axis.hi[id]);
  }
  RebuildIfStale(axis);
}

void IntervalOverlapIndex::Remove(size_t id, const AxisIntervals& axis) {
  // Retire the entry under the old numbering first (RemoveOverflowAt
  // rewrites pos_ of the slot it moves).
  const uint64_t pos = pos_[id];
  if (pos != kAbsent && (pos & kOverflowTag) == 0) {
    hi_[static_cast<size_t>(pos)] = kNegInf;
    ++dead_;
  } else if (pos != kAbsent) {
    RemoveOverflowAt(static_cast<size_t>(pos & ~kOverflowTag));
  }
  pos_.erase(pos_.begin() + static_cast<ptrdiff_t>(id));
  // Renumber: every id above the erased one moves down by one. The map is
  // monotone, so the (lo, id) order of the main arrays stays sorted and no
  // re-sort is needed. A tombstone's stale id is never reported.
  const uint32_t id32 = static_cast<uint32_t>(id);
  for (uint32_t& other : ids_) other -= other > id32 ? 1u : 0u;
  for (uint32_t& other : overflow_ids_) other -= other > id32 ? 1u : 0u;
  RebuildIfStale(axis);
}

void PolygonBoxes::Build(const std::vector<const Region*>& regions) {
  const size_t n = regions.size();
  offsets.assign(n + 1, 0);
  size_t polygons = 0;
  for (const Region* region : regions) polygons += region->polygon_count();
  for (std::vector<double>* bound : {&min_x, &max_x, &min_y, &max_y}) {
    bound->clear();
    bound->reserve(polygons);
  }
  for (size_t i = 0; i < n; ++i) {
    offsets[i] = min_x.size();
    for (const Polygon& polygon : regions[i]->polygons()) {
      const Box box = polygon.BoundingBox();
      min_x.push_back(box.min_x());
      max_x.push_back(box.max_x());
      min_y.push_back(box.min_y());
      max_y.push_back(box.max_y());
    }
  }
  offsets[n] = min_x.size();
}

void PolygonBoxes::ReplaceRegion(size_t i, const Region& region) {
  const size_t old_count = offsets[i + 1] - offsets[i];
  const size_t new_count = region.polygon_count();
  if (old_count != new_count) {
    const auto at = [this, i](std::vector<double>& v) {
      return v.begin() + static_cast<ptrdiff_t>(offsets[i]);
    };
    const ptrdiff_t old_n = static_cast<ptrdiff_t>(old_count);
    min_x.erase(at(min_x), at(min_x) + old_n);
    max_x.erase(at(max_x), at(max_x) + old_n);
    min_y.erase(at(min_y), at(min_y) + old_n);
    max_y.erase(at(max_y), at(max_y) + old_n);
    min_x.insert(at(min_x), new_count, 0.0);
    max_x.insert(at(max_x), new_count, 0.0);
    min_y.insert(at(min_y), new_count, 0.0);
    max_y.insert(at(max_y), new_count, 0.0);
    const int64_t shift =
        static_cast<int64_t>(new_count) - static_cast<int64_t>(old_count);
    for (size_t r = i + 1; r < offsets.size(); ++r) {
      offsets[r] = static_cast<uint64_t>(static_cast<int64_t>(offsets[r]) +
                                         shift);
    }
  }
  size_t p = offsets[i];
  for (const Polygon& polygon : region.polygons()) {
    const Box box = polygon.BoundingBox();
    min_x[p] = box.min_x();
    max_x[p] = box.max_x();
    min_y[p] = box.min_y();
    max_y[p] = box.max_y();
    ++p;
  }
}

void PolygonBoxes::AppendRegion(const Region& region) {
  for (const Polygon& polygon : region.polygons()) {
    const Box box = polygon.BoundingBox();
    min_x.push_back(box.min_x());
    max_x.push_back(box.max_x());
    min_y.push_back(box.min_y());
    max_y.push_back(box.max_y());
  }
  offsets.push_back(min_x.size());
}

void PolygonBoxes::EraseRegion(size_t i) {
  const size_t count = offsets[i + 1] - offsets[i];
  const auto at = [this, i](std::vector<double>& v) {
    return v.begin() + static_cast<ptrdiff_t>(offsets[i]);
  };
  const ptrdiff_t n = static_cast<ptrdiff_t>(count);
  min_x.erase(at(min_x), at(min_x) + n);
  max_x.erase(at(max_x), at(max_x) + n);
  min_y.erase(at(min_y), at(min_y) + n);
  max_y.erase(at(max_y), at(max_y) + n);
  for (size_t r = i + 1; r + 1 < offsets.size(); ++r) {
    offsets[r] = offsets[r + 1] - count;
  }
  offsets.pop_back();
}

}  // namespace cardir
