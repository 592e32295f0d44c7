#pragma once

#include <vector>

#include "cell/cell_id.h"
#include "geo/polygon.h"
#include "geo/rect.h"

namespace geoblocks::cell {

/// A region of the unit square that can be covered with cells. Mirrors the
/// two predicates an S2Region exposes to the S2RegionCoverer.
class UnitRegion {
 public:
  virtual ~UnitRegion() = default;

  /// Bounding rectangle of the region (used to seed the covering).
  virtual geo::Rect Bounds() const = 0;

  /// True when the region *may* share a point with the rectangle. Must not
  /// return false for an intersecting rectangle (no false negatives).
  virtual bool MayIntersect(const geo::Rect& r) const = 0;

  /// True when the rectangle is fully contained in the region.
  virtual bool Contains(const geo::Rect& r) const = 0;
};

/// A polygon in unit-square coordinates as a coverable region.
class PolygonRegion final : public UnitRegion {
 public:
  explicit PolygonRegion(const geo::Polygon* polygon) : polygon_(polygon) {}

  geo::Rect Bounds() const override { return polygon_->Bounds(); }
  bool MayIntersect(const geo::Rect& r) const override {
    return polygon_->IntersectsRect(r);
  }
  bool Contains(const geo::Rect& r) const override {
    return polygon_->ContainsRect(r);
  }

 private:
  const geo::Polygon* polygon_;
};

/// A rectangle in unit-square coordinates as a coverable region.
class RectRegion final : public UnitRegion {
 public:
  explicit RectRegion(const geo::Rect& rect) : rect_(rect) {}

  geo::Rect Bounds() const override { return rect_; }
  bool MayIntersect(const geo::Rect& r) const override {
    return rect_.Intersects(r);
  }
  bool Contains(const geo::Rect& r) const override {
    return rect_.Contains(r);
  }

 private:
  geo::Rect rect_;
};

/// One cell of a covering, flagged with whether it lies fully inside the
/// covered region (interior cells contribute *exact* aggregates; boundary
/// cells are the source of the bounded approximation error, Section 3.2).
struct CoveringCell {
  CellId cell;
  bool interior = false;

  friend bool operator==(const CoveringCell& a, const CoveringCell& b) =
      default;
};

struct CovererOptions {
  /// Coarsest cells allowed in a covering.
  int min_level = 0;
  /// Finest cells allowed; for GeoBlock queries this is the block level
  /// ("the cell covering cannot contain any cells smaller than the cells of
  /// the GeoBlock", Section 3.5). Also the level that bounds the spatial
  /// error.
  int max_level = CellId::kMaxLevel;
  /// Budget on the number of cells. The default is effectively unbounded so
  /// that boundary cells always reach max_level and the covering conforms
  /// to the error bound; lower budgets trade precision for fewer cells.
  size_t max_cells = size_t{1} << 40;
};

/// Computes a covering of `region`: a set of disjoint cells whose union
/// contains the region. Cells fully inside the region are emitted as coarse
/// as possible (subject to min_level); boundary cells descend to max_level
/// (subject to max_cells). The result is sorted by cell id and canonical:
/// no four sibling cells that could be merged into a parent >= min_level
/// remain, and the output is deterministic.
std::vector<CoveringCell> GetCovering(const UnitRegion& region,
                                      const CovererOptions& options);

/// Convenience overload returning bare cell ids.
std::vector<CellId> GetCoveringCells(const UnitRegion& region,
                                     const CovererOptions& options);

/// Allocation-reusing variant: clears and refills `*out` with the bare
/// cell ids of the covering, keeping the vector's capacity so a scratch
/// buffer amortizes the result allocation away on hot query paths.
void GetCoveringCellsInto(const UnitRegion& region,
                          const CovererOptions& options,
                          std::vector<CellId>* out);

/// An axis-aligned rectangle contained in the polygon (the "interior
/// rectangle" used to query the PH-tree and aR-tree baselines, Section 4.1).
/// Found by shrinking the bounding box towards an interior anchor point;
/// returns an empty rect when no interior point is found.
geo::Rect GetInteriorRect(const geo::Polygon& polygon);

/// Approximate diagonal of a level-`level` cell in meters at latitude `lat`
/// under the whole-earth equirectangular projection (for reporting; mirrors
/// the S2 cell statistics table the paper references).
double ApproxCellDiagonalMeters(int level, double lat = 40.7);

/// Chooses the coarsest cell level whose diagonal (the worst-case spatial
/// error, Section 3.2) does not exceed `max_error_meters` at latitude
/// `lat` — how "the user can specify the error bound by choosing an
/// appropriate cell level". Unreachable bounds clamp to the finest level.
int LevelForErrorBound(double max_error_meters, double lat = 40.7);

}  // namespace geoblocks::cell
