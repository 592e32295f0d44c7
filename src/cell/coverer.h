#pragma once

#include <vector>

#include "cell/cell_id.h"
#include "geo/polygon.h"
#include "geo/projection.h"
#include "geo/rect.h"

namespace geoblocks::cell {

/// One cell of a covering, flagged with whether it lies fully inside the
/// covered polygon (interior cells contribute *exact* aggregates; boundary
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
  /// the GeoBlock", Section 3.5). Boundary cells always reach this level,
  /// so it is also the level that bounds the spatial error.
  int max_level = CellId::kMaxLevel;
};

/// Computes a covering of `polygon` (unit-square coordinates): a set of
/// disjoint cells whose union contains the polygon. Cells fully inside the
/// polygon are emitted as coarse as possible (subject to min_level);
/// boundary cells descend to max_level. The result is sorted by cell id and
/// canonical: no four sibling cells that could be merged into a parent
/// >= min_level remain, and the output is deterministic.
///
/// The traversal is depth-first in Hilbert order and clips the polygon's
/// edges top-down: each cell tests only the edges whose bounding box
/// overlaps it, and a cell no edge crosses is classified by point-in-polygon
/// tests of its corners (each shared corner is tested once).
std::vector<CoveringCell> GetCovering(const geo::Polygon& polygon,
                                      const CovererOptions& options);

/// Convenience overload returning bare cell ids.
std::vector<CellId> GetCoveringCells(const geo::Polygon& polygon,
                                     const CovererOptions& options);

/// Covers `projection.ToUnit(polygon)` without building the projected
/// polygon: clears and refills `*out` with the bare cell ids of the
/// covering. Vertices are projected straight into thread-local scratch and
/// `*out` keeps its capacity, so once warm a call allocates nothing.
void GetCoveringCellsInto(const geo::Projection& projection,
                          const geo::Polygon& polygon,
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
