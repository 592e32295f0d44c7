#include "cell/coverer.h"

#include <algorithm>
#include <cmath>
#include <queue>

namespace geoblocks::cell {

namespace {

struct Candidate {
  CellId cell;

  /// Expand coarser cells first; ties broken by id for determinism.
  friend bool operator<(const Candidate& a, const Candidate& b) {
    const int la = a.cell.level();
    const int lb = b.cell.level();
    if (la != lb) return la > lb;  // priority_queue: smaller level on top
    return a.cell > b.cell;
  }
};

/// Smallest single cell whose rectangle contains `bounds` (Root() if none
/// smaller does).
CellId SmallestEnclosingCell(const geo::Rect& bounds) {
  CellId cell = CellId::FromPoint(bounds.min);
  // Walk up until the cell rect contains the bounds.
  while (cell.level() > 0 && !cell.ToRect().Contains(bounds)) {
    cell = cell.Parent();
  }
  if (!cell.ToRect().Contains(bounds)) return CellId::Root();
  return cell;
}

/// Merges complete sibling quadruples into their parent, bottom-up, marking
/// the merged cell interior only when all four children were interior.
void Canonicalize(std::vector<CoveringCell>* cells, int min_level) {
  std::sort(cells->begin(), cells->end(),
            [](const CoveringCell& a, const CoveringCell& b) {
              return a.cell < b.cell;
            });
  bool merged = true;
  while (merged) {
    merged = false;
    std::vector<CoveringCell> out;
    out.reserve(cells->size());
    size_t i = 0;
    while (i < cells->size()) {
      const CellId c = (*cells)[i].cell;
      const int lvl = c.level();
      if (lvl > min_level && i + 3 < cells->size()) {
        const CellId parent = c.Parent();
        bool all_siblings = c == parent.Child(0);
        bool all_interior = true;
        for (int k = 0; all_siblings && k < 4; ++k) {
          const CoveringCell& cc = (*cells)[i + k];
          if (cc.cell != parent.Child(k)) all_siblings = false;
          all_interior = all_interior && cc.interior;
        }
        if (all_siblings) {
          out.push_back({parent, all_interior});
          i += 4;
          merged = true;
          continue;
        }
      }
      out.push_back((*cells)[i]);
      ++i;
    }
    *cells = std::move(out);
  }
}

}  // namespace

std::vector<CoveringCell> GetCovering(const UnitRegion& region,
                                      const CovererOptions& options) {
  std::vector<CoveringCell> result;
  const geo::Rect bounds = region.Bounds();
  if (bounds.IsEmpty()) return result;

  std::priority_queue<Candidate> queue;
  CellId seed = SmallestEnclosingCell(bounds);
  if (seed.level() > options.max_level) seed = seed.Parent(options.max_level);
  queue.push({seed});

  while (!queue.empty()) {
    const CellId c = queue.top().cell;
    queue.pop();
    const geo::Rect rect = c.ToRect();
    const bool contained = region.Contains(rect);
    const int lvl = c.level();
    // A cell below min_level must always be expanded, budget or not, so
    // that every emitted cell satisfies the level constraints.
    if (lvl >= options.min_level) {
      const bool budget_exhausted =
          result.size() + queue.size() + 3 > options.max_cells;
      if (contained || lvl >= options.max_level || budget_exhausted) {
        result.push_back({c, contained});
        continue;
      }
    }
    for (const CellId& child : c.Children()) {
      if (region.MayIntersect(child.ToRect())) {
        queue.push({child});
      }
    }
  }

  Canonicalize(&result, options.min_level);
  return result;
}

std::vector<CellId> GetCoveringCells(const UnitRegion& region,
                                     const CovererOptions& options) {
  std::vector<CellId> cells;
  GetCoveringCellsInto(region, options, &cells);
  return cells;
}

void GetCoveringCellsInto(const UnitRegion& region,
                          const CovererOptions& options,
                          std::vector<CellId>* out) {
  out->clear();
  for (const CoveringCell& cc : GetCovering(region, options)) {
    out->push_back(cc.cell);
  }
}

geo::Rect GetInteriorRect(const geo::Polygon& polygon) {
  const geo::Rect bounds = polygon.Bounds();
  if (bounds.IsEmpty()) return geo::Rect::Empty();

  // Find an interior anchor: try the bbox center, then a deterministic grid
  // of sample points.
  geo::Point anchor = bounds.Center();
  if (!polygon.Contains(anchor)) {
    bool found = false;
    for (int gx = 1; gx < 8 && !found; ++gx) {
      for (int gy = 1; gy < 8 && !found; ++gy) {
        const geo::Point p{bounds.min.x + bounds.Width() * gx / 8.0,
                           bounds.min.y + bounds.Height() * gy / 8.0};
        if (polygon.Contains(p)) {
          anchor = p;
          found = true;
        }
      }
    }
    if (!found) return geo::Rect::Empty();
  }

  // Largest t in (0, 1] such that the bbox scaled by t around the anchor is
  // contained in the polygon, found by bisection.
  const auto rect_at = [&](double t) {
    return geo::Rect{
        {anchor.x - t * (anchor.x - bounds.min.x),
         anchor.y - t * (anchor.y - bounds.min.y)},
        {anchor.x + t * (bounds.max.x - anchor.x),
         anchor.y + t * (bounds.max.y - anchor.y)}};
  };
  double lo = 0.0;
  double hi = 1.0;
  if (polygon.ContainsRect(rect_at(1.0))) return rect_at(1.0);
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (polygon.ContainsRect(rect_at(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return rect_at(lo);
}

double ApproxCellDiagonalMeters(int level, double lat) {
  constexpr double kMetersPerDegree = 111320.0;
  const double cells_per_side = std::pow(2.0, level);
  const double dx =
      360.0 / cells_per_side * kMetersPerDegree * std::cos(lat * M_PI / 180.0);
  const double dy = 180.0 / cells_per_side * kMetersPerDegree;
  return std::sqrt(dx * dx + dy * dy);
}

int LevelForErrorBound(double max_error_meters, double lat) {
  for (int level = 0; level <= CellId::kMaxLevel; ++level) {
    if (ApproxCellDiagonalMeters(level, lat) <= max_error_meters) {
      return level;
    }
  }
  return CellId::kMaxLevel;
}

}  // namespace geoblocks::cell
