#pragma once

// Reference coverer for differential tests: the breadth-first algorithm
// cell::GetCovering used before the clipped-edge traversal, kept verbatim.
// A priority queue expands coarser cells first; each candidate runs the
// full-edge Polygon::ContainsRect/IntersectsRect scans on its ToRect(); the
// output is sorted and sibling quadruples are merged in repeated passes.

#include <algorithm>
#include <queue>
#include <vector>

#include "cell/coverer.h"
#include "geo/polygon.h"

namespace geoblocks::cell::oracle {

namespace detail {

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
inline CellId SmallestEnclosingCell(const geo::Rect& bounds) {
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
inline void Canonicalize(std::vector<CoveringCell>* cells, int min_level) {
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

}  // namespace detail

/// The covering of `polygon` (unit-square coordinates) by the reference
/// algorithm; must equal cell::GetCovering cell for cell and flag for flag.
inline std::vector<CoveringCell> GetCovering(const geo::Polygon& polygon,
                                             const CovererOptions& options) {
  std::vector<CoveringCell> result;
  const geo::Rect bounds = polygon.Bounds();
  if (bounds.IsEmpty()) return result;

  std::priority_queue<detail::Candidate> queue;
  CellId seed = detail::SmallestEnclosingCell(bounds);
  if (seed.level() > options.max_level) seed = seed.Parent(options.max_level);
  queue.push({seed});

  while (!queue.empty()) {
    const CellId c = queue.top().cell;
    queue.pop();
    const geo::Rect rect = c.ToRect();
    const bool contained = polygon.ContainsRect(rect);
    const int lvl = c.level();
    // A cell below min_level must always be expanded so that every emitted
    // cell satisfies the level constraints.
    if (lvl >= options.min_level) {
      if (contained || lvl >= options.max_level) {
        result.push_back({c, contained});
        continue;
      }
    }
    for (const CellId& child : c.Children()) {
      if (polygon.IntersectsRect(child.ToRect())) {
        queue.push({child});
      }
    }
  }

  detail::Canonicalize(&result, options.min_level);
  return result;
}

}  // namespace geoblocks::cell::oracle
