#include "cell/coverer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>

#include "geo/segment.h"

namespace geoblocks::cell {

namespace {

/// One polygon edge, from ring[j] to ring[i] as Polygon::Contains walks
/// it, with its bounding box.
struct Edge {
  geo::Point a;
  geo::Point b;
  geo::Rect box;
};

/// A polygon loaded for covering: its edges and bounding box.
struct Scratch {
  std::vector<Edge> edges;
  geo::Rect bounds = geo::Rect::Empty();
  /// Index stack of clipped edges: each cell on the current descent path
  /// owns one contiguous slice, a child's slice filtering its parent's, so
  /// it never holds more than (kMaxLevel + 1) * edges.size() entries.
  std::vector<uint32_t> clipped;

  template <typename Map>
  void Load(const geo::Polygon& polygon, const Map& map) {
    edges.clear();
    bounds = geo::Rect::Empty();
    for (const geo::Ring& ring : polygon.rings()) {
      geo::Point prev = map(ring.back());
      for (const geo::Point& vertex : ring) {
        const geo::Point p = map(vertex);
        edges.push_back({prev, p, geo::Rect::FromPoints(prev, p)});
        bounds.AddPoint(p);
        prev = p;
      }
    }
  }

  /// Frees buffers grown past a small fixed size, so a thread that once
  /// covered a huge polygon does not keep its scratch for good. Buffers of
  /// everyday polygons stay warm.
  void Trim() {
    constexpr size_t kKeepBytes = size_t{256} << 10;
    if (edges.capacity() * sizeof(Edge) > kKeepBytes) {
      std::vector<Edge>().swap(edges);
    }
    if (clipped.capacity() * sizeof(uint32_t) > kKeepBytes) {
      std::vector<uint32_t>().swap(clipped);
    }
  }
};

/// Hilbert frame of a cell: how its curve is turned relative to the
/// root's. Bit kSwap exchanges i and j, bit kFlip complements both: the two
/// moves of hilbert.cc's Rotate, which commute and are their own inverses.
constexpr uint8_t kSwap = 1;
constexpr uint8_t kFlip = 2;

/// Child k of a cell in frame `orientation`: its quadrant (di, dj) in
/// grid coordinates and its own frame.
struct ChildStep {
  uint32_t di;
  uint32_t dj;
  uint8_t orientation;
};

constexpr std::array<std::array<ChildStep, 4>, 4> MakeChildSteps() {
  // In the curve's own frame child k sits at (0,0), (0,1), (1,1), (1,0);
  // Rotate turns the frame on entering child 0 (swap) and child 3 (swap
  // and flip).
  constexpr uint32_t kI[4] = {0, 0, 1, 1};
  constexpr uint32_t kJ[4] = {0, 1, 1, 0};
  constexpr uint8_t kTurn[4] = {kSwap, 0, 0, kSwap | kFlip};
  std::array<std::array<ChildStep, 4>, 4> steps{};
  for (uint8_t o = 0; o < 4; ++o) {
    for (int k = 0; k < 4; ++k) {
      uint32_t di = kI[k];
      uint32_t dj = kJ[k];
      if (o & kFlip) {
        di ^= 1;
        dj ^= 1;
      }
      if (o & kSwap) std::swap(di, dj);
      steps[o][k] = {di, dj, static_cast<uint8_t>(o ^ kTurn[k])};
    }
  }
  return steps;
}

constexpr std::array<std::array<ChildStep, 4>, 4> kChildSteps =
    MakeChildSteps();

void Emit(std::vector<CoveringCell>* out, CellId cell, bool interior) {
  out->push_back({cell, interior});
}

void Emit(std::vector<CellId>* out, CellId cell, bool /*interior*/) {
  out->push_back(cell);
}

/// Depth-first covering of a loaded polygon, appending to `*out`.
template <typename Out>
class Traversal {
 public:
  Traversal(Scratch* scratch, const CovererOptions& options,
            std::vector<Out>* out)
      : s_(*scratch), options_(options), out_(out) {}

  void Run() {
    if (s_.bounds.IsEmpty()) return;
    Cell seed = Seed();
    s_.clipped.clear();
    for (uint32_t e = 0; e < s_.edges.size(); ++e) s_.clipped.push_back(e);
    const geo::Rect rect = CellId::RectFromIJ(seed.i, seed.j, seed.size);
    Classify(&seed, AnyCrosses(0, s_.clipped.size(), rect));
    Visit(&seed, 0, s_.clipped.size());
  }

 private:
  /// A cell on the descent path. corner[a][b] caches the point-in-polygon
  /// result of corner (i + a*size, j + b*size): -1 unknown, else 0/1.
  struct Cell {
    CellId id;
    uint32_t i = 0;
    uint32_t j = 0;
    uint32_t size = 0;
    uint8_t orientation = 0;
    bool contained = false;
    int8_t corner[2][2] = {{-1, -1}, {-1, -1}};
  };

  /// What a visit appended: nothing, exactly the visited cell (boundary or
  /// interior), or several finer cells.
  enum Shape : uint8_t { kNothing, kWholeBoundary, kWholeInterior, kSplit };

  /// Smallest cell whose rectangle contains the polygon's bounds (Root()
  /// if none smaller does), no finer than max_level.
  Cell Seed() const {
    uint32_t i = 0;
    uint32_t j = 0;
    uint32_t leaf_size = 0;
    CellId::FromPoint(s_.bounds.min).ToIJ(&i, &j, &leaf_size);
    int level = CellId::kMaxLevel;
    for (; level > 0; --level) {
      const uint32_t size = uint32_t{1} << (CellId::kMaxLevel - level);
      const uint32_t mask = ~(size - 1);
      if (CellId::RectFromIJ(i & mask, j & mask, size).Contains(s_.bounds)) {
        break;
      }
    }
    level = std::min(level, options_.max_level);
    Cell seed;
    seed.size = uint32_t{1} << (CellId::kMaxLevel - level);
    seed.i = i & ~(seed.size - 1);
    seed.j = j & ~(seed.size - 1);
    seed.id = CellId::FromIJLevel(i, j, level);
    for (int l = 1; l <= level; ++l) {
      const int k = seed.id.Parent(l).ChildPosition();
      seed.orientation = kChildSteps[seed.orientation][k].orientation;
    }
    return seed;
  }

  bool Crosses(uint32_t e, const geo::Rect& rect) const {
    const Edge& edge = s_.edges[e];
    return edge.box.Intersects(rect) &&
           geo::SegmentIntersectsRect(geo::Segment{edge.a, edge.b}, rect);
  }

  /// True when an edge of the slice [begin, end) crosses `rect`.
  bool AnyCrosses(size_t begin, size_t end, const geo::Rect& rect) const {
    for (size_t n = begin; n < end; ++n) {
      if (Crosses(s_.clipped[n], rect)) return true;
    }
    return false;
  }

  /// Pushes the edges of the slice [begin, end) whose box overlaps `rect`
  /// (every edge that can cross it) and returns whether one crosses it.
  bool Clip(size_t begin, size_t end, const geo::Rect& rect) {
    bool crossed = false;
    for (size_t n = begin; n < end; ++n) {
      const uint32_t e = s_.clipped[n];
      if (!s_.edges[e].box.Intersects(rect)) continue;
      s_.clipped.push_back(e);
      crossed = crossed || Crosses(e, rect);
    }
    return crossed;
  }

  /// Polygon::Contains of grid point (i, j).
  bool Contains(uint32_t i, uint32_t j) const {
    const geo::Point p = CellId::RectFromIJ(i, j, 0).min;  // grid point
    if (!s_.bounds.Contains(p)) return false;
    bool inside = false;
    for (const Edge& edge : s_.edges) {
      const geo::EdgeHit hit = geo::RayHitsEdge(edge.a, edge.b, p);
      if (hit == geo::EdgeHit::kOnEdge) return true;
      if (hit == geo::EdgeHit::kCrossing) inside = !inside;
    }
    return inside;
  }

  /// Decides whether `cell` is contained in the polygon, the way
  /// Polygon::ContainsRect does: a crossed cell is not; otherwise all four
  /// corners must be inside. Returns whether it may intersect the polygon
  /// (Polygon::IntersectsRect): a crossed cell does; otherwise some corner
  /// must be inside, since a vertex in the cell would cross it.
  bool Classify(Cell* cell, bool crossed) {
    if (crossed) {
      cell->contained = false;
      return true;
    }
    bool any = false;
    bool all = true;
    for (uint32_t a = 0; a < 2; ++a) {
      for (uint32_t b = 0; b < 2; ++b) {
        int8_t& c = cell->corner[a][b];
        if (c < 0) {
          c = Contains(cell->i + a * cell->size, cell->j + b * cell->size);
        }
        any = any || c;
        all = all && c;
      }
    }
    cell->contained = all;
    return any;
  }

  /// Covers `cell`, whose clipped edges are the slice [begin, end), and
  /// merges four whole children back into it on the way up.
  Shape Visit(Cell* cell, size_t begin, size_t end) {
    const int level = cell->id.level();
    if ((level >= options_.min_level &&
         (cell->contained || level >= options_.max_level)) ||
        level == CellId::kMaxLevel) {
      Emit(out_, cell->id, cell->contained);
      return cell->contained ? kWholeInterior : kWholeBoundary;
    }
    // Corner results of the parent and its four children share a 3x3 grid.
    int8_t grid[3][3];
    for (auto& row : grid) std::fill(std::begin(row), std::end(row), -1);
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) grid[2 * a][2 * b] = cell->corner[a][b];
    }
    const uint32_t half = cell->size / 2;
    const bool children_final =
        level + 1 >= options_.max_level && level + 1 >= options_.min_level;
    const size_t first = out_->size();
    bool whole = true;
    bool interior = true;
    for (int k = 0; k < 4; ++k) {
      const ChildStep& step = kChildSteps[cell->orientation][k];
      Cell child;
      child.id = cell->id.Child(k);
      child.i = cell->i + step.di * half;
      child.j = cell->j + step.dj * half;
      child.size = half;
      child.orientation = step.orientation;
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          child.corner[a][b] = grid[step.di + a][step.dj + b];
        }
      }
      const geo::Rect rect = CellId::RectFromIJ(child.i, child.j, half);
      const size_t child_begin = s_.clipped.size();
      // A child at the finest level is emitted without being split, so it
      // needs no clipped slice of its own.
      const bool crossed = children_final ? AnyCrosses(begin, end, rect)
                                          : Clip(begin, end, rect);
      Shape shape = kNothing;
      if (Classify(&child, crossed)) {
        shape = Visit(&child, child_begin, s_.clipped.size());
      }
      s_.clipped.resize(child_begin);
      for (int a = 0; a < 2; ++a) {
        for (int b = 0; b < 2; ++b) {
          grid[step.di + a][step.dj + b] = child.corner[a][b];
        }
      }
      whole = whole && (shape == kWholeBoundary || shape == kWholeInterior);
      interior = interior && shape == kWholeInterior;
    }
    for (int a = 0; a < 2; ++a) {
      for (int b = 0; b < 2; ++b) cell->corner[a][b] = grid[2 * a][2 * b];
    }
    if (whole && level >= options_.min_level) {
      out_->resize(first);
      Emit(out_, cell->id, interior);
      return interior ? kWholeInterior : kWholeBoundary;
    }
    return out_->size() == first ? kNothing : kSplit;
  }

  Scratch& s_;
  const CovererOptions& options_;
  std::vector<Out>* out_;
};

Scratch& ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

/// Loads `polygon` through `map` into this thread's scratch and appends its
/// covering to `*out`.
template <typename Out, typename Map>
void Cover(const geo::Polygon& polygon, const Map& map,
           const CovererOptions& options, std::vector<Out>* out) {
  Scratch& scratch = ThreadScratch();
  scratch.Load(polygon, map);
  Traversal(&scratch, options, out).Run();
  scratch.Trim();
}

const auto kUnit = [](const geo::Point& p) { return p; };

}  // namespace

std::vector<CoveringCell> GetCovering(const geo::Polygon& polygon,
                                      const CovererOptions& options) {
  std::vector<CoveringCell> cells;
  Cover(polygon, kUnit, options, &cells);
  return cells;
}

std::vector<CellId> GetCoveringCells(const geo::Polygon& polygon,
                                     const CovererOptions& options) {
  std::vector<CellId> cells;
  Cover(polygon, kUnit, options, &cells);
  return cells;
}

void GetCoveringCellsInto(const geo::Projection& projection,
                          const geo::Polygon& polygon,
                          const CovererOptions& options,
                          std::vector<CellId>* out) {
  out->clear();
  Cover(
      polygon, [&](const geo::Point& p) { return projection.ToUnit(p); },
      options, out);
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
