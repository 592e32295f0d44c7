#pragma once

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"
#include "geo/segment.h"

namespace geoblocks::geo {

/// One ring edge's share of the even-odd test in Polygon::Contains.
enum class EdgeHit {
  kNone,      // the edge neither holds `p` nor crosses the ray from it
  kCrossing,  // the horizontal ray from `p` to +infinity crosses the edge
  kOnEdge,    // `p` lies on the edge
};

/// Classifies the ring edge from `a` to `b` against `p`. Only an edge whose
/// y-interval holds p.y can return anything but kNone.
inline EdgeHit RayHitsEdge(const Point& a, const Point& b, const Point& p) {
  if (p.y < std::min(a.y, b.y) || p.y > std::max(a.y, b.y)) {
    return EdgeHit::kNone;
  }
  if (OnSegment(Segment{a, b}, p)) return EdgeHit::kOnEdge;
  if ((b.y > p.y) != (a.y > p.y)) {
    const double x_cross = b.x + (p.y - b.y) * (a.x - b.x) / (a.y - b.y);
    if (x_cross > p.x) return EdgeHit::kCrossing;
  }
  return EdgeHit::kNone;
}

/// A simple polygon ring given by its vertices (implicitly closed; the last
/// vertex connects back to the first). Orientation does not matter for any
/// of the predicates in this library.
using Ring = std::vector<Point>;

/// A polygon with an outer ring and zero or more hole rings, using the
/// even-odd rule for containment. This is the query-region type of the
/// problem statement (Section 2): an arbitrary polygon specified by its
/// vertex locations.
class Polygon {
 public:
  Polygon() = default;
  explicit Polygon(Ring outer) { AddRing(std::move(outer)); }
  Polygon(std::initializer_list<Point> outer) { AddRing(Ring(outer)); }

  /// Appends a ring. The first ring is the outer boundary; subsequent rings
  /// are holes (even-odd semantics make the distinction immaterial for
  /// containment).
  void AddRing(Ring ring);

  const std::vector<Ring>& rings() const { return rings_; }
  bool IsEmpty() const { return rings_.empty(); }
  size_t num_vertices() const { return num_vertices_; }

  /// Bounding rectangle of all rings.
  const Rect& Bounds() const { return bounds_; }

  /// Even-odd point containment. Points exactly on the boundary count as
  /// inside.
  bool Contains(const Point& p) const;

  /// True when the closed rectangle is fully inside the polygon: all four
  /// corners are contained and no polygon edge crosses the rectangle.
  /// Conservative for rectangles touching the polygon boundary (may return
  /// false); never returns true for a rectangle not fully contained.
  bool ContainsRect(const Rect& r) const;

  /// True when polygon and closed rectangle share at least one point.
  bool IntersectsRect(const Rect& r) const;

  /// Signed area of the outer ring minus hole areas (shoelace formula,
  /// absolute value).
  double Area() const;

  /// Euclidean distance from `p` to the nearest point on any ring edge
  /// (0 when `p` lies on an edge). Used to verify the covering's bounded
  /// error: every false-positive point of a covering is within the cell
  /// diagonal of the polygon outline (paper Section 3.2).
  double DistanceToOutline(const Point& p) const;

  /// Convenience: an axis-aligned rectangle as a 4-vertex polygon.
  static Polygon FromRect(const Rect& r);

  /// Convenience: a regular n-gon around `center` with circumradius `radius`.
  static Polygon RegularNGon(const Point& center, double radius, int n,
                             double phase = 0.0);

 private:
  bool AnyEdgeIntersectsRect(const Rect& r) const;

  std::vector<Ring> rings_;
  Rect bounds_ = Rect::Empty();
  size_t num_vertices_ = 0;
};

}  // namespace geoblocks::geo
