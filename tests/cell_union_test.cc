#include <gtest/gtest.h>

#include <random>

#include "cell/cell_union.h"
#include "cell/coverer.h"

namespace geoblocks::cell {
namespace {

CellId At(double x, double y, int level) {
  return CellId::FromPoint({x, y}).Parent(level);
}

TEST(CellUnionTest, EmptyUnion) {
  const CellUnion u = CellUnion::FromCells({});
  EXPECT_TRUE(u.empty());
  EXPECT_FALSE(u.Contains(geo::Point{0.5, 0.5}));
  EXPECT_FALSE(u.Intersects(CellId::Root()));
  EXPECT_EQ(u.NumLeaves(), 0u);
}

TEST(CellUnionTest, DropsInvalidAndContainedCells) {
  const CellId parent = At(0.3, 0.3, 5);
  const CellId child = parent.Child(2).Child(1);
  const CellUnion u = CellUnion::FromCells({CellId(), child, parent});
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u.cells()[0], parent);
}

TEST(CellUnionTest, MergesSiblingQuadruples) {
  const CellId parent = At(0.7, 0.2, 8);
  std::vector<CellId> cells;
  for (int k = 0; k < 4; ++k) cells.push_back(parent.Child(k));
  const CellUnion u = CellUnion::FromCells(std::move(cells));
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u.cells()[0], parent);
}

TEST(CellUnionTest, MergesRecursively) {
  // All 16 grandchildren collapse to the grandparent.
  const CellId gp = At(0.1, 0.8, 6);
  std::vector<CellId> cells;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) cells.push_back(gp.Child(a).Child(b));
  }
  const CellUnion u = CellUnion::FromCells(std::move(cells));
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u.cells()[0], gp);
}

TEST(CellUnionTest, ContainsAndIntersectsCells) {
  const CellId a = At(0.2, 0.2, 6);
  const CellId b = At(0.8, 0.8, 9);
  const CellUnion u = CellUnion::FromCells({a, b});
  EXPECT_TRUE(u.Contains(a));
  EXPECT_TRUE(u.Contains(a.Child(3)));
  EXPECT_TRUE(u.Contains(b));
  EXPECT_FALSE(u.Contains(b.Parent()));     // only part of the parent
  EXPECT_TRUE(u.Intersects(b.Parent()));    // ... but it intersects
  EXPECT_TRUE(u.Intersects(CellId::Root()));
  const CellId far = At(0.5, 0.05, 10);
  EXPECT_FALSE(u.Contains(far));
  EXPECT_FALSE(u.Intersects(far));
}

TEST(CellUnionTest, ContainsPoints) {
  const CellId a = At(0.25, 0.25, 4);
  const CellUnion u = CellUnion::FromCells({a});
  const geo::Rect r = a.ToRect();
  EXPECT_TRUE(u.Contains(r.Center()));
  EXPECT_FALSE(u.Contains(geo::Point{r.max.x + 0.1, r.max.y + 0.1}));
}

TEST(CellUnionTest, UnionOperation) {
  const CellId parent = At(0.6, 0.6, 7);
  const CellUnion left =
      CellUnion::FromCells({parent.Child(0), parent.Child(1)});
  const CellUnion right =
      CellUnion::FromCells({parent.Child(2), parent.Child(3)});
  const CellUnion all = left.Union(right);
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all.cells()[0], parent);
  EXPECT_TRUE(all.Contains(left));
  EXPECT_TRUE(all.Contains(right));
  EXPECT_TRUE(left.Intersects(all));
  EXPECT_FALSE(left.Intersects(right));
}

TEST(CellUnionTest, LeafAndAreaAccounting) {
  const CellId c = At(0.4, 0.4, 28);  // 4^2 = 16 leaves
  const CellUnion u = CellUnion::FromCells({c});
  EXPECT_EQ(u.NumLeaves(), 16u);
  EXPECT_NEAR(u.Area(), c.ToRect().Area(), 1e-18);
}

class CellUnionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CellUnionPropertyTest, NormalizationPreservesCoverage) {
  std::mt19937_64 rng(GetParam() * 7001);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<CellId> cells;
  for (int i = 0; i < 40; ++i) {
    cells.push_back(At(uni(rng), uni(rng), 3 + static_cast<int>(rng() % 10)));
  }
  const CellUnion u = CellUnion::FromCells(cells);
  // Normalized: sorted, disjoint.
  for (size_t i = 1; i < u.size(); ++i) {
    ASSERT_LT(u.cells()[i - 1], u.cells()[i]);
    ASSERT_FALSE(u.cells()[i - 1].Intersects(u.cells()[i]));
  }
  // Coverage identical to the raw input: sampled points are in the union
  // iff they are in some input cell.
  for (int t = 0; t < 300; ++t) {
    const geo::Point p{uni(rng), uni(rng)};
    bool in_input = false;
    for (const CellId& c : cells) {
      if (c.ToRect().Contains(p) && c.Contains(CellId::FromPoint(p))) {
        in_input = true;
        break;
      }
    }
    ASSERT_EQ(u.Contains(p), in_input) << "point " << p;
  }
  // Every input cell is contained in the union.
  for (const CellId& c : cells) {
    ASSERT_TRUE(u.Contains(c));
  }
}

TEST_P(CellUnionPropertyTest, CovererOutputIsAlreadyNormalized) {
  std::mt19937_64 rng(GetParam() * 9013);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const geo::Polygon poly = geo::Polygon::RegularNGon(
      {0.3 + 0.4 * uni(rng), 0.3 + 0.4 * uni(rng)}, 0.05 + 0.15 * uni(rng),
      3 + static_cast<int>(rng() % 8), uni(rng));
  CovererOptions options;
  options.max_level = 9 + GetParam() % 4;
  const std::vector<CellId> covering = GetCoveringCells(poly, options);
  const CellUnion renormalized = CellUnion::FromCells(covering);
  EXPECT_EQ(renormalized.cells(), covering)
      << "coverer output must be canonical";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CellUnionPropertyTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace geoblocks::cell
