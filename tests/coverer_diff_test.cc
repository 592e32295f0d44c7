// Differential test of the clipped-edge coverer against the reference
// algorithm in coverer_oracle.h: every covering must match cell for cell
// and interior flag for interior flag.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "cell/coverer.h"
#include "core/scan_kernels.h"
#include "coverer_oracle.h"
#include "geo/projection.h"
#include "storage/sorted_dataset.h"
#include "workload/datagen.h"
#include "workload/exact.h"
#include "workload/polygen.h"

namespace geoblocks::cell {
namespace {

constexpr int kLevel = 17;

/// Counts polygons whose coverings differ, printing the first few.
class MismatchCounter {
 public:
  /// Compares GetCovering (cells and flags) and GetCoveringCells with the
  /// oracle on a unit-square polygon.
  void Check(const geo::Polygon& unit, const CovererOptions& options,
             const std::string& what) {
    const std::vector<CoveringCell> want = oracle::GetCovering(unit, options);
    std::vector<CellId> want_ids;
    for (const CoveringCell& cc : want) want_ids.push_back(cc.cell);
    const bool same = GetCovering(unit, options) == want &&
                      GetCoveringCells(unit, options) == want_ids;
    Record(same, what, options, want.size());
  }

  /// As Check on `projection.ToUnit(polygon)`, and also compares the
  /// projecting GetCoveringCellsInto with the oracle.
  void CheckProjected(const geo::Projection& projection,
                      const geo::Polygon& polygon,
                      const CovererOptions& options, const std::string& what) {
    const geo::Polygon unit = projection.ToUnit(polygon);
    Check(unit, options, what);
    std::vector<CellId> want_ids;
    for (const CoveringCell& cc : oracle::GetCovering(unit, options)) {
      want_ids.push_back(cc.cell);
    }
    std::vector<CellId> got{CellId::Root()};  // Into must clear first
    GetCoveringCellsInto(projection, polygon, options, &got);
    Record(got == want_ids, what + " (projected)", options, want_ids.size());
  }

  int checked() const { return checked_; }
  int mismatches() const { return mismatches_; }

 private:
  void Record(bool same, const std::string& what,
              const CovererOptions& options, size_t cells) {
    ++checked_;
    if (same) return;
    if (++mismatches_ <= 5) {
      ADD_FAILURE() << what << ": covering differs from the oracle (levels "
                    << options.min_level << ".." << options.max_level << ", "
                    << cells << " oracle cells)";
    }
  }

  int checked_ = 0;
  int mismatches_ = 0;
};

/// A star-shaped ring of `vertices` jittered vertices around `center`.
geo::Ring StarRing(const geo::Point& center, double radius, int vertices,
                   std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  geo::Ring ring;
  for (int i = 0; i < vertices; ++i) {
    const double a = 2.0 * std::numbers::pi * (i + 0.8 * uni(rng)) / vertices;
    const double r = radius * (0.55 + 0.45 * uni(rng));
    ring.push_back({center.x + r * std::cos(a),
                    center.y + 0.75 * r * std::sin(a)});
  }
  return ring;
}

class CoverDiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(20000, 17));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete raw_;
  }

  static CovererOptions Levels(int min_level, int max_level) {
    CovererOptions options;
    options.min_level = min_level;
    options.max_level = max_level;
    return options;
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
};

storage::PointTable* CoverDiffTest::raw_ = nullptr;
storage::SortedDataset* CoverDiffTest::data_ = nullptr;

TEST_F(CoverDiffTest, NeighborhoodsAtBlockLevel) {
  const auto polygons = workload::Neighborhoods(*raw_, 195);
  ASSERT_EQ(polygons.size(), 195u);
  MismatchCounter counter;
  for (size_t p = 0; p < polygons.size(); ++p) {
    counter.CheckProjected(data_->projection(), polygons[p], Levels(0, kLevel),
                           "neighborhood " + std::to_string(p));
  }
  EXPECT_EQ(counter.mismatches(), 0) << "of " << counter.checked();
}

TEST_F(CoverDiffTest, FreshStarPolygons) {
  // The never-repeated polygons of a fresh-polygon workload: 4-64
  // vertices (log-uniform), 0.008-0.05 degree radius around a data point.
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  MismatchCounter counter;
  for (int p = 0; p < 300; ++p) {
    const geo::Point center = raw_->Location(rng() % raw_->num_rows());
    const int vertices = static_cast<int>(
        std::lround(std::exp(std::log(4.0) + uni(rng) * std::log(16.0))));
    const double radius = 0.008 + 0.042 * uni(rng);
    const geo::Polygon polygon(StarRing(center, radius, vertices, rng));
    counter.CheckProjected(data_->projection(), polygon, Levels(0, kLevel),
                           "fresh polygon " + std::to_string(p));
  }
  EXPECT_EQ(counter.mismatches(), 0) << "of " << counter.checked();
}

TEST_F(CoverDiffTest, UnitSquarePolygonsWithHolesAcrossLevels) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  MismatchCounter counter;
  for (int p = 0; p < 240; ++p) {
    const int max_level = 6 + p % 12;
    // Radii shrink past level 9 so each covering stays near a few hundred
    // boundary cells.
    const double scale = std::ldexp(1.0, -std::max(0, max_level - 9));
    const geo::Point center{0.2 + 0.6 * uni(rng), 0.2 + 0.6 * uni(rng)};
    const double radius = (0.02 + 0.18 * uni(rng)) * scale;
    geo::Polygon polygon(
        StarRing(center, radius, 3 + static_cast<int>(rng() % 40), rng));
    if (p % 3 == 0) {
      polygon.AddRing(StarRing(center, 0.4 * radius,
                               3 + static_cast<int>(rng() % 12), rng));
    }
    for (const int min_level : {0, 3}) {
      counter.Check(polygon, Levels(min_level, max_level),
                    "n-gon " + std::to_string(p));
    }
  }
  EXPECT_EQ(counter.mismatches(), 0) << "of " << counter.checked();
}

TEST_F(CoverDiffTest, VerticesAndEdgesOnCellBoundaries) {
  // Vertices on the corners of level-`grid` cells, so edges run along cell
  // boundaries and through cell corners of every coarser level.
  std::mt19937_64 rng(11);
  MismatchCounter counter;
  for (int p = 0; p < 200; ++p) {
    const int grid = 3 + p % 5;
    const uint32_t side = uint32_t{1} << grid;
    const auto coord = [&] {
      return static_cast<double>(rng() % (side + 1)) / side;
    };
    geo::Polygon polygon;
    if (p % 2 == 0) {
      // Cell-aligned rectangle, possibly touching the square's border.
      const double x0 = coord();
      const double y0 = coord();
      const double x1 = coord();
      const double y1 = coord();
      polygon = geo::Polygon::FromRect(geo::Rect::FromPoints({x0, y0}, {x1, y1}));
    } else {
      geo::Ring ring;
      const int vertices = 3 + static_cast<int>(rng() % 6);
      for (int v = 0; v < vertices; ++v) ring.push_back({coord(), coord()});
      polygon = geo::Polygon(std::move(ring));
    }
    for (const int max_level : {grid, grid + 1, grid + 3}) {
      counter.Check(polygon, Levels(p % 4 == 1 ? 2 : 0, max_level),
                    "grid polygon " + std::to_string(p));
    }
  }
  EXPECT_EQ(counter.mismatches(), 0) << "of " << counter.checked();
}

TEST_F(CoverDiffTest, PolygonsClampedAgainstTheSquareBorder) {
  // Lat/lng polygons reaching past the projection domain project onto the
  // square's border (clamped to 0 or just below 1).
  const geo::Rect domain = workload::NycBounds();
  const geo::Projection projection(domain);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  MismatchCounter counter;
  for (int p = 0; p < 120; ++p) {
    // Centres near a domain edge or corner, radii reaching well outside.
    const geo::Point center{
        domain.min.x + domain.Width() * (p % 3 == 0 ? uni(rng) : p % 2),
        domain.min.y + domain.Height() * (p % 3 == 1 ? uni(rng) : (p / 2) % 2)};
    const double radius = domain.Width() * (0.05 + 0.4 * uni(rng));
    const geo::Polygon polygon(
        StarRing(center, radius, 4 + static_cast<int>(rng() % 20), rng));
    counter.CheckProjected(projection, polygon, Levels(0, 6 + p % 6),
                           "clamped polygon " + std::to_string(p));
  }
  // The whole domain and beyond: every vertex clamps to a corner.
  counter.CheckProjected(projection,
                         geo::Polygon::FromRect(domain.Expanded(1.0)),
                         Levels(0, 12), "domain-covering rectangle");
  EXPECT_EQ(counter.mismatches(), 0) << "of " << counter.checked();
}

/// A comb of `teeth` thin teeth packed into one level-17 column: every
/// edge runs (nearly) the full height of the polygon, the case that makes
/// any per-height edge index quadratic. `vertical` false turns it on its
/// side, packed into one row.
geo::Polygon Comb(int teeth, bool vertical) {
  const double cell = std::ldexp(1.0, -kLevel);
  const double x0 = 0.3 + 0.1 * cell;
  const double dx = 0.8 * cell / teeth;
  const double lo = 0.3;
  const double hi = 0.3 + 64 * cell;
  geo::Ring ring;
  for (int k = 0; k < teeth; ++k) {
    ring.push_back({x0 + k * dx, lo});
    ring.push_back({x0 + (k + 0.5) * dx, hi});
  }
  ring.push_back({x0 + teeth * dx, lo});
  if (!vertical) {
    for (geo::Point& p : ring) std::swap(p.x, p.y);
  }
  return geo::Polygon(std::move(ring));
}

TEST_F(CoverDiffTest, NarrowCombsOfFullHeightEdges) {
  MismatchCounter counter;
  for (const bool vertical : {true, false}) {
    for (const int teeth : {3, 50, 2000}) {
      for (const int max_level : {12, 15, kLevel, kLevel + 2}) {
        counter.Check(Comb(teeth, vertical), Levels(0, max_level),
                      std::string(vertical ? "vertical" : "horizontal") +
                          " comb of " + std::to_string(teeth) + " teeth");
      }
    }
  }
  EXPECT_EQ(counter.mismatches(), 0) << "of " << counter.checked();
}

TEST_F(CoverDiffTest, EmptyAndDegeneratePolygons) {
  MismatchCounter counter;
  counter.Check(geo::Polygon(), Levels(0, kLevel), "empty polygon");
  // Rings with fewer than three vertices are dropped.
  counter.Check(geo::Polygon(geo::Ring{{0.1, 0.1}, {0.2, 0.3}}),
                Levels(0, kLevel), "two-vertex ring");
  counter.Check(geo::Polygon(geo::Ring{}), Levels(0, kLevel), "no vertices");
  geo::Polygon with_short_hole{{0.1, 0.1}, {0.6, 0.15}, {0.4, 0.7}};
  with_short_hole.AddRing(geo::Ring{{0.3, 0.3}, {0.35, 0.3}});
  counter.Check(with_short_hole, Levels(0, 12), "dropped hole");
  // Zero-area rings: collinear vertices and a repeated point.
  counter.Check(geo::Polygon{{0.1, 0.1}, {0.5, 0.5}, {0.3, 0.3}},
                Levels(0, 12), "collinear ring");
  counter.Check(geo::Polygon{{0.3, 0.3}, {0.3, 0.3}, {0.3, 0.3}},
                Levels(0, 12), "point ring");
  counter.CheckProjected(data_->projection(), geo::Polygon(),
                         Levels(0, kLevel), "empty projected polygon");
  EXPECT_EQ(counter.mismatches(), 0) << "of " << counter.checked();
  EXPECT_TRUE(GetCovering(geo::Polygon(), Levels(0, kLevel)).empty());
}

/// ExactCount's refinement as it ran on the oracle's covering: interior
/// cells count whole, boundary cells scan their rows.
uint64_t OracleExactCount(const storage::SortedDataset& data,
                          const geo::Polygon& polygon, int fine_level) {
  const geo::Polygon unit = data.projection().ToUnit(polygon);
  CovererOptions options;
  options.max_level = fine_level;
  const core::kernels::UnitTransform transform =
      core::kernels::UnitTransform::From(data.projection());
  const core::kernels::PreparedPolygon prepared =
      core::kernels::PreparedPolygon::From(unit);
  uint64_t count = 0;
  for (const CoveringCell& cc : oracle::GetCovering(unit, options)) {
    const auto [first, last] = data.EqualRangeForCell(cc.cell);
    count += cc.interior ? last - first
                         : core::kernels::Kernels().count_polygon_hits(
                               data.xs().data() + first,
                               data.ys().data() + first, last - first,
                               transform, prepared);
  }
  return count;
}

TEST_F(CoverDiffTest, ExactCountUnchanged) {
  const auto polygons = workload::Neighborhoods(*raw_, 12, 23);
  for (const geo::Polygon& polygon : polygons) {
    for (const int level : {12, 14, 16}) {
      EXPECT_EQ(workload::ExactCount(*data_, polygon, level),
                OracleExactCount(*data_, polygon, level));
    }
  }
}

}  // namespace
}  // namespace geoblocks::cell
