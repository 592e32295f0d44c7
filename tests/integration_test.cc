#include <gtest/gtest.h>

#include <cmath>

#include "core/block_qc.h"
#include "core/geoblock.h"
#include "index/artree.h"
#include "index/binary_search.h"
#include "index/btree_index.h"
#include "index/phtree.h"
#include "workload/datagen.h"
#include "workload/exact.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace {

using core::AggFn;
using core::AggregateRequest;
using core::GeoBlock;
using core::QueryResult;

/// Cross-approach consistency on the primary dataset: GeoBlocks and the two
/// covering-based baselines must produce *identical* results over the same
/// covering, because they aggregate exactly the same set of tuples.
class IntegrationTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(40000, 11));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
    block_ = new GeoBlock(GeoBlock::Build(*data_, core::BlockOptions{kLevel, {}}));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 30, 12));
  }
  static void TearDownTestSuite() {
    delete polygons_;
    delete block_;
    delete data_;
    delete raw_;
    polygons_ = nullptr;
    block_ = nullptr;
    data_ = nullptr;
    raw_ = nullptr;
  }

  static AggregateRequest Request() {
    AggregateRequest req;
    req.Add(AggFn::kCount);
    req.Add(AggFn::kSum, 0);
    req.Add(AggFn::kMin, 1);
    req.Add(AggFn::kMax, 2);
    req.Add(AggFn::kAvg, 3);
    req.Add(AggFn::kSum, 5);
    req.Add(AggFn::kMax, 6);
    return req;
  }

  static void ExpectSame(const QueryResult& a, const QueryResult& b,
                         const char* what) {
    ASSERT_EQ(a.count, b.count) << what;
    ASSERT_EQ(a.values.size(), b.values.size()) << what;
    for (size_t i = 0; i < a.values.size(); ++i) {
      ASSERT_NEAR(a.values[i], b.values[i],
                  1e-9 * std::abs(b.values[i]) + 1e-6)
          << what << " value " << i;
    }
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static GeoBlock* block_;
  static std::vector<geo::Polygon>* polygons_;
};

storage::PointTable* IntegrationTest::raw_ = nullptr;
storage::SortedDataset* IntegrationTest::data_ = nullptr;
GeoBlock* IntegrationTest::block_ = nullptr;
std::vector<geo::Polygon>* IntegrationTest::polygons_ = nullptr;

TEST_F(IntegrationTest, BlockMatchesBinarySearchBaseline) {
  const index::BinarySearchIndex bs(data_);
  const AggregateRequest req = Request();
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = block_->Cover(poly);
    ExpectSame(block_->SelectCovering(covering, req),
               bs.SelectCovering(covering, req), "binary-search");
  }
}

TEST_F(IntegrationTest, BlockMatchesBTreeBaseline) {
  const index::BTreeIndex bt(data_);
  const AggregateRequest req = Request();
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = block_->Cover(poly);
    ExpectSame(block_->SelectCovering(covering, req),
               bt.SelectCovering(covering, req), "btree");
  }
}

TEST_F(IntegrationTest, CountsAgreeAcrossSortedApproaches) {
  const index::BinarySearchIndex bs(data_);
  const index::BTreeIndex bt(data_);
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = block_->Cover(poly);
    const uint64_t c = block_->CountCovering(covering);
    EXPECT_EQ(c, bs.CountCovering(covering));
    EXPECT_EQ(c, bt.CountCovering(covering));
  }
}

TEST_F(IntegrationTest, BlockQCMatchesEverything) {
  core::GeoBlockQC qc(block_, core::GeoBlockQC::Options{0.05, 0});
  const index::BinarySearchIndex bs(data_);
  const AggregateRequest req = Request();
  // Warm the cache, then verify against the baseline.
  for (int round = 0; round < 2; ++round) {
    for (const geo::Polygon& poly : *polygons_) qc.Select(poly, req);
    qc.RebuildCache();
  }
  for (const geo::Polygon& poly : *polygons_) {
    const auto covering = block_->Cover(poly);
    ExpectSame(qc.SelectCovering(covering, req),
               bs.SelectCovering(covering, req), "qc-vs-binary-search");
  }
}

TEST_F(IntegrationTest, CoveringCountIsUpperBoundOfExact) {
  // The cell covering introduces only false positives (Section 4.3).
  for (const geo::Polygon& poly : *polygons_) {
    const uint64_t approx = block_->Count(poly);
    const uint64_t exact = workload::ExactCount(*data_, poly);
    ASSERT_GE(approx, exact);
  }
}

TEST_F(IntegrationTest, ErrorDecreasesWithLevel) {
  // Figure 16's central trend: finer blocks -> lower relative error.
  std::vector<double> avg_errors;
  for (const int level : {11, 13, 15}) {
    const GeoBlock block =
        GeoBlock::Build(*data_, core::BlockOptions{level, {}});
    double total_error = 0.0;
    for (const geo::Polygon& poly : *polygons_) {
      const uint64_t approx = block.Count(poly);
      const uint64_t exact = workload::ExactCount(*data_, poly);
      if (exact > 0) {
        total_error += workload::RelativeError(approx, exact);
      }
    }
    avg_errors.push_back(total_error /
                         static_cast<double>(polygons_->size()));
  }
  EXPECT_GT(avg_errors[0], avg_errors[1]);
  EXPECT_GT(avg_errors[1], avg_errors[2]);
}

TEST_F(IntegrationTest, PhTreeUndercountsPolygons) {
  const index::PhTreeIndex ph(data_);
  size_t compared = 0;
  for (const geo::Polygon& poly : *polygons_) {
    const uint64_t exact = workload::ExactCount(*data_, poly);
    if (exact < 100) continue;
    // Interior-rectangle covering contains fewer points than the polygon.
    EXPECT_LE(ph.Count(poly), exact + exact / 50);
    ++compared;
  }
  EXPECT_GT(compared, 5u);
}

TEST_F(IntegrationTest, ARTreeAnswersRectangles) {
  // Build on a subset (aR-tree insertion is slow by design).
  const storage::PointTable small_raw = workload::GenTaxi(8000, 21);
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();
  const auto small_data =
      storage::SortedDataset::Extract(small_raw, options);
  const index::ARTree art = index::ARTree::Build(&small_data);
  const GeoBlock small_block =
      GeoBlock::Build(small_data, core::BlockOptions{17, {}});
  const auto rect_polys =
      workload::RandomRectangles(workload::NycBounds().Expanded(-0.02), 10,
                                 22, 0.1, 0.3);
  for (const geo::Polygon& poly : rect_polys) {
    const uint64_t exact = workload::ExactCount(small_data, poly);
    const uint64_t art_count = art.Count(poly);
    const uint64_t block_count = small_block.Count(poly);
    if (exact < 50) continue;
    // Both approximate; both should be in the right ballpark, while the
    // fine-grained block stays closer (Figure 15's message).
    const double art_err = workload::RelativeError(art_count, exact);
    const double block_err = workload::RelativeError(block_count, exact);
    EXPECT_LT(block_err, 0.25);
    EXPECT_LT(art_err, 1.5);
  }
}

TEST_F(IntegrationTest, ScalingKeepsBlockCellsStable) {
  // Figure 13: the number of cell aggregates depends on the spatial
  // distribution, not the point count.
  const storage::PointTable big = workload::GenTaxi(80000, 23);
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();
  const auto big_data = storage::SortedDataset::Extract(big, options);
  const GeoBlock big_block =
      GeoBlock::Build(big_data, core::BlockOptions{kLevel, {}});
  const double cell_growth =
      static_cast<double>(big_block.num_cells()) /
      static_cast<double>(block_->num_cells());
  const double point_growth = static_cast<double>(big_data.num_rows()) /
                              static_cast<double>(data_->num_rows());
  EXPECT_LT(cell_growth, 0.7 * point_growth);
}

TEST_F(IntegrationTest, IncrementalFilterBuildsMatchIsolated) {
  // Figure 19's correctness premise: building from sorted base data with a
  // filter equals filtering raw data first, then extracting and building.
  storage::Filter filter;
  filter.Add({1, storage::CompareOp::kGe, 4.0});
  const GeoBlock incremental =
      GeoBlock::Build(*data_, core::BlockOptions{kLevel, filter});

  storage::PointTable filtered_raw(raw_->schema());
  for (size_t i = 0; i < raw_->num_rows(); ++i) {
    if (raw_->Value(i, 1) >= 4.0) {
      std::vector<double> values(raw_->num_columns());
      for (size_t c = 0; c < values.size(); ++c) {
        values[c] = raw_->Value(i, c);
      }
      filtered_raw.AddRow(raw_->Location(i), values);
    }
  }
  storage::ExtractOptions options;
  options.clean_bounds = workload::NycBounds();
  const auto isolated_data =
      storage::SortedDataset::Extract(filtered_raw, options);
  const GeoBlock isolated =
      GeoBlock::Build(isolated_data, core::BlockOptions{kLevel, {}});

  ASSERT_EQ(incremental.num_cells(), isolated.num_cells());
  ASSERT_EQ(incremental.header().global.count, isolated.header().global.count);
  for (size_t i = 0; i < incremental.num_cells(); ++i) {
    ASSERT_EQ(incremental.cells()[i], isolated.cells()[i]);
    ASSERT_EQ(incremental.cell_count(i), isolated.cell_count(i));
  }
}

}  // namespace
}  // namespace geoblocks
