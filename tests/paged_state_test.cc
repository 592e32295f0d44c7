// The paged copy-on-write BlockState: folds that cross page seams must be
// bit-identical to one flat fold, commits must copy only the pages they
// touch, pinned versions must stay frozen across commits that rewrite their
// pages, and the paged engine must keep counting exactly what a rebuild
// from scratch counts.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "storage/dataset_view.h"
#include "storage/sharded_dataset.h"
#include "workload/datagen.h"
#include "workload/exact.h"

namespace geoblocks::core {
namespace {

constexpr int kLevel = 15;
constexpr size_t P = kPageCells;

AggregateRequest Request() {
  AggregateRequest req;
  req.Add(AggFn::kCount);
  req.Add(AggFn::kSum, 0);
  req.Add(AggFn::kMin, 1);
  req.Add(AggFn::kMax, 2);
  req.Add(AggFn::kAvg, 3);
  return req;
}

class PagedStateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(30000, 91));
    options_ = new storage::ExtractOptions();
    options_->clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, *options_));
  }
  static void TearDownTestSuite() {
    delete data_;
    delete options_;
    delete raw_;
  }

  /// A block over the rows of the dataset's first `n` level-kLevel cells.
  static GeoBlock BlockOfCells(size_t n) {
    const std::vector<uint64_t>& keys = data_->keys();
    const uint64_t lsb = cell::CellId::LsbForLevel(kLevel);
    size_t rows = 0;
    size_t cells = 0;
    uint64_t prev = 0;
    for (; rows < keys.size(); ++rows) {
      const uint64_t cell_id = (keys[rows] & (~lsb + 1)) | lsb;
      if (cell_id == prev) continue;
      if (cells == n) break;
      ++cells;
      prev = cell_id;
    }
    return GeoBlock::Build(storage::DatasetView::UnownedWindow(*data_, 0, rows),
                           BlockOptions{kLevel, {}});
  }

  /// One in-cell tuple at the center of the block's idx-th cell.
  static GeoBlock::UpdateTuple TupleInCell(const GeoBlock& block, size_t idx,
                                           std::mt19937_64* rng) {
    GeoBlock::UpdateTuple t;
    t.location = data_->projection().FromUnit(
        cell::CellId(block.cells()[idx]).CenterPoint());
    t.values.resize(data_->num_columns());
    for (double& v : t.values) v = static_cast<double>((*rng)() % 10000) / 7.0;
    return t;
  }

  static storage::PointTable* raw_;
  static storage::ExtractOptions* options_;
  static storage::SortedDataset* data_;
};

storage::PointTable* PagedStateTest::raw_ = nullptr;
storage::ExtractOptions* PagedStateTest::options_ = nullptr;
storage::SortedDataset* PagedStateTest::data_ = nullptr;

/// The state's cell aggregates copied out of the pages into flat arrays,
/// the layout the engine folded before paging.
struct FlatState {
  std::vector<uint32_t> counts;
  std::vector<ColumnAggregate> columns;
  size_t num_columns = 0;

  explicit FlatState(const BlockState& s) : num_columns(s.num_columns) {
    for (size_t i = 0; i < s.num_cells(); ++i) {
      counts.push_back(s.count(i));
      columns.insert(columns.end(), s.cell_columns(i),
                     s.cell_columns(i) + num_columns);
    }
  }

  /// One AddCellRange over [lo, hi): the un-split reference fold.
  void Fold(size_t lo, size_t hi, Accumulator* acc) const {
    if (hi > lo) {
      acc->AddCellRange(counts.data() + lo, columns.data() + lo * num_columns,
                        hi - lo, num_columns);
    }
  }
};

/// The index range [lo, hi) of the state's cells contained in `cell`.
std::pair<size_t, size_t> ChildRange(const BlockState& s, cell::CellId cell) {
  const std::vector<uint64_t>& ids = *s.cells;
  const uint64_t first = cell.ChildBegin(s.header.level).id();
  const uint64_t last = cell.ChildLast(s.header.level).id();
  const auto lo = std::lower_bound(ids.begin(), ids.end(), first);
  const auto hi = std::upper_bound(lo, ids.end(), last);
  return {static_cast<size_t>(lo - ids.begin()),
          static_cast<size_t>(hi - ids.begin())};
}

/// Coarse cells whose child range starts on, ends on, or spans a page seam,
/// plus the root (which spans every seam).
std::vector<cell::CellId> SeamCells(const BlockState& s) {
  std::vector<cell::CellId> out{cell::CellId::Root()};
  for (int level = kLevel - 1; level >= kLevel - 8; --level) {
    cell::CellId prev;
    for (size_t i = 0; i < s.num_cells(); ++i) {
      const cell::CellId parent = cell::CellId((*s.cells)[i]).Parent(level);
      if (prev.is_valid() && parent == prev) continue;
      prev = parent;
      const auto [lo, hi] = ChildRange(s, parent);
      const bool starts = lo % P == 0 && lo > 0;
      const bool ends = hi % P == 0 && hi < s.num_cells();
      const bool spans = lo / P != (hi - 1) / P;
      if (starts || ends || spans) out.push_back(parent);
    }
  }
  return out;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.count == b.count && a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(double)) == 0;
}

bool SameAggregate(const AggregateVector& a, const AggregateVector& b) {
  return a.count == b.count && a.columns.size() == b.columns.size() &&
         std::memcmp(a.columns.data(), b.columns.data(),
                     a.columns.size() * sizeof(ColumnAggregate)) == 0;
}

/// Every seam query of `s` against the flat reference, bit for bit.
void ExpectSeamFoldsMatchFlat(const BlockState& s, const char* what) {
  const FlatState flat(s);
  const AggregateRequest req = Request();
  const std::vector<cell::CellId> seams = SeamCells(s);
  for (const cell::CellId cell : seams) {
    const auto [lo, hi] = ChildRange(s, cell);
    const std::vector<cell::CellId> covering{cell};
    Accumulator acc(&req);
    flat.Fold(lo, hi, &acc);
    ASSERT_TRUE(SameResult(s.SelectCovering(covering, req), acc.Finish()))
        << what << ": SELECT over cells [" << lo << ", " << hi << ")";
    uint64_t count = 0;
    for (size_t i = lo; i < hi; ++i) count += flat.counts[i];
    ASSERT_EQ(s.CountCovering(covering), count)
        << what << ": COUNT over cells [" << lo << ", " << hi << ")";
    AggregateVector agg(s.num_columns);
    for (size_t i = lo; i < hi; ++i) {
      agg.count += flat.counts[i];
      for (size_t c = 0; c < s.num_columns; ++c) {
        agg.columns[c].Merge(flat.columns[i * s.num_columns + c]);
      }
    }
    ASSERT_TRUE(SameAggregate(s.AggregateForCell(cell), agg))
        << what << ": AggregateForCell over [" << lo << ", " << hi << ")";
  }
  // One multi-cell covering per level: the lastAgg cursor carries across
  // seams, and each covering cell folds its own range in order.
  for (int level = kLevel; level >= kLevel - 6; level -= 2) {
    std::vector<cell::CellId> covering;
    for (size_t i = 0; i < s.num_cells(); i += 3) {
      const cell::CellId parent = cell::CellId((*s.cells)[i]).Parent(level);
      if (covering.empty() || !(covering.back() == parent)) {
        covering.push_back(parent);
      }
    }
    Accumulator acc(&req);
    uint64_t count = 0;
    for (const cell::CellId cell : covering) {
      const auto [lo, hi] = ChildRange(s, cell);
      flat.Fold(lo, hi, &acc);
      for (size_t i = lo; i < hi; ++i) count += flat.counts[i];
    }
    ASSERT_TRUE(SameResult(s.SelectCovering(covering, req), acc.Finish()))
        << what << ": multi-cell covering at level " << level;
    ASSERT_EQ(s.CountCovering(covering), count)
        << what << ": multi-cell COUNT at level " << level;
  }
}

TEST_F(PagedStateTest, PageTableShapeAtEverySize) {
  for (const size_t n : {size_t{0}, size_t{1}, P - 1, P, P + 1, 3 * P + 5}) {
    const GeoBlock block = BlockOfCells(n);
    ASSERT_EQ(block.num_cells(), n);
    const auto s = block.StateSnapshot();
    ASSERT_EQ(s->pages.size(), (n + P - 1) / P) << n;
    ASSERT_EQ(s->page_base.size(), s->pages.size()) << n;
    uint64_t running = 0;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(s->offset(i), running) << n << " cells, cell " << i;
      running += s->count(i);
    }
    EXPECT_EQ(running, s->header.global.count) << n;
    for (size_t p = 0; p < s->pages.size(); ++p) {
      EXPECT_EQ(s->pages[p]->columns.size(),
                s->page_cells(p) * s->num_columns)
          << n << " cells, page " << p;
    }
    EXPECT_GE(block.MemoryBytes(), block.CellAggregateBytes());
  }
}

TEST_F(PagedStateTest, SeamFoldsMatchFlatFoldAtEverySize) {
  for (const size_t n : {size_t{0}, size_t{1}, P - 1, P, P + 1, 3 * P + 5}) {
    const GeoBlock block = BlockOfCells(n);
    ASSERT_EQ(block.num_cells(), n);
    const std::string what = "built, " + std::to_string(n) + " cells";
    ExpectSeamFoldsMatchFlat(*block.StateSnapshot(), what.c_str());
  }
}

TEST_F(PagedStateTest, SerializationRoundTripsAtEverySize) {
  for (const size_t n : {size_t{0}, size_t{1}, P - 1, P, P + 1, 3 * P + 5}) {
    GeoBlock block = BlockOfCells(n);
    std::mt19937_64 rng(n);
    if (n > 0) {
      std::vector<GeoBlock::UpdateTuple> batch;
      for (size_t i = 0; i < 10; ++i) {
        batch.push_back(TupleInCell(block, rng() % n, &rng));
      }
      ASSERT_EQ(block.ApplyBatchUpdate(batch).applied, batch.size());
    }
    std::stringstream a;
    block.WriteTo(a);
    const GeoBlock loaded = GeoBlock::ReadFrom(a);
    EXPECT_EQ(loaded.cells(), block.cells()) << n;
    EXPECT_EQ(loaded.offsets(), block.offsets()) << n;
    EXPECT_EQ(loaded.counts(), block.counts()) << n;
    std::stringstream b;
    loaded.WriteTo(b);
    EXPECT_EQ(a.str(), b.str()) << n << ": re-serialization changed bytes";
    ExpectSeamFoldsMatchFlat(*loaded.StateSnapshot(), "loaded");
  }
}

TEST_F(PagedStateTest, CommitCopiesOnlyTouchedPages) {
  GeoBlock block = BlockOfCells(3 * P + 5);
  std::mt19937_64 rng(5);
  // Page after page, then the partial last page: each commit must copy
  // exactly the page it lands in and share the cell ids and all others.
  for (const size_t page : {size_t{1}, size_t{0}, size_t{3}, size_t{2}}) {
    const auto before = block.StateSnapshot();
    std::vector<GeoBlock::UpdateTuple> batch;
    for (size_t i = 0; i < 5; ++i) {
      const size_t idx = page * P + rng() % before->page_cells(page);
      batch.push_back(TupleInCell(block, idx, &rng));
    }
    ASSERT_EQ(block.ApplyBatchUpdate(batch).applied, batch.size());
    const auto after = block.StateSnapshot();
    EXPECT_EQ(before->cells.get(), after->cells.get());
    ASSERT_EQ(before->pages.size(), after->pages.size());
    for (size_t p = 0; p < before->pages.size(); ++p) {
      if (p == page) {
        EXPECT_NE(before->pages[p].get(), after->pages[p].get()) << p;
      } else {
        EXPECT_EQ(before->pages[p].get(), after->pages[p].get())
            << "untouched page " << p << " was copied by a commit to page "
            << page;
      }
    }
    // The bases after the touched page moved by exactly the batch.
    for (size_t p = 0; p < before->pages.size(); ++p) {
      EXPECT_EQ(after->page_base[p],
                before->page_base[p] + (p > page ? batch.size() : 0))
          << p;
    }
    ExpectSeamFoldsMatchFlat(*after, "after a one-page commit");
  }
}

TEST_F(PagedStateTest, PinnedSnapshotSurvivesFiftyCommitsToItsPages) {
  GeoBlock block = BlockOfCells(3 * P + 5);
  const std::shared_ptr<const BlockState> pinned = block.StateSnapshot();
  const AggregateRequest req = Request();
  const std::vector<cell::CellId> seams = SeamCells(*pinned);
  std::vector<QueryResult> want_select;
  std::vector<uint64_t> want_count;
  for (const cell::CellId cell : seams) {
    const std::vector<cell::CellId> covering{cell};
    want_select.push_back(pinned->SelectCovering(covering, req));
    want_count.push_back(pinned->CountCovering(covering));
  }

  // Commit c lands three tuples in page c % pages, and every fifth commit
  // one more in every page. So a commit keeps replacing pages the pinned
  // version still shares with the retiring one, and those pages must not
  // be recycled under the pin.
  std::mt19937_64 rng(50);
  const size_t pages = pinned->pages.size();
  uint64_t added = 0;
  for (size_t commit = 0; commit < 50; ++commit) {
    std::vector<GeoBlock::UpdateTuple> batch;
    const size_t page = commit % pages;
    for (int i = 0; i < 3; ++i) {
      batch.push_back(TupleInCell(
          block, page * P + rng() % pinned->page_cells(page), &rng));
    }
    for (size_t p = 0; commit % 5 == 4 && p < pages; ++p) {
      batch.push_back(
          TupleInCell(block, p * P + rng() % pinned->page_cells(p), &rng));
    }
    ASSERT_EQ(block.ApplyBatchUpdate(batch).applied, batch.size());
    added += batch.size();
  }
  const auto now = block.StateSnapshot();
  for (size_t p = 0; p < pages; ++p) {
    EXPECT_NE(now->pages[p].get(), pinned->pages[p].get()) << p;
  }
  EXPECT_EQ(now->header.global.count, pinned->header.global.count + added);

  for (size_t q = 0; q < seams.size(); ++q) {
    const std::vector<cell::CellId> covering{seams[q]};
    EXPECT_TRUE(SameResult(pinned->SelectCovering(covering, req),
                           want_select[q]))
        << "pinned SELECT moved, seam query " << q;
    EXPECT_EQ(pinned->CountCovering(covering), want_count[q])
        << "pinned COUNT moved, seam query " << q;
  }
  ExpectSeamFoldsMatchFlat(*pinned, "pinned after 50 commits");
  ExpectSeamFoldsMatchFlat(*now, "after 50 commits");
}

TEST_F(PagedStateTest, ConcurrentReadersPinWholeCommits) {
  // Readers pin versions while the writer commits and recycles pages:
  // every pinned version must be internally consistent (its COUNT of the
  // whole block equals its global count) and stable while held.
  GeoBlock block = BlockOfCells(3 * P + 5);
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  std::atomic<bool> done{false};
  std::atomic<size_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const auto s = block.StateSnapshot();
        const uint64_t first = s->CountCovering(all);
        if (first != s->header.global.count) ++bad;
        std::this_thread::yield();
        if (s->CountCovering(all) != first) ++bad;
      }
    });
  }
  std::mt19937_64 rng(7);
  for (int commit = 0; commit < 200; ++commit) {
    std::vector<GeoBlock::UpdateTuple> batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(TupleInCell(block, rng() % block.num_cells(), &rng));
    }
    ASSERT_EQ(block.ApplyBatchUpdate(batch).applied, batch.size());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST_F(PagedStateTest, RandomBatchesCountExactlyWhatARebuildCounts) {
  // Random in-cell and new-region batches through a sharded set, merged by
  // FlushPendingUpdates: every cell's COUNT must equal the exact count of
  // the base rows plus the update tuples inside that cell's square.
  storage::ShardOptions shard_options;
  shard_options.num_shards = 3;
  shard_options.align_level = kLevel;
  auto data = std::make_shared<storage::SortedDataset>(*data_);
  BlockSet set = BlockSet::Build(
      storage::ShardedDataset::Partition(data, shard_options),
      BlockSetOptions{{kLevel, {}}});
  storage::PointTable all = *raw_;
  const geo::Rect bounds = workload::NycBounds();
  std::mt19937_64 rng(303);
  std::uniform_real_distribution<double> unit(0.05, 0.95);
  for (int round = 0; round < 6; ++round) {
    std::vector<GeoBlock::UpdateTuple> batch;
    for (int i = 0; i < 40; ++i) {
      GeoBlock::UpdateTuple t;
      if (i % 4 == 0) {
        // Anywhere in the clean bounds: mostly new regions.
        t.location = {bounds.min.x + unit(rng) * bounds.Width(),
                      bounds.min.y + unit(rng) * bounds.Height()};
      } else {
        // Inside a populated cell, away from its edges.
        const GeoBlock& shard = set.shard(rng() % set.num_shards());
        if (shard.num_cells() == 0) continue;
        const geo::Rect r =
            cell::CellId(shard.cells()[rng() % shard.num_cells()]).ToRect();
        t.location = data->projection().FromUnit(geo::Point{
            r.min.x + unit(rng) * r.Width(), r.min.y + unit(rng) * r.Height()});
      }
      t.values.resize(data->num_columns());
      for (double& v : t.values) v = static_cast<double>(rng() % 1000);
      all.AddRow(t.location, t.values);
      batch.push_back(std::move(t));
    }
    set.ApplyBatchUpdate(batch);
    if (round % 2 == 1) set.FlushPendingUpdates();
  }
  set.FlushPendingUpdates();
  ASSERT_EQ(set.PendingUpdateCount(), 0u);

  const storage::SortedDataset truth =
      storage::SortedDataset::Extract(all, *options_);
  size_t checked = 0;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    const std::vector<uint64_t> cells = set.shard(s).cells();
    for (size_t i = 0; i < cells.size(); i += 7) {
      const cell::CellId cell(cells[i]);
      const geo::Rect r = cell.ToRect();
      const geo::Projection& proj = truth.projection();
      const geo::Polygon square{proj.FromUnit(r.min),
                                proj.FromUnit(geo::Point{r.max.x, r.min.y}),
                                proj.FromUnit(r.max),
                                proj.FromUnit(geo::Point{r.min.x, r.max.y})};
      const std::vector<cell::CellId> covering{cell};
      ASSERT_EQ(set.CountCovering(covering),
                workload::ExactCount(truth, square))
          << "shard " << s << " cell " << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);
  uint64_t total = 0;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    ExpectSeamFoldsMatchFlat(*set.shard(s).StateSnapshot(), "updated shard");
    total += set.shard(s).header().global.count;
  }
  EXPECT_EQ(total, truth.num_rows());
}

}  // namespace
}  // namespace geoblocks::core
