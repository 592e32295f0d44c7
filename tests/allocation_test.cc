#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "cell/coverer.h"
#include "core/block_qc.h"
#include "core/block_set.h"
#include "core/geoblock.h"
#include "server/cover_cache.h"
#include "storage/sharded_dataset.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

// Count every global heap allocation in this test binary so the serving hot
// paths' zero-allocation guarantees are checkable, not aspirational, and
// track live and peak heap bytes so memory that outlives a call is too.
// Counting is always on; tests read the counters around a measured window.
namespace {
std::atomic<uint64_t> g_allocations{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void* Allocate(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }

namespace geoblocks::core {
namespace {

/// Steady-state allocation behavior of the serving hot paths: the SELECT
/// read path (SelectCoveringInto), the MVCC commit fast path
/// (ApplyBatchUpdate routed through the per-shard copy-on-write commit), and
/// the single-block cached read (GeoBlockQC). Each must reach zero heap
/// allocations once its reusable scratch — thread-local routing/classify
/// buffers, the blocks' page free lists, and the caller's QueryResult — is
/// warm.
class AllocationTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 2;
  /// A grid fine enough that one block of the fixture's rows spans at
  /// least 80 pages.
  static constexpr int kFineLevel = 18;

  void SetUp() override {
    raw_ = workload::GenTaxi(8000, 17);
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = std::make_shared<storage::SortedDataset>(
        storage::SortedDataset::Extract(raw_, options));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = storage::ShardedDataset::Partition(data_, shard_options);
    set_ = BlockSet::Build(sharded_, BlockSetOptions{{kLevel, {}}});
  }

  /// Tuples located inside already-populated cells of both shards: the
  /// commit fast path (no rejections, no pending buffering).
  std::vector<GeoBlock::UpdateTuple> InCellBatch(size_t count,
                                                 uint64_t seed) const {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    batch.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      const GeoBlock& b = set_.shard(i % set_.num_shards());
      const size_t idx = rng() % b.num_cells();
      const geo::Point unit = cell::CellId(b.cells()[idx]).CenterPoint();
      GeoBlock::UpdateTuple t;
      t.location = data_->projection().FromUnit(unit);
      t.values.assign(data_->num_columns(), 0.0);
      for (size_t c = 0; c < t.values.size(); ++c) {
        t.values[c] = static_cast<double>(rng() % 1000) / 10.0;
      }
      batch.push_back(std::move(t));
    }
    return batch;
  }

  /// One tuple in the first cell of each of `block`'s first `pages` pages:
  /// a commit of it copies exactly `pages` pages.
  std::vector<GeoBlock::UpdateTuple> OnePerPageBatch(const GeoBlock& block,
                                                     size_t pages) const {
    std::vector<GeoBlock::UpdateTuple> batch(pages);
    for (size_t p = 0; p < pages; ++p) {
      const geo::Point unit =
          cell::CellId(block.cells()[p * kPageCells]).CenterPoint();
      batch[p].location = data_->projection().FromUnit(unit);
      batch[p].values.assign(data_->num_columns(), 1.0);
    }
    return batch;
  }

  AggregateRequest InlineRequest() const {
    AggregateRequest req;
    req.Add(AggFn::kCount);
    req.Add(AggFn::kSum, 0);
    req.Add(AggFn::kMin, 1);
    req.Add(AggFn::kMax, 2);
    return req;
  }

  storage::PointTable raw_;
  std::shared_ptr<storage::SortedDataset> data_;
  storage::ShardedDataset sharded_;
  BlockSet set_;
};

TEST_F(AllocationTest, SelectCoveringIntoSteadyStateIsAllocationFree) {
  const AggregateRequest req = InlineRequest();
  ASSERT_LE(req.size(), Accumulator::kInlineSpecs);
  const auto polygons = workload::Neighborhoods(raw_, 4, 11);
  ASSERT_FALSE(polygons.empty());
  const std::vector<cell::CellId> covering = set_.Cover(polygons[0]);
  ASSERT_FALSE(covering.empty());

  // Warm the thread-local shard-routing scratch and the reused result's
  // values capacity, and pin the expected answer.
  QueryResult result;
  for (int i = 0; i < 4; ++i) {
    set_.SelectCoveringInto(covering, req, &result);
  }
  const QueryResult want = result;
  ASSERT_GT(want.count, 0u);

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) {
    set_.SelectCoveringInto(covering, req, &result);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state SELECT must not allocate";
  EXPECT_EQ(result.count, want.count);
  EXPECT_EQ(result.values, want.values);
}

TEST_F(AllocationTest, CoverIntoSteadyStateIsAllocationFree) {
  // The served read's covering step: the polygon is projected straight into
  // the coverer's thread-local edge scratch and the ids go straight into the
  // caller's reused buffer.
  const auto polygons = workload::Neighborhoods(raw_, 4, 11);
  ASSERT_FALSE(polygons.empty());
  std::vector<std::vector<cell::CellId>> want;
  std::vector<cell::CellId> covering;
  for (const geo::Polygon& polygon : polygons) {
    set_.CoverInto(polygon, &covering);
    ASSERT_FALSE(covering.empty());
    want.push_back(covering);
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  bool same = true;
  for (int i = 0; i < 200; ++i) {
    const size_t p = static_cast<size_t>(i) % polygons.size();
    set_.CoverInto(polygons[p], &covering);
    same = same && covering == want[p];
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state CoverInto must not allocate";
  EXPECT_TRUE(same);
}

TEST_F(AllocationTest, CoverCacheHitIsAllocationFree) {
  // The server's per-read lookup on a repeated polygon: hashing the rings
  // and finding the cached covering touch no heap.
  const auto polygons = workload::Neighborhoods(raw_, 4, 11);
  ASSERT_FALSE(polygons.empty());
  server::CoverCache cache(1 << 20);
  for (const geo::Polygon& polygon : polygons) {
    cache.Insert(server::CoverCache::Hash(polygon), polygon,
                 set_.Cover(polygon));
  }
  ASSERT_EQ(cache.entries(), polygons.size());

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  bool same = true;
  for (int i = 0; i < 200; ++i) {
    const geo::Polygon& polygon = polygons[static_cast<size_t>(i) %
                                           polygons.size()];
    const std::vector<cell::CellId>* covering =
        cache.Find(server::CoverCache::Hash(polygon), polygon);
    same = same && covering != nullptr && !covering->empty();
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "a cover-cache hit must not allocate";
  EXPECT_TRUE(same) << "every repeated polygon must hit";
  for (const geo::Polygon& polygon : polygons) {
    EXPECT_EQ(*cache.Find(server::CoverCache::Hash(polygon), polygon),
              set_.Cover(polygon));
  }
}

TEST_F(AllocationTest, CoveringHugePolygonIsLinearAndKeepsNoScratch) {
  // A comb of 10,000 thin teeth packed into one level-15 column: all 20,001
  // edges run the polygon's full height, so an edge index keyed by height
  // would hold edges^2 entries.
  constexpr int kTeeth = 10000;
  const double cell = std::ldexp(1.0, -kLevel);
  const double column = std::floor(0.3 / cell) * cell;
  geo::Ring ring;
  for (int k = 0; k < kTeeth; ++k) {
    ring.push_back({column + cell * (0.1 + 0.8 * k / kTeeth), 0.3});
    ring.push_back({column + cell * (0.1 + 0.8 * (k + 0.5) / kTeeth),
                    0.3 + 16 * cell});
  }
  ring.push_back({column + 0.9 * cell, 0.3});
  const int64_t edges = static_cast<int64_t>(ring.size());
  const geo::Polygon comb(std::move(ring));
  cell::CovererOptions options;
  options.max_level = kLevel;
  // Warm this thread's scratch on an everyday polygon.
  ASSERT_FALSE(cell::GetCovering(geo::Polygon{{0.1, 0.1}, {0.2, 0.1},
                                              {0.15, 0.2}},
                                 options)
                   .empty());

  const int64_t before = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(before, std::memory_order_relaxed);
  int64_t cells = 0;
  {
    const std::vector<cell::CoveringCell> covering =
        cell::GetCovering(comb, options);
    cells = static_cast<int64_t>(covering.size());
  }
  const int64_t after = g_live_bytes.load(std::memory_order_relaxed);
  const int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  EXPECT_GE(cells, 16);  // one column, no sibling to merge with
  // Working memory stays linear in the edge count: the edges themselves
  // and the clipped-edge stack, at most one slice per level.
  EXPECT_LT(peak - before, 1024 * edges + 64 * cells)
      << "covering used " << (peak - before) << " bytes for " << edges
      << " edges";
  EXPECT_LE(after, before) << "the huge polygon's scratch outlived the call";
}

TEST_F(AllocationTest, CachedSelectSteadyStateIsAllocationFree) {
  // The single-block cache's lock-free read: trie probe, stats record and
  // counter bumps are atomics over preallocated tables.
  const AggregateRequest req = InlineRequest();
  const auto polygons = workload::Neighborhoods(raw_, 4, 11);
  ASSERT_FALSE(polygons.empty());
  const GeoBlock block = GeoBlock::Build(*data_, BlockOptions{kLevel, {}});
  const std::vector<cell::CellId> covering = block.Cover(polygons[0]);
  ASSERT_FALSE(covering.empty());
  // Interval rebuilds off: the measured window must not race a rebuild.
  const GeoBlockQC qc(&block, GeoBlockQC::Options{0.2, 0});
  const auto select_into = [&](QueryResult* out) {
    Accumulator acc(&req);
    qc.CombineCovering(covering, &acc);
    acc.FinishInto(out);
  };
  QueryResult result;
  for (int i = 0; i < 32; ++i) select_into(&result);
  qc.RebuildCache();
  ASSERT_GT(qc.trie_snapshot()->num_cached(), 0u);
  select_into(&result);
  const QueryResult want = result;
  const CacheCounters warm = qc.counters();

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 200; ++i) select_into(&result);
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state cached SELECT must not allocate";
  EXPECT_EQ(result.count, want.count);
  EXPECT_EQ(result.values, want.values);
  EXPECT_GT(qc.counters().full_hits, warm.full_hits) << "reads never hit";
}

TEST_F(AllocationTest, CommitFastPathSteadyStateIsAllocationFree) {
  // The serving mix: routed commits interleaved with SELECTs over a
  // covering. Readers pin (and release) each shard's current state while
  // the commits publish copy-on-write successors through the page free
  // lists.
  const AggregateRequest req = InlineRequest();
  const auto polygons = workload::Neighborhoods(raw_, 2, 5);
  ASSERT_FALSE(polygons.empty());
  const std::vector<cell::CellId> covering = set_.Cover(polygons[0]);

  const auto batch = InCellBatch(64, 7);
  // Warm: the per-block page free lists fill over the first few commits (each
  // publish retires the predecessor into its recycler), and the routing /
  // classify thread-locals and the result's values reach capacity.
  QueryResult result;
  for (int i = 0; i < 8; ++i) {
    (void)set_.ApplyBatchUpdate(batch);
    set_.SelectCoveringInto(covering, req, &result);
  }
  ASSERT_EQ(set_.PendingUpdateCount(), 0u) << "batch must be in-cell only";
  const uint64_t warm_count = result.count;

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  size_t applied = 0;
  constexpr int kCommits = 32;
  for (int i = 0; i < kCommits; ++i) {
    applied += set_.ApplyBatchUpdate(batch).applied;
    set_.SelectCoveringInto(covering, req, &result);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "steady-state commit must not allocate";
  EXPECT_EQ(applied, kCommits * batch.size());
  // The reads saw the commits land (counts only ever grow).
  EXPECT_GE(result.count, warm_count);
}

TEST_F(AllocationTest, UncachedCommitFastPathIsAllocationFreeToo) {
  // The per-shard step in isolation: GeoBlock::ApplyBatchUpdate on one
  // unsharded block over the same rows. The page free list alone must make
  // the copy-on-write commit loop allocation-free.
  GeoBlock block = GeoBlock::Build(*data_, BlockOptions{kLevel, {}});
  const auto batch = InCellBatch(48, 13);
  for (int i = 0; i < 8; ++i) {
    (void)block.ApplyBatchUpdate(batch);
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  size_t applied = 0;
  constexpr int kCommits = 32;
  for (int i = 0; i < kCommits; ++i) {
    applied += block.ApplyBatchUpdate(batch).applied;
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "per-shard commit steady state allocated";
  EXPECT_EQ(applied, kCommits * batch.size());
}

TEST_F(AllocationTest, WideCommitSteadyStateIsAllocationFree) {
  // A commit that copies more pages than any fixed free-list size would
  // hold: the recycler keeps as many spares as the last commit copied, so
  // a stream of such commits allocates nothing either.
  GeoBlock block = GeoBlock::Build(*data_, BlockOptions{kFineLevel, {}});
  const size_t pages = block.num_cells() / kPageCells;
  ASSERT_GE(pages, 80u) << "too few pages for a wide commit";
  const auto batch = OnePerPageBatch(block, pages);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(block.ApplyBatchUpdate(batch).applied, pages);
  }

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 8; ++i) {
    (void)block.ApplyBatchUpdate(batch);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "wide commit steady state allocated";
}

TEST_F(AllocationTest, PageFreeListShrinksToTheLastCommit) {
  // After a stream of wide commits, a stream of one-page commits must give
  // the surplus spare pages back: the free list holds no more pages than
  // the last commit copied.
  GeoBlock block = GeoBlock::Build(*data_, BlockOptions{kFineLevel, {}});
  const size_t pages = block.num_cells() / kPageCells;
  ASSERT_GE(pages, 80u) << "too few pages for a wide commit";
  const auto wide = OnePerPageBatch(block, pages);
  const auto narrow = OnePerPageBatch(block, 1);
  for (int i = 0; i < 4; ++i) (void)block.ApplyBatchUpdate(wide);
  const int64_t wide_live = g_live_bytes.load(std::memory_order_relaxed);
  for (int i = 0; i < 4; ++i) (void)block.ApplyBatchUpdate(narrow);
  const int64_t narrow_live = g_live_bytes.load(std::memory_order_relaxed);
  // Every spare but one is freed; each holds at least its fixed arrays.
  EXPECT_GE(wide_live - narrow_live,
            static_cast<int64_t>((pages - 2) * sizeof(CellPage)));
}

}  // namespace
}  // namespace geoblocks::core
