#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "core/block_qc.h"
#include "core/block_set.h"
#include "core/geoblock.h"
#include "storage/sharded_dataset.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

// Count every global heap allocation in this test binary so the serving hot
// paths' zero-allocation guarantees are checkable, not aspirational.
// Counting is always on; tests read the counter around a measured window.
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace geoblocks::core {
namespace {

/// Steady-state allocation behavior of the serving hot paths: the SELECT
/// read path (SelectCoveringInto), the MVCC commit fast path
/// (ApplyBatchUpdate routed through the per-shard clone-patch publish), and
/// the single-block cached read (GeoBlockQC). Each must reach zero heap
/// allocations once its reusable scratch — thread-local routing/classify
/// buffers, the block-state arena, and the caller's QueryResult — is warm.
class AllocationTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 2;

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
  // the commits clone-patch-publish successors through the state arenas.
  const AggregateRequest req = InlineRequest();
  const auto polygons = workload::Neighborhoods(raw_, 2, 5);
  ASSERT_FALSE(polygons.empty());
  const std::vector<cell::CellId> covering = set_.Cover(polygons[0]);

  const auto batch = InCellBatch(64, 7);
  // Warm: the per-block state arenas fill over the first few commits (each
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
  // unsharded block over the same rows. The state arena alone must make
  // the clone-patch-publish loop allocation-free.
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

}  // namespace
}  // namespace geoblocks::core
