#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/block_set.h"
#include "core/geoblock.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace {

using core::AggFn;
using core::AggregateRequest;
using core::BlockSet;
using core::BlockSetOptions;
using core::GeoBlock;
using core::QueryBatch;
using core::QueryResult;

/// Concurrency-facing behavior of the sharded engine: batched execution
/// must be deterministic under any scheduling.
class QueryBatchTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(30000, 31));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = new storage::ShardedDataset(
        storage::ShardedDataset::Partition(*data_, shard_options));
    set_ = new BlockSet(
        BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}}));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 24, 32));
  }
  static void TearDownTestSuite() {
    delete polygons_;
    delete set_;
    delete sharded_;
    delete data_;
    delete raw_;
    polygons_ = nullptr;
    set_ = nullptr;
    sharded_ = nullptr;
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
    return req;
  }

  /// Same count and the same bits in every value.
  static void ExpectBitIdentical(const QueryResult& got,
                                 const QueryResult& want, const char* what,
                                 size_t query) {
    ASSERT_EQ(got.count, want.count) << what << " query " << query;
    ASSERT_EQ(got.values.size(), want.values.size())
        << what << " query " << query;
    ASSERT_EQ(std::memcmp(got.values.data(), want.values.data(),
                          got.values.size() * sizeof(double)),
              0)
        << what << " query " << query;
  }

  static void ExpectExactlyEqual(const std::vector<QueryResult>& a,
                                 const std::vector<QueryResult>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ExpectBitIdentical(a[i], b[i], "batch", i);
    }
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static storage::ShardedDataset* sharded_;
  static BlockSet* set_;
  static std::vector<geo::Polygon>* polygons_;
};

storage::PointTable* QueryBatchTest::raw_ = nullptr;
storage::SortedDataset* QueryBatchTest::data_ = nullptr;
storage::ShardedDataset* QueryBatchTest::sharded_ = nullptr;
BlockSet* QueryBatchTest::set_ = nullptr;
std::vector<geo::Polygon>* QueryBatchTest::polygons_ = nullptr;

TEST_F(QueryBatchTest, BatchMatchesSequentialSelect) {
  // A batched answer is the per-query Select fold itself, so it equals
  // Select and one unsharded block bit for bit, inline or on any pool.
  const AggregateRequest req = Request();
  const QueryBatch batch = QueryBatch::Of(*polygons_, &req);
  const GeoBlock single =
      GeoBlock::Build(*data_, core::BlockOptions{kLevel, {}});
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr),
                                 &pool1, &pool4}) {
    const std::vector<QueryResult> results = set_->ExecuteBatch(batch, pool);
    ASSERT_EQ(results.size(), polygons_->size());
    for (size_t i = 0; i < results.size(); ++i) {
      const geo::Polygon& polygon = (*polygons_)[i];
      ExpectBitIdentical(results[i], set_->Select(polygon, req), "Select", i);
      ExpectBitIdentical(results[i], single.Select(polygon, req),
                         "single block", i);
    }
  }
}

TEST_F(QueryBatchTest, BatchIsDeterministicAcrossRunsAndPoolSizes) {
  const AggregateRequest req = Request();
  const QueryBatch batch = QueryBatch::Of(*polygons_, &req);
  util::ThreadPool pool1(1);
  util::ThreadPool pool4(4);
  const auto inline_run = set_->ExecuteBatch(batch, nullptr);
  const auto run1 = set_->ExecuteBatch(batch, &pool1);
  const auto run4a = set_->ExecuteBatch(batch, &pool4);
  const auto run4b = set_->ExecuteBatch(batch, &pool4);
  // Each query folds on one task in key order, so results are bitwise
  // reproducible no matter how the tasks were scheduled.
  ExpectExactlyEqual(inline_run, run1);
  ExpectExactlyEqual(run1, run4a);
  ExpectExactlyEqual(run4a, run4b);
}

TEST_F(QueryBatchTest, CountBatchMatchesSequentialCount) {
  util::ThreadPool pool(4);
  std::vector<const geo::Polygon*> polys;
  for (const geo::Polygon& p : *polygons_) polys.push_back(&p);
  const std::vector<uint64_t> counts = set_->CountBatch(polys, &pool);
  ASSERT_EQ(counts.size(), polys.size());
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], set_->Count(*polys[i])) << "query " << i;
  }
}

TEST_F(QueryBatchTest, ConcurrentMixedWorkloadIsDeterministic) {
  // Several client threads issue batched SELECTs and COUNTs against one
  // BlockSet while sharing one pool; every thread must observe identical
  // results.
  util::ThreadPool pool(4);
  const AggregateRequest req = Request();
  const QueryBatch batch = QueryBatch::Of(*polygons_, &req);
  std::vector<const geo::Polygon*> polys;
  for (const geo::Polygon& p : *polygons_) polys.push_back(&p);

  const std::vector<QueryResult> want_select =
      set_->ExecuteBatch(batch, nullptr);
  const std::vector<uint64_t> want_count = set_->CountBatch(polys, nullptr);

  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<std::vector<QueryResult>>> selects(kClients);
  std::vector<std::vector<std::vector<uint64_t>>> counts(kClients);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        selects[t].push_back(set_->ExecuteBatch(batch, &pool));
        counts[t].push_back(set_->CountBatch(polys, &pool));
      }
    });
  }
  for (std::thread& c : clients) c.join();

  for (size_t t = 0; t < kClients; ++t) {
    for (size_t r = 0; r < kRounds; ++r) {
      ExpectExactlyEqual(selects[t][r], want_select);
      ASSERT_EQ(counts[t][r], want_count) << "client " << t;
    }
  }
}

TEST_F(QueryBatchTest, ExecuteBatchRejectsNullRequest) {
  QueryBatch batch;
  batch.polygons.push_back(&(*polygons_)[0]);
  util::ThreadPool pool(2);
  EXPECT_THROW(set_->ExecuteBatch(batch, nullptr), std::invalid_argument);
  EXPECT_THROW(set_->ExecuteBatch(batch, &pool), std::invalid_argument);
  // An empty batch without a request is still malformed.
  EXPECT_THROW(set_->ExecuteBatch(QueryBatch{}, nullptr),
               std::invalid_argument);
}

}  // namespace
}  // namespace geoblocks
