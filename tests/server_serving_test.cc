// End-to-end serving correctness: N concurrent in-process clients against
// a live QueryServer, with a serial BlockSet as the oracle.
//
//  1. Concurrent reads — every SELECT / COUNT response must be
//     bit-identical to the direct-engine answer (the wire carries raw
//     double bits and the server answers each read with the per-query
//     Select / Count).
//
//  2. Concurrent updates — in-cell tuples with exactly-representable
//     values (eighths), so floating-point sums are order-independent and
//     the served state after a storm of interleaved UPDATE batches must
//     match a serial oracle that applies the acknowledged batches in any
//     order — bit-identical sweeps, exact total count.
//
//  3. Crash + restart — the server runs over BlockSet::OpenLogged with an
//     injected WAL fail point (util/fail_point.h). Clients push updates
//     until the log dies (Status::kInternal = NOT acknowledged), the
//     server Abort()s, and recovery must restore exactly the acknowledged
//     prefix: persist-first carried through the wire.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/cell_id.h"
#include "core/block_set.h"
#include "core/serialize.h"
#include "io/update_log.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/sharded_dataset.h"
#include "util/fail_point.h"
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
using core::QueryResult;
using io::UpdateLog;
using server::Client;
using server::QueryServer;
using server::ServerOptions;
using server::Status;

using Batch = std::vector<GeoBlock::UpdateTuple>;

class ServerServingTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;

  static void SetUpTestSuite() {
    storage::PointTable raw = workload::GenTaxi(30000, 21);
    storage::ExtractOptions extract;
    extract.clean_bounds = workload::NycBounds();
    data_ = new std::shared_ptr<const storage::SortedDataset>(
        std::make_shared<const storage::SortedDataset>(
            storage::SortedDataset::Extract(raw, extract)));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = new storage::ShardedDataset(
        storage::ShardedDataset::Partition(*data_, shard_options));
    pool_ = new util::ThreadPool(4);
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(raw, 12, 21));
  }

  static void TearDownTestSuite() {
    delete polygons_;
    delete pool_;
    delete sharded_;
    delete data_;
    polygons_ = nullptr;
    pool_ = nullptr;
    sharded_ = nullptr;
    data_ = nullptr;
  }

  static BlockSet BuildSet() {
    return BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}}, pool_);
  }

  /// The aggregate mixes the suite queries with — several distinct
  /// signatures share each epoch.
  static std::vector<AggregateRequest> Requests() {
    std::vector<AggregateRequest> reqs(3);
    reqs[0].Add(AggFn::kCount);
    reqs[1].Add(AggFn::kCount);
    reqs[1].Add(AggFn::kSum, 0);
    reqs[2].Add(AggFn::kSum, 0);
    reqs[2].Add(AggFn::kMin, 0);
    reqs[2].Add(AggFn::kMax, 0);
    return reqs;
  }

  /// Update tuples landing inside already-covered cells, with values that
  /// are exact multiples of 1/8 — sums of these are exact in binary
  /// floating point, so any application order yields bit-identical state.
  static Batch InCellBatch(const BlockSet& set, size_t count,
                           uint64_t seed) {
    std::mt19937_64 rng(seed);
    const std::vector<uint64_t>& cells = set.shard(0).cells();
    Batch batch;
    for (size_t i = 0; i < count; ++i) {
      const geo::Point unit =
          cell::CellId(cells[rng() % cells.size()]).CenterPoint();
      GeoBlock::UpdateTuple t;
      t.location = (*data_)->projection().FromUnit(unit);
      t.values.assign((*data_)->num_columns(),
                      static_cast<double>(rng() % 1000) / 8.0);
      batch.push_back(std::move(t));
    }
    return batch;
  }

  /// Bit-identical sweep: every (polygon, request) answer of `got` equals
  /// `want`'s, including the raw double bits of the aggregates.
  static void ExpectSetsEquivalent(const BlockSet& got, const BlockSet& want,
                                   const char* what) {
    const std::vector<AggregateRequest> reqs = Requests();
    for (size_t p = 0; p < polygons_->size(); ++p) {
      for (size_t r = 0; r < reqs.size(); ++r) {
        const QueryResult a = got.Select((*polygons_)[p], reqs[r]);
        const QueryResult b = want.Select((*polygons_)[p], reqs[r]);
        ASSERT_EQ(a.count, b.count) << what << ": polygon " << p;
        ASSERT_EQ(a.values, b.values)
            << what << ": polygon " << p << " request " << r;
      }
      ASSERT_EQ(got.Count((*polygons_)[p]), want.Count((*polygons_)[p]))
          << what << ": polygon " << p;
    }
  }

  /// memcmp equality of two answers: the count and every double's bits.
  static bool BitIdentical(const QueryResult& a, const QueryResult& b) {
    return a.count == b.count && a.values.size() == b.values.size() &&
           std::memcmp(a.values.data(), b.values.data(),
                       a.values.size() * sizeof(double)) == 0;
  }

  static void ExpectFailingReadsAnswerOnlyThemselves(bool warm_cache);

  static std::shared_ptr<const storage::SortedDataset>* data_;
  static storage::ShardedDataset* sharded_;
  static util::ThreadPool* pool_;
  static std::vector<geo::Polygon>* polygons_;
};

std::shared_ptr<const storage::SortedDataset>* ServerServingTest::data_ =
    nullptr;
storage::ShardedDataset* ServerServingTest::sharded_ = nullptr;
util::ThreadPool* ServerServingTest::pool_ = nullptr;
std::vector<geo::Polygon>* ServerServingTest::polygons_ = nullptr;

TEST_F(ServerServingTest, ConcurrentReadsAreBitIdenticalToSerialOracle) {
  BlockSet set = BuildSet();
  BlockSet oracle = BuildSet();
  ServerOptions options;
  options.pool = pool_;
  QueryServer server(&set, options);
  server.Start();

  // Precompute every expected answer serially against the oracle. The
  // server runs each read as the per-query Select / Count, so the served
  // answer must equal the library call bit for bit.
  const std::vector<AggregateRequest> reqs = Requests();
  std::vector<std::vector<QueryResult>> expected(polygons_->size());
  std::vector<uint64_t> expected_counts(polygons_->size());
  for (size_t p = 0; p < polygons_->size(); ++p) {
    for (const AggregateRequest& req : reqs) {
      expected[p].push_back(oracle.Select((*polygons_)[p], req));
    }
    expected_counts[p] = oracle.Count((*polygons_)[p]);
  }

  constexpr size_t kThreads = 6;
  constexpr size_t kPerThread = 40;
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Client::Options copts;
      copts.tenant = static_cast<uint32_t>(t);
      Client client = Client::Connect(server.port(), copts);
      std::mt19937_64 rng(1000 + t);
      for (size_t i = 0; i < kPerThread; ++i) {
        const size_t p = rng() % polygons_->size();
        if (i % 4 == 3) {
          if (client.Count((*polygons_)[p]) != expected_counts[p]) {
            mismatches.fetch_add(1);
          }
        } else {
          const size_t r = rng() % reqs.size();
          const QueryResult got = client.Select((*polygons_)[p], reqs[r]);
          if (got.count != expected[p][r].count ||
              got.values != expected[p][r].values) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u)
      << "served answers diverged from the serial oracle";

  // An epoch counts toward select_groups only when it answered a SELECT.
  const server::ServerStats stats = server.stats();
  EXPECT_GT(stats.selects_executed, 0u);
  EXPECT_LE(stats.select_groups, stats.selects_executed);
  server.Stop();
}

TEST_F(ServerServingTest, ConcurrentUpdateStormConvergesToSerialOracle) {
  BlockSet set = BuildSet();
  ServerOptions options;
  options.pool = pool_;
  QueryServer server(&set, options);
  server.Start();

  constexpr size_t kWriters = 4;
  constexpr size_t kBatchesPerWriter = 12;
  constexpr size_t kTuplesPerBatch = 16;
  std::mutex acked_mu;
  std::vector<Batch> acked;
  std::atomic<uint64_t> read_errors{0};

  std::vector<std::thread> workers;
  for (size_t t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      Client::Options copts;
      copts.tenant = static_cast<uint32_t>(t);
      Client client = Client::Connect(server.port(), copts);
      BlockSet probe = BuildSet();  // cheap source of cell ids
      for (size_t b = 0; b < kBatchesPerWriter; ++b) {
        Batch batch =
            InCellBatch(probe, kTuplesPerBatch, 7000 + t * 100 + b);
        const server::UpdateAck ack = client.Update(batch);
        ASSERT_EQ(ack.accepted, batch.size());
        EXPECT_GT(ack.change_number, 0u);
        std::lock_guard<std::mutex> lock(acked_mu);
        acked.push_back(std::move(batch));
      }
    });
  }
  // Interleaved readers: answers must stay well-formed while the state
  // moves underneath them (values monotonicity is checked by the oracle
  // sweep afterwards; here we only require OK responses).
  for (size_t t = 0; t < 2; ++t) {
    workers.emplace_back([&, t] {
      Client client = Client::Connect(server.port());
      std::mt19937_64 rng(50 + t);
      for (size_t i = 0; i < 60; ++i) {
        try {
          (void)client.Count((*polygons_)[rng() % polygons_->size()]);
        } catch (const std::exception&) {
          read_errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  server.Stop();
  EXPECT_EQ(read_errors.load(), 0u);
  ASSERT_EQ(acked.size(), kWriters * kBatchesPerWriter)
      << "every UPDATE should have been acknowledged";

  // Serial oracle: the same acknowledged batches, applied one by one.
  BlockSet oracle = BuildSet();
  uint64_t acked_tuples = 0;
  for (const Batch& batch : acked) {
    oracle.ApplyBatchUpdate(batch);
    acked_tuples += batch.size();
  }
  EXPECT_EQ(server.stats().update_tuples, acked_tuples);
  ExpectSetsEquivalent(set, oracle, "update storm");
}

TEST_F(ServerServingTest, AcknowledgedUpdatesSurviveCrashAndRestart) {
  const std::string stem = ::testing::TempDir() + "server_serving_crash";
  const std::string manifest_path = stem + ".gbst";
  const std::string wal_path = stem + ".wal";
  ::unlink(wal_path.c_str());
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  uint64_t base_count = 0;
  {
    const BlockSet pristine = BuildSet();
    base_count = pristine.CountCovering(all);
    std::ofstream out(manifest_path, std::ios::binary | std::ios::trunc);
    pristine.WriteTo(out);
  }

  // Serve over an OpenLogged set whose WAL dies mid-stream.
  std::mutex acked_mu;
  std::vector<Batch> acked;
  {
    util::FailPoint fail_point;
    fail_point.ArmAfterBytes(4000);  // dies partway through the storm
    UpdateLog::Options log_options;
    log_options.fail_point = &fail_point;
    auto log = UpdateLog::Open(wal_path, log_options);
    BlockSet set = BlockSet::OpenLogged(manifest_path, log.get());
    ServerOptions options;
    options.pool = pool_;
    QueryServer server(&set, options);
    server.Start();

    constexpr size_t kWriters = 3;
    std::vector<std::thread> workers;
    for (size_t t = 0; t < kWriters; ++t) {
      workers.emplace_back([&, t] {
        Client::Options copts;
        copts.tenant = static_cast<uint32_t>(t);
        Client client = Client::Connect(server.port(), copts);
        BlockSet probe = BuildSet();
        for (size_t b = 0; b < 40; ++b) {
          Batch batch = InCellBatch(probe, 8, 9000 + t * 100 + b);
          try {
            const server::UpdateAck ack = client.Update(batch);
            ASSERT_EQ(ack.accepted, batch.size());
          } catch (const std::exception&) {
            return;  // kInternal (dead WAL) or dropped connection: NOT acked
          }
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.push_back(std::move(batch));
        }
      });
    }
    for (std::thread& w : workers) w.join();
    server.Abort();  // simulated crash: backlog discarded unanswered
  }

  // Recovery: exactly the acknowledged batches survive (ArmAfterBytes
  // kills the WAL mid-record, so acked <=> durable, bit for bit).
  ASSERT_FALSE(acked.empty()) << "fail point fired before any ack";
  auto log = UpdateLog::Open(wal_path);
  const BlockSet recovered = BlockSet::OpenLogged(manifest_path, log.get());

  uint64_t acked_tuples = 0;
  std::ifstream in(manifest_path, std::ios::binary);
  BlockSet oracle = BlockSet::ReadFrom(in);
  for (const Batch& batch : acked) {
    oracle.ApplyBatchUpdate(batch);
    acked_tuples += batch.size();
  }
  EXPECT_EQ(recovered.CountCovering(all), base_count + acked_tuples)
      << "recovered tuple count must be exactly base + acknowledged";
  ExpectSetsEquivalent(recovered, oracle, "crash recovery");

  ::unlink(manifest_path.c_str());
  ::unlink(wal_path.c_str());
}

TEST_F(ServerServingTest, MappedSetServesAndReportsMemoryStats) {
  // A lazily opened set behind the server: queries through the wire pay
  // admission-time fault-in on the pool, answers match the eager oracle,
  // and STATS surfaces the governor's memory.* keys (docs/PROTOCOL.md).
  const std::string path =
      ::testing::TempDir() + "server_serving_mapped.gbst";
  const BlockSet oracle = BuildSet();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    oracle.WriteTo(out);
  }
  // Bit-identical gating must compare against the same on-disk bytes the
  // mapped set serves from: the pre-serialization build differs in the
  // last ulp of some aggregates.
  std::ifstream back(path, std::ios::binary);
  const BlockSet eager = BlockSet::ReadFrom(back);

  core::MemoryGovernor governor(core::MemoryGovernor::Options{0});
  core::LazyOpenOptions lazy_options;
  lazy_options.governor = &governor;
  BlockSet set = BlockSet::OpenMapped(path, lazy_options);

  ServerOptions options;
  options.pool = pool_;
  options.memory = &governor;
  QueryServer server(&set, options);
  server.Start();
  {
    Client client = Client::Connect(server.port());
    const std::vector<AggregateRequest> reqs = Requests();
    for (const geo::Polygon& poly : *polygons_) {
      const QueryResult got = client.Select(poly, reqs[2]);
      const QueryResult want = eager.Select(poly, reqs[2]);
      ASSERT_EQ(want.count, got.count);
      // A cold mapped shard routes through the conservative boundary
      // fallback, but a wrongly routed shard folds nothing, and the
      // server runs the same per-query Select: the bits must match.
      ASSERT_EQ(want.values, got.values)
          << "served lazy answer diverged from the eager oracle";
    }
    std::map<std::string, uint64_t> stats;
    for (const auto& [key, value] : client.Stats()) stats[key] = value;
    ASSERT_TRUE(stats.count("memory.resident_bytes"));
    ASSERT_TRUE(stats.count("memory.budget_bytes"));
    ASSERT_TRUE(stats.count("memory.evictions"));
    ASSERT_TRUE(stats.count("memory.faults"));
    ASSERT_TRUE(stats.count("memory.refusals"));
    ASSERT_TRUE(stats.count("memory.resident_shards"));
    EXPECT_GT(stats["memory.resident_bytes"], 0u);
    EXPECT_EQ(stats["memory.budget_bytes"], 0u);  // unlimited
    EXPECT_GT(stats["memory.faults"], 0u) << "queries must have faulted";
    EXPECT_EQ(stats["memory.resident_shards"], set.resident_shards());
    // STATS snapshots reconcile with the engine's own counters.
    EXPECT_EQ(stats["memory.faults"], governor.stats().faults);
  }
  server.Stop();
  ::unlink(path.c_str());
}

/// One epoch mixing reads that fault a corrupt mapped shard with reads
/// that avoid it: each failing read is answered kInternal on its own, and
/// every other read of the same epoch gets its exact answer. With
/// `warm_cache`, every polygon is read once first, so every read of that
/// epoch, the failing ones too, takes its covering from the cover cache.
void ServerServingTest::ExpectFailingReadsAnswerOnlyThemselves(
    bool warm_cache) {
  const std::string path =
      ::testing::TempDir() + "server_serving_corrupt.gbst";
  std::string bytes;
  {
    std::ostringstream out(std::ios::binary);
    BuildSet().WriteTo(out);
    bytes = std::move(out).str();
  }
  std::istringstream intact(bytes, std::ios::binary);
  const BlockSet eager = BlockSet::ReadFrom(intact);
  {
    std::istringstream in(bytes, std::ios::binary);
    const core::serialize::SetManifest m =
        core::serialize::ReadSetManifest(in);
    ASSERT_GT(m.payload_sizes[2], 0u);
    bytes[m.manifest_bytes + m.payload_offsets[2] + m.payload_sizes[2] / 2] ^=
        0x5A;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  BlockSet set = BlockSet::OpenMapped(path);

  // The corrupt shard never materializes, so the mapped set's routing of
  // each polygon is fixed: it either reaches shard 2 or it does not.
  std::vector<bool> hits_corrupt;
  for (const geo::Polygon& p : *polygons_) {
    const std::vector<size_t> shards = set.OverlappingShards(set.Cover(p));
    hits_corrupt.push_back(std::find(shards.begin(), shards.end(), 2) !=
                           shards.end());
  }
  ASSERT_NE(std::count(hits_corrupt.begin(), hits_corrupt.end(), true), 0);
  ASSERT_NE(std::count(hits_corrupt.begin(), hits_corrupt.end(), false), 0);

  // Park the batcher in its first epoch after the warm-up so every probe
  // below queues up behind it and the next drain runs all of them as one
  // epoch.
  std::mutex hook_mu;
  std::condition_variable hook_cv;
  bool park = !warm_cache;
  bool entered = false;
  bool release = false;
  ServerOptions options;
  options.pool = pool_;
  options.batch_hook = [&] {
    std::unique_lock<std::mutex> lock(hook_mu);
    if (!park) return;
    entered = true;
    hook_cv.notify_all();
    hook_cv.wait(lock, [&] { return release; });
  };
  QueryServer server(&set, options);
  server.Start();
  const size_t n = polygons_->size();
  uint64_t warm_misses = 0;
  if (warm_cache) {
    // One COUNT per polygon, each its own epoch. A read that fails in the
    // fold still covered its polygon, so its covering is cached too.
    Client c = Client::Connect(server.port());
    for (const geo::Polygon& p : *polygons_) {
      try {
        (void)c.Count(p);
      } catch (const server::ServerError&) {
      }
    }
    const server::ServerStats warm = server.stats();
    ASSERT_EQ(warm.cover_cache_entries, n);
    ASSERT_EQ(warm.cover_cache_hits, 0u);
    warm_misses = warm.cover_cache_misses;
    std::lock_guard<std::mutex> lock(hook_mu);
    park = true;
  }
  std::thread first([&] {
    Client c = Client::Connect(server.port());
    try {
      (void)c.Count((*polygons_)[0]);
    } catch (const server::ServerError&) {
      // Polygon 0 may reach the corrupt shard; only the parking matters.
    }
  });
  {
    std::unique_lock<std::mutex> lock(hook_mu);
    hook_cv.wait(lock, [&] { return entered; });
  }

  const AggregateRequest req = Requests()[2];
  std::vector<Status> select_status(n, Status::kOk);
  std::vector<Status> count_status(n, Status::kOk);
  std::vector<QueryResult> selects(n);
  std::vector<uint64_t> counts(n, 0);
  std::vector<std::thread> probes;
  for (size_t p = 0; p < n; ++p) {
    probes.emplace_back([&, p] {
      Client c = Client::Connect(server.port());
      try {
        selects[p] = c.Select((*polygons_)[p], req);
      } catch (const server::ServerError& e) {
        select_status[p] = e.status;
      }
    });
    probes.emplace_back([&, p] {
      Client c = Client::Connect(server.port());
      try {
        counts[p] = c.Count((*polygons_)[p]);
      } catch (const server::ServerError& e) {
        count_status[p] = e.status;
      }
    });
  }
  while (server.stats().queue_depth < 2 * n) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(hook_mu);
    release = true;
  }
  hook_cv.notify_all();
  for (std::thread& t : probes) t.join();
  first.join();
  server.Stop();
  const server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches_executed, (warm_cache ? n : 0) + 2)
      << "probes shared an epoch";
  EXPECT_EQ(stats.cover_cache_hits + stats.cover_cache_misses,
            stats.selects_executed + stats.counts_executed);
  if (warm_cache) {
    EXPECT_EQ(stats.cover_cache_misses, warm_misses)
        << "every read after the warm-up took a cached covering";
    EXPECT_EQ(stats.cover_cache_entries, n);
  }

  for (size_t p = 0; p < n; ++p) {
    if (hits_corrupt[p]) {
      EXPECT_EQ(select_status[p], Status::kInternal) << "polygon " << p;
      EXPECT_EQ(count_status[p], Status::kInternal) << "polygon " << p;
      continue;
    }
    ASSERT_EQ(select_status[p], Status::kOk) << "polygon " << p;
    ASSERT_EQ(count_status[p], Status::kOk) << "polygon " << p;
    const QueryResult want = eager.Select((*polygons_)[p], req);
    EXPECT_EQ(selects[p].count, want.count) << "polygon " << p;
    EXPECT_EQ(selects[p].values, want.values) << "polygon " << p;
    EXPECT_EQ(counts[p], eager.Count((*polygons_)[p])) << "polygon " << p;
  }
  ::unlink(path.c_str());
}

TEST_F(ServerServingTest, FailingReadAnswersOnlyItselfInternal) {
  ExpectFailingReadsAnswerOnlyThemselves(/*warm_cache=*/false);
}

TEST_F(ServerServingTest, FailingCachedReadAnswersOnlyItselfInternal) {
  ExpectFailingReadsAnswerOnlyThemselves(/*warm_cache=*/true);
}

TEST_F(ServerServingTest, RepeatedPolygonsAreBitIdentical) {
  // Every polygon is read five times: its first read covers, the rest take
  // the cached covering. Both must answer exactly what Select / Count
  // answer.
  BlockSet set = BuildSet();
  const std::vector<AggregateRequest> reqs = Requests();
  const size_t n = polygons_->size();
  constexpr size_t kRepeats = 5;
  ServerOptions options;
  options.pool = pool_;
  QueryServer server(&set, options);
  server.Start();
  Client client = Client::Connect(server.port());
  for (size_t round = 0; round < kRepeats; ++round) {
    for (size_t p = 0; p < n; ++p) {
      const geo::Polygon& poly = (*polygons_)[p];
      const AggregateRequest& req = reqs[(p + round) % reqs.size()];
      ASSERT_TRUE(BitIdentical(client.Select(poly, req),
                               set.Select(poly, req)))
          << "polygon " << p << " round " << round;
      ASSERT_EQ(client.Count(poly), set.Count(poly))
          << "polygon " << p << " round " << round;
    }
  }
  // Counters first, responses second: the last answer is in, so the
  // counters are final.
  const server::ServerStats s = server.stats();
  EXPECT_EQ(s.selects_executed + s.counts_executed, 2 * kRepeats * n);
  EXPECT_EQ(s.cover_cache_hits + s.cover_cache_misses,
            s.selects_executed + s.counts_executed);
  EXPECT_EQ(s.cover_cache_misses, n) << "only first reads cover";
  EXPECT_EQ(s.cover_cache_entries, n);
  EXPECT_GT(s.cover_cache_bytes, 0u);
  std::map<std::string, uint64_t> served;
  for (const auto& [key, value] : client.Stats()) served[key] = value;
  EXPECT_EQ(served.at("server.cover_cache_hits"), s.cover_cache_hits);
  EXPECT_EQ(served.at("server.cover_cache_misses"), s.cover_cache_misses);
  EXPECT_EQ(served.at("server.cover_cache_entries"), s.cover_cache_entries);
  EXPECT_EQ(served.at("server.cover_cache_bytes"), s.cover_cache_bytes);
  server.Stop();
}

TEST_F(ServerServingTest, CachedCoveringDoesNotFreezeShardRoutes) {
  // The cache holds a polygon's covering, never its shard routes: a
  // polygon cached while no shard hull reaches it must see the tuples that
  // a later UPDATE and merge-rebuild bring into it.
  BlockSet set = BuildSet();
  constexpr int kProbeLevel = 8;
  constexpr int kShift = cell::CellId::kMaxLevel - kProbeLevel;
  std::optional<cell::CellId> hole;
  for (uint32_t i = 0; i < (1u << kProbeLevel) && !hole; ++i) {
    for (uint32_t j = 0; j < (1u << kProbeLevel) && !hole; ++j) {
      const std::vector<cell::CellId> probe{
          cell::CellId::FromIJLevel(i << kShift, j << kShift, kProbeLevel)};
      if (set.OverlappingShards(probe).empty()) hole = probe[0];
    }
  }
  ASSERT_TRUE(hole.has_value()) << "every cell routes to some shard";
  const geo::Rect r = hole->ToRect();
  const double inset = 0.2 * (r.max.x - r.min.x);
  const geo::Polygon poly = geo::Polygon::FromRect(set.projection().FromUnit(
      geo::Rect{{r.min.x + inset, r.min.y + inset},
                {r.max.x - inset, r.max.y - inset}}));
  ASSERT_TRUE(set.OverlappingShards(set.Cover(poly)).empty());

  ServerOptions options;
  options.pool = pool_;
  QueryServer server(&set, options);
  server.Start();
  Client client = Client::Connect(server.port());
  const AggregateRequest req = Requests()[1];
  ASSERT_EQ(client.Count(poly), 0u);  // caches the covering
  ASSERT_EQ(client.Select(poly, req).count, 0u);

  // New-region tuples at the polygon's center buffer as pending; the flush
  // merge-rebuilds their shard, and its hull grows over the polygon.
  Batch batch(3);
  for (size_t k = 0; k < batch.size(); ++k) {
    batch[k].location = set.projection().FromUnit(hole->CenterPoint());
    batch[k].values.assign((*data_)->num_columns(),
                           static_cast<double>(k + 1) / 8.0);
  }
  ASSERT_EQ(client.Update(batch).accepted, batch.size());
  EXPECT_GT(set.FlushPendingUpdates(), 0u);
  ASSERT_FALSE(set.OverlappingShards(set.Cover(poly)).empty())
      << "no shard hull grew over the polygon";

  EXPECT_EQ(client.Count(poly), batch.size());
  EXPECT_EQ(client.Count(poly), set.Count(poly));
  EXPECT_TRUE(BitIdentical(client.Select(poly, req), set.Select(poly, req)));
  const server::ServerStats s = server.stats();
  EXPECT_EQ(s.cover_cache_misses, 1u) << "later reads reused the covering";
  EXPECT_EQ(s.cover_cache_hits, 4u);
  server.Stop();
}

}  // namespace
}  // namespace geoblocks
