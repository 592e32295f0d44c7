// Multithreaded stress suite for the lock-free read paths. Run under
// ThreadSanitizer in CI (GEOBLOCKS_TSAN).
//
// The single-block query cache (GeoBlockQC): N reader threads hammer mixed
// SELECT/COUNT workloads while rebuilds publish new trie snapshots
// underneath them. The contract being pinned:
//  * For a *frozen* snapshot (no rebuild between queries), concurrent
//    cached SELECTs are bit-identical to a single-threaded pass — the read
//    path has no mode where scheduling can change an answer.
//  * Under concurrent rebuilds, every SELECT still sees exactly one
//    snapshot, so counts are exact and values match the uncached answer to
//    last-ulp FP tolerance (cached cells fold pre-merged sums); COUNT
//    bypasses the cache and is always exact.
//  * Counter accounting is exact after quiescing; counters are monotone
//    between resets even when sampled mid-flight.
//
// The sharded engine (BlockSet): SelectCovering/CountCovering concurrent
// with striped update commits, new-region merges and the rebuild pool
// (UpdatePlaneStressTest below).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/block_qc.h"
#include "core/block_set.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/polygen.h"

namespace geoblocks {
namespace {

using core::AggFn;
using core::AggregateRequest;
using core::BlockSet;
using core::BlockSetOptions;
using core::BlockState;
using core::CacheCounters;
using core::GeoBlock;
using core::GeoBlockQC;
using core::QueryResult;

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  static constexpr int kLevel = 15;
  static constexpr size_t kShards = 4;
  static constexpr size_t kReaders = 4;

  static void SetUpTestSuite() {
    raw_ = new storage::PointTable(workload::GenTaxi(20000, 77));
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    data_ = new storage::SortedDataset(
        storage::SortedDataset::Extract(*raw_, options));
    storage::ShardOptions shard_options;
    shard_options.num_shards = kShards;
    shard_options.align_level = kLevel;
    sharded_ = new storage::ShardedDataset(
        storage::ShardedDataset::Partition(*data_, shard_options));
    block_ = new GeoBlock(GeoBlock::Build(*data_, {kLevel, {}}));
    polygons_ = new std::vector<geo::Polygon>(
        workload::Neighborhoods(*raw_, 24, 5));
  }
  static void TearDownTestSuite() {
    delete polygons_;
    delete block_;
    delete sharded_;
    delete data_;
    delete raw_;
    polygons_ = nullptr;
    block_ = nullptr;
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

  static std::vector<std::vector<cell::CellId>> CoverAll(
      const BlockSet& set) {
    std::vector<std::vector<cell::CellId>> coverings;
    for (const geo::Polygon& poly : *polygons_) {
      coverings.push_back(set.Cover(poly));
    }
    return coverings;
  }

  static std::vector<std::vector<cell::CellId>> CoverAll(
      const GeoBlock& block) {
    std::vector<std::vector<cell::CellId>> coverings;
    for (const geo::Polygon& poly : *polygons_) {
      coverings.push_back(block.Cover(poly));
    }
    return coverings;
  }

  static storage::PointTable* raw_;
  static storage::SortedDataset* data_;
  static storage::ShardedDataset* sharded_;
  // One unsharded block over the same rows: the GeoBlockQC cases wrap it
  // (read-only — cache writers never touch the block state).
  static GeoBlock* block_;
  static std::vector<geo::Polygon>* polygons_;
};

storage::PointTable* ConcurrencyStressTest::raw_ = nullptr;
storage::SortedDataset* ConcurrencyStressTest::data_ = nullptr;
storage::ShardedDataset* ConcurrencyStressTest::sharded_ = nullptr;
GeoBlock* ConcurrencyStressTest::block_ = nullptr;
std::vector<geo::Polygon>* ConcurrencyStressTest::polygons_ = nullptr;

TEST_F(ConcurrencyStressTest, FrozenSnapshotIsBitIdenticalAcrossThreads) {
  // Warm the cache deterministically, freeze it (no rebuild interval),
  // and require every concurrent reader to reproduce the single-threaded
  // pass bit for bit — SELECT values compared with ==, not tolerance.
  const GeoBlockQC qc(block_, GeoBlockQC::Options{0.10, /*rebuild_interval=*/0});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(*block_);

  for (int round = 0; round < 2; ++round) {
    for (const auto& covering : coverings) {
      qc.SelectCovering(covering, req);
    }
    qc.RebuildCache();
  }
  ASSERT_GT(qc.trie_snapshot()->num_cached(), 0u);

  std::vector<QueryResult> want_select;
  std::vector<uint64_t> want_count;
  for (const auto& covering : coverings) {
    want_select.push_back(qc.SelectCovering(covering, req));
    want_count.push_back(block_->CountCovering(covering));
  }

  constexpr size_t kRounds = 8;
  std::vector<std::vector<QueryResult>> got(kReaders);
  std::vector<std::vector<uint64_t>> got_counts(kReaders);
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < coverings.size(); ++i) {
          if ((i + r + t) % 3 == 0) {
            got_counts[t].push_back(block_->CountCovering(coverings[i]));
          }
          got[t].push_back(qc.SelectCovering(coverings[i], req));
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();

  for (size_t t = 0; t < kReaders; ++t) {
    size_t gi = 0;
    size_t ci = 0;
    for (size_t r = 0; r < kRounds; ++r) {
      for (size_t i = 0; i < coverings.size(); ++i) {
        if ((i + r + t) % 3 == 0) {
          ASSERT_EQ(got_counts[t][ci++], want_count[i])
              << "reader " << t << " covering " << i;
        }
        const QueryResult& g = got[t][gi++];
        ASSERT_EQ(g.count, want_select[i].count) << "reader " << t;
        ASSERT_EQ(g.values, want_select[i].values)
            << "reader " << t << " covering " << i
            << ": cached SELECT not bit-identical";
      }
    }
  }
}

TEST_F(ConcurrencyStressTest, MixedWorkloadWithConcurrentRebuilds) {
  // Readers run mixed SELECT/COUNT while a writer thread keeps publishing
  // fresh snapshots and interval-triggered rebuilds fire from the readers
  // themselves. Answers must stay correct throughout: counts exact,
  // values within last-ulp tolerance of the uncached reference.
  const GeoBlockQC qc(block_,
                      GeoBlockQC::Options{0.10, /*rebuild_interval=*/16});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(*block_);

  std::vector<QueryResult> want_select;
  std::vector<uint64_t> want_count;
  for (const auto& covering : coverings) {
    want_select.push_back(block_->SelectCovering(covering, req));
    want_count.push_back(block_->CountCovering(covering));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checked{0};
  std::thread rebuilder([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      qc.RebuildCache();
      qc.counters();  // concurrent counter reads must be safe
    }
  });

  constexpr size_t kRounds = 10;
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t i = 0; i < coverings.size(); ++i) {
          if ((i + t) % 2 == 0) {
            const uint64_t count = block_->CountCovering(coverings[i]);
            ASSERT_EQ(count, want_count[i]) << "reader " << t;
          }
          const QueryResult got = qc.SelectCovering(coverings[i], req);
          ASSERT_EQ(got.count, want_select[i].count)
              << "reader " << t << " covering " << i;
          for (size_t v = 0; v < got.values.size(); ++v) {
            ASSERT_NEAR(got.values[v], want_select[i].values[v],
                        1e-9 * std::abs(want_select[i].values[v]) + 1e-6)
                << "reader " << t << " covering " << i << " value " << v;
          }
          checked.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  rebuilder.join();

  EXPECT_EQ(checked.load(), kReaders * kRounds * coverings.size());
  // Quiesced: the counter identity must hold exactly.
  const CacheCounters after = qc.counters();
  EXPECT_EQ(after.probes,
            after.full_hits + after.partial_hits + after.misses);
}

TEST_F(ConcurrencyStressTest, CounterAccountingExactAfterQuiescing) {
  // (kReaders + 1) identical passes over a cold, frozen trie: every probe
  // is a miss and the relaxed counters must add up exactly — the lock-free
  // plane loses no increment.
  const GeoBlockQC qc(block_, GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(*block_);

  for (const auto& covering : coverings) {
    qc.SelectCovering(covering, req);
  }
  const CacheCounters base = qc.counters();
  ASSERT_GT(base.probes, 0u);
  ASSERT_EQ(base.probes, base.misses);

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (const auto& covering : coverings) {
        qc.SelectCovering(covering, req);
      }
    });
  }
  for (std::thread& t : readers) t.join();

  const CacheCounters after = qc.counters();
  EXPECT_EQ(after.probes, (kReaders + 1) * base.probes);
  EXPECT_EQ(after.misses, after.probes);

  // Stats plane: re-running the same workload concurrently drops nothing.
  EXPECT_EQ(qc.stats().dropped(), 0u);
  EXPECT_EQ(after.stat_drops, 0u);
}

TEST_F(ConcurrencyStressTest, MergedCountersAreMonotoneUnderLoad) {
  // counters() merges the counter plane with the stats table's drop count;
  // sampled mid-flight, every merged field must still be monotone.
  const GeoBlockQC qc(block_, GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(*block_);

  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    CacheCounters last;
    while (!stop.load(std::memory_order_relaxed)) {
      const CacheCounters now = qc.counters();
      // Each field is monotone between resets (and we never reset here).
      ASSERT_GE(now.probes, last.probes);
      ASSERT_GE(now.full_hits, last.full_hits);
      ASSERT_GE(now.partial_hits, last.partial_hits);
      ASSERT_GE(now.misses, last.misses);
      ASSERT_GE(now.stat_drops, last.stat_drops);
      last = now;
    }
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (size_t r = 0; r < 6; ++r) {
        for (const auto& covering : coverings) {
          qc.SelectCovering(covering, req);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  sampler.join();
}

TEST_F(ConcurrencyStressTest, BackgroundPoolRebuildKeepsServing) {
  // The ThreadPool rebuild hook: interval crossings submit the rebuild to
  // a pool, so no query thread ever pays the trie construction. After the
  // pool drains, the cache must be warm and answers unchanged.
  util::ThreadPool pool(2);
  GeoBlockQC::Options options;
  options.threshold = 0.10;
  options.rebuild_interval = 8;
  options.rebuild_pool = &pool;
  const GeoBlockQC qc(block_, options);
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(*block_);

  std::vector<QueryResult> want;
  for (const auto& covering : coverings) {
    want.push_back(block_->SelectCovering(covering, req));
  }

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (size_t r = 0; r < 6; ++r) {
        for (size_t i = 0; i < coverings.size(); ++i) {
          const QueryResult got = qc.SelectCovering(coverings[i], req);
          ASSERT_EQ(got.count, want[i].count) << "reader " << t;
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  // Drain pending background rebuilds before inspecting (and before the
  // QC goes out of scope — the documented teardown contract).
  pool.WaitIdle();

  EXPECT_GT(qc.trie_snapshot()->num_cached(), 0u)
      << "background rebuilds never published a snapshot";
  for (size_t i = 0; i < coverings.size(); ++i) {
    const QueryResult got = qc.SelectCovering(coverings[i], req);
    ASSERT_EQ(got.count, want[i].count);
    for (size_t v = 0; v < got.values.size(); ++v) {
      ASSERT_NEAR(got.values[v], want[i].values[v],
                  1e-9 * std::abs(want[i].values[v]) + 1e-6);
    }
  }
}

TEST_F(ConcurrencyStressTest, ConcurrentResetNeverCorruptsCounters) {
  // Reset racing with readers: fields may be sampled mid-reset, but once
  // everything quiesces a final reset + sequential pass must account
  // exactly (no stuck or corrupted counters).
  const GeoBlockQC qc(block_, GeoBlockQC::Options{0.05, 0});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(*block_);

  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      qc.ResetCounters();
    }
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (size_t r = 0; r < 8; ++r) {
        for (const auto& covering : coverings) {
          qc.SelectCovering(covering, req);
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop.store(true, std::memory_order_relaxed);
  resetter.join();

  qc.ResetCounters();
  for (const auto& covering : coverings) {
    qc.SelectCovering(covering, req);
  }
  const CacheCounters last = qc.counters();
  EXPECT_GT(last.probes, 0u);
  EXPECT_EQ(last.probes,
            last.full_hits + last.partial_hits + last.misses);
}

// ---------------------------------------------------------------------------
// The MVCC update plane: BlockSet::ApplyBatchUpdate concurrent with the
// lock-free SelectCovering/CountCovering, with no external serialization.
// ---------------------------------------------------------------------------

/// Builds update batches for the update-plane stress tests: in-cell tuples
/// (hit existing aggregates, spread across shards) and new-region tuples
/// (land in pending buffers and merge-rebuilds).
class UpdatePlaneStressTest : public ConcurrencyStressTest {
 protected:
  static std::vector<GeoBlock::UpdateTuple> InCellBatch(size_t count,
                                                        uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    // Sample populated cells across all shards via the sharded views'
    // parent keys (quiesced pre-test setup).
    const auto keys = data_->keys();
    for (size_t i = 0; i < count; ++i) {
      const uint64_t key = keys[rng() % keys.size()];
      const geo::Point unit =
          cell::CellId(key).Parent(kLevel).CenterPoint();
      GeoBlock::UpdateTuple t;
      t.location = data_->projection().FromUnit(unit);
      t.values.assign(data_->num_columns(), 0.0);
      for (size_t c = 0; c < t.values.size(); ++c) {
        t.values[c] = static_cast<double>((rng() % 1000)) / 10.0;
      }
      batch.push_back(std::move(t));
    }
    return batch;
  }

  static std::vector<GeoBlock::UpdateTuple> NewRegionBatch(
      const BlockSet& set, size_t count, uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<GeoBlock::UpdateTuple> batch;
    while (batch.size() < count) {
      const double x = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
      const double y = (static_cast<double>(rng() % 100000) + 0.5) / 100000.0;
      const cell::CellId cell = cell::CellId::FromPoint({x, y}).Parent(kLevel);
      bool populated = false;
      for (size_t s = 0; s < set.num_shards(); ++s) {
        const auto& cells = set.shard(s).cells();
        if (std::binary_search(cells.begin(), cells.end(), cell.id())) {
          populated = true;
          break;
        }
      }
      if (populated) continue;
      GeoBlock::UpdateTuple t;
      t.location = data_->projection().FromUnit(cell.CenterPoint());
      t.values.assign(data_->num_columns(), 1.0);
      batch.push_back(std::move(t));
    }
    return batch;
  }
};

TEST_F(UpdatePlaneStressTest, ReadsStayInRangeDuringCommits) {
  // N readers run SELECT + COUNT while a writer thread commits
  // in-cell batches through BlockSet::ApplyBatchUpdate — no external
  // serialization anywhere. Updates only add tuples, so every concurrent
  // count must land in [pre, pre + total_updates]; after the writer joins,
  // answers must equal a serial re-application oracle bit for bit.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  std::vector<uint64_t> pre_count;
  for (const auto& covering : coverings) {
    pre_count.push_back(set.CountCovering(covering));
  }

  constexpr size_t kBatches = 20;
  constexpr size_t kBatchSize = 64;
  std::vector<std::vector<GeoBlock::UpdateTuple>> batches;
  for (size_t j = 0; j < kBatches; ++j) {
    batches.push_back(InCellBatch(kBatchSize, 1000 + j));
  }
  const uint64_t total_updates = kBatches * kBatchSize;

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (const auto& batch : batches) {
      const auto result = set.ApplyBatchUpdate(batch);
      ASSERT_EQ(result.applied, batch.size());  // in-cell by construction
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t rounds = 0;
      do {
        for (size_t i = 0; i < coverings.size(); ++i) {
          const uint64_t count = set.CountCovering(coverings[i]);
          ASSERT_GE(count, pre_count[i]) << "reader " << t;
          ASSERT_LE(count, pre_count[i] + total_updates) << "reader " << t;
          const QueryResult got = set.SelectCovering(coverings[i], req);
          ASSERT_GE(got.count, pre_count[i]) << "reader " << t;
          ASSERT_LE(got.count, pre_count[i] + total_updates)
              << "reader " << t;
        }
        ++rounds;
      } while (!writer_done.load(std::memory_order_acquire) || rounds < 3);
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Post-commit oracle: the same batches applied serially to an identical
  // set must answer bit-identically (per-shard commit order is batch
  // order in both executions).
  BlockSet oracle = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  for (const auto& batch : batches) {
    oracle.ApplyBatchUpdate(batch);
  }
  for (size_t i = 0; i < coverings.size(); ++i) {
    const QueryResult want = oracle.SelectCovering(coverings[i], req);
    const QueryResult got = set.SelectCovering(coverings[i], req);
    ASSERT_EQ(got.count, want.count) << "covering " << i;
    ASSERT_EQ(got.values, want.values)
        << "covering " << i << ": post-commit state != serial oracle";
    ASSERT_EQ(set.CountCovering(coverings[i]),
              oracle.CountCovering(coverings[i]));
  }
}

TEST_F(UpdatePlaneStressTest, PinnedSnapshotsBitwiseStableDuringCommits) {
  // A reader that pins per-shard BlockState versions must see bitwise
  // frozen answers for as long as it holds them, no matter how many
  // commits publish successors underneath.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  std::vector<std::shared_ptr<const BlockState>> pinned;
  for (size_t s = 0; s < set.num_shards(); ++s) {
    pinned.push_back(set.shard(s).StateSnapshot());
  }
  const auto pinned_select = [&](const std::vector<cell::CellId>& covering) {
    core::Accumulator acc(&req);
    for (const auto& state : pinned) {
      state->CombineCovering(covering, &acc);
    }
    return acc.Finish();
  };
  std::vector<QueryResult> want;
  std::vector<uint64_t> want_counts;
  for (const auto& covering : coverings) {
    want.push_back(pinned_select(covering));
    uint64_t count = 0;
    for (const auto& state : pinned) count += state->CountCovering(covering);
    want_counts.push_back(count);
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t i = 0; i < coverings.size(); ++i) {
          const QueryResult got = pinned_select(coverings[i]);
          ASSERT_EQ(got.count, want[i].count) << "reader " << t;
          ASSERT_EQ(got.values, want[i].values)
              << "reader " << t << ": pinned snapshot drifted";
          uint64_t count = 0;
          for (const auto& state : pinned) {
            count += state->CountCovering(coverings[i]);
          }
          ASSERT_EQ(count, want_counts[i]) << "reader " << t;
        }
      }
    });
  }

  for (size_t j = 0; j < 16; ++j) {
    set.ApplyBatchUpdate(InCellBatch(128, 2000 + j));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  // The live set moved on; the pinned versions did not.
  uint64_t live = 0;
  uint64_t frozen = 0;
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  live = set.CountCovering(all);
  for (const auto& state : pinned) frozen += state->CountCovering(all);
  EXPECT_EQ(frozen + 16 * 128, live);
}

TEST_F(UpdatePlaneStressTest, NewRegionMergesConcurrentWithReaders) {
  // Writers push batches mixing in-cell and new-region tuples with a low
  // pending threshold, so merge-rebuilds (new cells, shifting shard hulls)
  // publish on the rebuild pool while readers hammer SelectCovering and
  // CountCovering. Readers assert nothing
  // about mid-flight values (routing may lag a merge by design) — the pin
  // is race-freedom plus exact post-quiesce accounting.
  util::ThreadPool pool(2);
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  BlockSet::UpdateOptions update_options;
  update_options.pending_rebuild_threshold = 8;
  update_options.rebuild_pool = &pool;
  set.ConfigureUpdates(update_options);
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  constexpr size_t kBatches = 12;
  std::vector<std::vector<GeoBlock::UpdateTuple>> batches;
  size_t total = 0;
  for (size_t j = 0; j < kBatches; ++j) {
    auto batch = InCellBatch(32, 3000 + j);
    const auto fresh = NewRegionBatch(set, 8, 4000 + j);
    batch.insert(batch.end(), fresh.begin(), fresh.end());
    total += batch.size();
    batches.push_back(std::move(batch));
  }

  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (const auto& batch : batches) {
      set.ApplyBatchUpdate(batch);
    }
    writer_done.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      size_t rounds = 0;
      do {
        for (const auto& covering : coverings) {
          (void)set.SelectCovering(covering, req);
          (void)set.CountCovering(covering);
        }
        ++rounds;
      } while (!writer_done.load(std::memory_order_acquire) || rounds < 3);
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  // Quiesce: drain background merges, flush what remains, then the total
  // must account for every tuple exactly once.
  pool.WaitIdle();
  set.FlushPendingUpdates();
  pool.WaitIdle();
  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(set.CountCovering(all), data_->num_rows() + total);
  EXPECT_EQ(set.PendingUpdateCount(), 0u);

  // And SELECT must agree with COUNT on the merged states.
  for (const auto& covering : coverings) {
    ASSERT_EQ(set.SelectCovering(covering, req).count,
              set.CountCovering(covering));
  }
}

TEST_F(UpdatePlaneStressTest, StripedWritersCommitConcurrently) {
  // Several writer threads call ApplyBatchUpdate at once (striped shard
  // locks, no coordination) while readers keep running. Counts are exact
  // after quiescing: every applied tuple lands exactly once.
  BlockSet set = BlockSet::Build(*sharded_, BlockSetOptions{{kLevel, {}}});
  const AggregateRequest req = Request();
  const auto coverings = CoverAll(set);

  constexpr size_t kWriters = 3;
  constexpr size_t kBatchesPerWriter = 6;
  constexpr size_t kBatchSize = 64;
  std::atomic<size_t> writers_done{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t j = 0; j < kBatchesPerWriter; ++j) {
        const auto batch = InCellBatch(kBatchSize, 5000 + w * 100 + j);
        const auto result = set.ApplyBatchUpdate(batch);
        ASSERT_EQ(result.applied, batch.size());
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      size_t rounds = 0;
      do {
        for (const auto& covering : coverings) {
          (void)set.SelectCovering(covering, req);
        }
        ++rounds;
      } while (writers_done.load(std::memory_order_acquire) < kWriters ||
               rounds < 2);
    });
  }
  for (std::thread& t : writers) t.join();
  for (std::thread& t : readers) t.join();

  const std::vector<cell::CellId> all{cell::CellId::Root()};
  EXPECT_EQ(set.CountCovering(all),
            data_->num_rows() + kWriters * kBatchesPerWriter * kBatchSize);
  // SELECT/COUNT agreement after the dust settles.
  for (const auto& covering : coverings) {
    ASSERT_EQ(set.SelectCovering(covering, req).count,
              set.CountCovering(covering));
  }
}

}  // namespace
}  // namespace geoblocks
