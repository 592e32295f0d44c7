// Figure 22 (this repo's extension beyond the paper): the MVCC update
// plane under concurrent reads. One writer thread streams update batches
// through BlockSet::ApplyBatchUpdate (shard-routed, copy-on-write page
// commits) while 1/2/4/8 reader threads run SELECTs (SelectCoveringInto,
// the allocation-free fold the server runs) — with no
// external serialization anywhere. Reported per thread count:
//
//   * update throughput (tuples/s) with readers running,
//   * read throughput and mean latency with the writer running,
//   * the read-only baseline (no writer) for the interference delta,
//   * the same contended run with a write-ahead log attached (group
//     commit, fsync before acknowledge) — the end-to-end durability cost.
//
// Every concurrent count is checked against the monotonic range
// [pre, pre + applied]; after quiescing, totals must account for every
// applied tuple exactly once. Emits machine-readable BENCH_updates.json
// next to the binary. CI containers may be single-core — the bench always
// verifies 0 mismatches and records the numbers; it never gates on a
// speedup.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/block_set.h"
#include "core/scan_kernels.h"
#include "io/update_log.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"

namespace geoblocks::bench {
namespace {

constexpr size_t kShards = 8;
constexpr size_t kBatchSize = 256;

std::vector<core::GeoBlock::UpdateTuple> MakeInCellBatch(
    const storage::SortedDataset& data, int level, size_t count,
    uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<core::GeoBlock::UpdateTuple> batch;
  batch.reserve(count);
  const auto keys = data.keys();
  for (size_t i = 0; i < count; ++i) {
    const uint64_t key = keys[rng() % keys.size()];
    const geo::Point unit = cell::CellId(key).Parent(level).CenterPoint();
    core::GeoBlock::UpdateTuple t;
    t.location = data.projection().FromUnit(unit);
    t.values.assign(data.num_columns(), 0.0);
    for (size_t c = 0; c < t.values.size(); ++c) {
      t.values[c] = static_cast<double>((rng() % 1000)) / 10.0;
    }
    batch.push_back(std::move(t));
  }
  return batch;
}

struct Row {
  size_t readers = 0;
  double update_tuples_per_s = 0.0;   // writer throughput with readers on
  double read_qps = 0.0;              // reads with the writer running
  double read_mean_us = 0.0;
  double baseline_qps = 0.0;          // reads with no writer
  double baseline_mean_us = 0.0;
  double durable_tuples_per_s = 0.0;  // writer throughput with WAL attached
  double durable_read_qps = 0.0;      // reads beside the durable writer
};

void Run() {
  bench_util::Banner(
      "Figure 22 — concurrent updates (beyond the paper)",
      "shard-routed MVCC commits (BlockSet::ApplyBatchUpdate) vs "
      "read latency at 1/2/4/8 reader threads; counts range-checked "
      "during commits, exact after quiescing.");
  const TaxiEnv env = TaxiEnv::Create(TaxiPoints());
  const core::AggregateRequest req = RequestN(7, env.data.num_columns());

  storage::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.align_level = kDefaultLevel;
  const storage::ShardedDataset sharded =
      storage::ShardedDataset::Partition(env.data, shard_options);

  const size_t batches_per_run = std::max<size_t>(4, bench_util::Scaled(64));
  const size_t read_rounds = std::max<size_t>(1, bench_util::Scaled(4));
  uint64_t mismatches = 0;

  std::vector<Row> rows;
  bench_util::TablePrinter table({"readers", "upd tuples/s", "read qps",
                                  "read mean us", "baseline qps",
                                  "baseline mean us", "durable upd/s",
                                  "durable read qps"});
  for (const size_t readers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    // A fresh set per thread count so every run starts from the same
    // state.
    core::BlockSet set = core::BlockSet::Build(
        sharded, core::BlockSetOptions{{kDefaultLevel, {}}});
    std::vector<std::vector<cell::CellId>> coverings;
    for (const geo::Polygon& poly : env.neighborhoods) {
      coverings.push_back(set.Cover(poly));
    }
    std::vector<uint64_t> pre;
    for (const auto& covering : coverings) {
      pre.push_back(set.CountCovering(covering));
    }
    std::vector<std::vector<core::GeoBlock::UpdateTuple>> batches;
    for (size_t j = 0; j < batches_per_run; ++j) {
      batches.push_back(
          MakeInCellBatch(env.data, kDefaultLevel, kBatchSize, 77 + j));
    }
    const uint64_t total_updates = batches_per_run * kBatchSize;

    Row row;
    row.readers = readers;

    // Baseline: readers only.
    {
      std::atomic<uint64_t> queries{0};
      bench_util::Timer timer;
      std::vector<std::thread> workers;
      for (size_t t = 0; t < readers; ++t) {
        workers.emplace_back([&] {
          // Allocation-free serving loop: one reused result per reader, the
          // Into variant reuses its capacity every query.
          core::QueryResult result;
          for (size_t r = 0; r < read_rounds; ++r) {
            for (const auto& covering : coverings) {
              set.SelectCoveringInto(covering, req, &result);
              queries.fetch_add(1, std::memory_order_relaxed);
            }
          }
        });
      }
      for (std::thread& w : workers) w.join();
      const double ms = timer.ElapsedMs();
      const double q = static_cast<double>(queries.load());
      row.baseline_qps = q / (ms / 1000.0);
      row.baseline_mean_us = readers * ms * 1000.0 / q;
    }

    // Contended: one writer streaming batches + `readers` reader threads.
    {
      std::atomic<uint64_t> queries{0};
      std::atomic<uint64_t> range_errors{0};
      std::atomic<bool> writer_done{false};
      double writer_ms = 0.0;
      bench_util::Timer timer;
      std::thread writer([&] {
        bench_util::Timer wt;
        for (const auto& batch : batches) {
          (void)set.ApplyBatchUpdate(batch);
        }
        writer_ms = wt.ElapsedMs();
        writer_done.store(true, std::memory_order_release);
      });
      std::vector<std::thread> workers;
      for (size_t t = 0; t < readers; ++t) {
        workers.emplace_back([&] {
          core::QueryResult result;
          size_t rounds = 0;
          do {
            for (size_t i = 0; i < coverings.size(); ++i) {
              const uint64_t count = set.CountCovering(coverings[i]);
              if (count < pre[i] || count > pre[i] + total_updates) {
                range_errors.fetch_add(1, std::memory_order_relaxed);
              }
              set.SelectCoveringInto(coverings[i], req, &result);
              queries.fetch_add(1, std::memory_order_relaxed);
            }
            ++rounds;
          } while (!writer_done.load(std::memory_order_acquire) ||
                   rounds < read_rounds);
        });
      }
      writer.join();
      for (std::thread& w : workers) w.join();
      const double ms = timer.ElapsedMs();
      const double q = static_cast<double>(queries.load());
      row.update_tuples_per_s =
          static_cast<double>(total_updates) / (writer_ms / 1000.0);
      row.read_qps = q / (ms / 1000.0);
      row.read_mean_us = readers * ms * 1000.0 / q;
      mismatches += range_errors.load();

      // Quiesced accounting: every applied tuple counted exactly once.
      const std::vector<cell::CellId> all{cell::CellId::Root()};
      if (set.CountCovering(all) != env.data.num_rows() + total_updates) {
        ++mismatches;
      }
    }

    // Durable: the same contended run, but every batch is persisted through
    // the write-ahead log before ApplyBatchUpdate acknowledges it (group
    // commit: one fsync per coalesced group). The gap between this column
    // and the in-memory one is the price of the acknowledged-write
    // durability contract.
    {
      core::BlockSet dset = core::BlockSet::Build(
          sharded, core::BlockSetOptions{{kDefaultLevel, {}}});
      const std::string wal_path = "fig22_updates.wal";
      std::remove(wal_path.c_str());
      auto log = io::UpdateLog::Open(wal_path);
      dset.AttachLog(log.get());
      std::atomic<uint64_t> queries{0};
      std::atomic<uint64_t> range_errors{0};
      std::atomic<bool> writer_done{false};
      double writer_ms = 0.0;
      bench_util::Timer timer;
      std::thread writer([&] {
        bench_util::Timer wt;
        for (const auto& batch : batches) {
          (void)dset.ApplyBatchUpdate(batch);
        }
        writer_ms = wt.ElapsedMs();
        writer_done.store(true, std::memory_order_release);
      });
      std::vector<std::thread> workers;
      for (size_t t = 0; t < readers; ++t) {
        workers.emplace_back([&] {
          core::QueryResult result;
          size_t rounds = 0;
          do {
            for (size_t i = 0; i < coverings.size(); ++i) {
              const uint64_t count = dset.CountCovering(coverings[i]);
              if (count < pre[i] || count > pre[i] + total_updates) {
                range_errors.fetch_add(1, std::memory_order_relaxed);
              }
              dset.SelectCoveringInto(coverings[i], req, &result);
              queries.fetch_add(1, std::memory_order_relaxed);
            }
            ++rounds;
          } while (!writer_done.load(std::memory_order_acquire) ||
                   rounds < read_rounds);
        });
      }
      writer.join();
      for (std::thread& w : workers) w.join();
      const double ms = timer.ElapsedMs();
      row.durable_tuples_per_s =
          static_cast<double>(total_updates) / (writer_ms / 1000.0);
      row.durable_read_qps =
          static_cast<double>(queries.load()) / (ms / 1000.0);
      mismatches += range_errors.load();
      // Durability accounting: every batch acknowledged, every batch on
      // disk, every tuple counted exactly once.
      if (dset.change_number() != batches_per_run) ++mismatches;
      if (log->durable_change_number() != batches_per_run) ++mismatches;
      const std::vector<cell::CellId> all{cell::CellId::Root()};
      if (dset.CountCovering(all) != env.data.num_rows() + total_updates) {
        ++mismatches;
      }
      dset.AttachLog(nullptr);
      log.reset();
      std::remove(wal_path.c_str());
    }

    rows.push_back(row);
    table.AddRow({std::to_string(row.readers),
                  bench_util::TablePrinter::Fmt(row.update_tuples_per_s, 0),
                  bench_util::TablePrinter::Fmt(row.read_qps, 0),
                  bench_util::TablePrinter::Fmt(row.read_mean_us, 1),
                  bench_util::TablePrinter::Fmt(row.baseline_qps, 0),
                  bench_util::TablePrinter::Fmt(row.baseline_mean_us, 1),
                  bench_util::TablePrinter::Fmt(row.durable_tuples_per_s, 0),
                  bench_util::TablePrinter::Fmt(row.durable_read_qps, 0)});
  }
  table.Print();
  std::printf("hardware threads: %u, batch size: %zu, batches: %zu\n",
              std::thread::hardware_concurrency(), kBatchSize,
              batches_per_run);
  std::printf("kernel dispatch: %s, pool type: %s\n",
              core::kernels::ToString(core::kernels::ActiveDispatchLevel()),
              util::ThreadPool::pool_type());
  std::printf("mismatches: %llu\n",
              static_cast<unsigned long long>(mismatches));

  // Machine-readable record for CI trend tracking; records, never gates.
  std::ofstream json("BENCH_updates.json");
  json << "{\n"
       << "  \"bench\": \"fig22_updates\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"kernel_dispatch\": \""
       << core::kernels::ToString(core::kernels::ActiveDispatchLevel())
       << "\",\n"
       << "  \"pool_type\": \"" << util::ThreadPool::pool_type() << "\",\n"
       << "  \"shards\": " << kShards << ",\n"
       << "  \"batch_size\": " << kBatchSize << ",\n"
       << "  \"batches\": " << batches_per_run << ",\n"
       << "  \"queries_per_round\": " << env.neighborhoods.size() << ",\n"
       << "  \"mismatches\": " << mismatches << ",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"readers\": " << r.readers
         << ", \"update_tuples_per_s\": " << r.update_tuples_per_s
         << ", \"read_qps\": " << r.read_qps
         << ", \"read_mean_us\": " << r.read_mean_us
         << ", \"baseline_qps\": " << r.baseline_qps
         << ", \"baseline_mean_us\": " << r.baseline_mean_us
         << ", \"durable_update_tuples_per_s\": " << r.durable_tuples_per_s
         << ", \"durable_read_qps\": " << r.durable_read_qps << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
}

}  // namespace
}  // namespace geoblocks::bench

int main() {
  geoblocks::bench::Run();
  return 0;
}
