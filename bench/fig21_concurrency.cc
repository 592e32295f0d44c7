// Figure 21 (this repo's extension beyond the paper): read throughput of
// the sharded engine at 1/2/4/8 reader threads through the uncached
// SelectCovering path — the fold the server runs. Every SELECT and COUNT
// is compared bit for bit against a single-threaded reference pass, and
// the bench gates on zero mismatches.
//
// Coverings are precomputed, so this measures routing + fold alone; a
// served read also pays for covering the polygon, which dominates it.
//
// Emits machine-readable BENCH_concurrency.json next to the binary. Note:
// CI containers may be single-core — the bench always verifies 0 result
// mismatches and records the numbers; it never gates on a speedup.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "core/block_set.h"
#include "core/scan_kernels.h"
#include "storage/sharded_dataset.h"
#include "util/thread_pool.h"

namespace geoblocks::bench {
namespace {

constexpr size_t kShards = 8;

struct ModeStats {
  double ms = 0.0;
  double qps = 0.0;
};

/// Runs `threads` workers, each executing `rounds` passes over all
/// coverings through SelectCovering (and CountCovering on every third
/// query), comparing every result bitwise against the single-threaded
/// reference.
ModeStats RunReaders(size_t threads, size_t rounds, const core::BlockSet& set,
                     const core::AggregateRequest& req,
                     const std::vector<std::vector<cell::CellId>>& coverings,
                     const std::vector<core::QueryResult>& want,
                     const std::vector<uint64_t>& want_counts,
                     std::atomic<uint64_t>* mismatches) {
  bench_util::Timer timer;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t r = 0; r < rounds; ++r) {
        for (size_t i = 0; i < coverings.size(); ++i) {
          const core::QueryResult got = set.SelectCovering(coverings[i], req);
          if (got.count != want[i].count || got.values != want[i].values) {
            mismatches->fetch_add(1, std::memory_order_relaxed);
          }
          if ((i + r + t) % 3 == 0 &&
              set.CountCovering(coverings[i]) != want_counts[i]) {
            mismatches->fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  ModeStats stats;
  stats.ms = timer.ElapsedMs();
  const double queries =
      static_cast<double>(threads * rounds * coverings.size());
  stats.qps = queries / (stats.ms / 1000.0);
  return stats;
}

void Run() {
  bench_util::Banner(
      "Figure 21 — concurrent sharded reads (beyond the paper)",
      "uncached SELECT throughput over precomputed coverings at 1/2/4/8 "
      "reader threads; every answer bitwise-compared to a serial pass.");
  const TaxiEnv env = TaxiEnv::Create(TaxiPoints());
  const core::AggregateRequest req = RequestN(7, env.data.num_columns());

  storage::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.align_level = kDefaultLevel;
  const storage::ShardedDataset sharded =
      storage::ShardedDataset::Partition(env.data, shard_options);
  const core::BlockSet set =
      core::BlockSet::Build(sharded, core::BlockSetOptions{{kDefaultLevel, {}}});

  std::vector<std::vector<cell::CellId>> coverings;
  for (const geo::Polygon& poly : env.neighborhoods) {
    coverings.push_back(set.Cover(poly));
  }

  // Single-threaded reference answers.
  std::vector<core::QueryResult> want;
  std::vector<uint64_t> want_counts;
  for (const auto& covering : coverings) {
    want.push_back(set.SelectCovering(covering, req));
    want_counts.push_back(set.CountCovering(covering));
  }

  const size_t rounds = std::max<size_t>(1, bench_util::Scaled(8));
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::atomic<uint64_t> mismatches{0};

  struct Row {
    size_t threads;
    ModeStats stats;
  };
  std::vector<Row> rows;
  bench_util::TablePrinter table({"threads", "ms", "qps", "scaling"});
  for (const size_t threads : thread_counts) {
    Row row;
    row.threads = threads;
    row.stats = RunReaders(threads, rounds, set, req, coverings, want,
                           want_counts, &mismatches);
    rows.push_back(row);
    table.AddRow({std::to_string(threads),
                  bench_util::TablePrinter::Fmt(row.stats.ms, 1),
                  bench_util::TablePrinter::Fmt(row.stats.qps, 0),
                  bench_util::TablePrinter::Fmt(
                      row.stats.qps / rows.front().stats.qps, 2)});
  }
  table.Print();
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());
  std::printf("kernel dispatch: %s, pool type: %s\n",
              core::kernels::ToString(core::kernels::ActiveDispatchLevel()),
              util::ThreadPool::pool_type());
  const uint64_t total_mismatches = mismatches.load();
  std::printf("mismatches: %llu\n",
              static_cast<unsigned long long>(total_mismatches));

  // Machine-readable record for CI trend tracking. Single-core runners
  // legitimately show scaling <= 1; the JSON records, it never gates.
  std::ofstream json("BENCH_concurrency.json");
  json << "{\n"
       << "  \"bench\": \"fig21_concurrency\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << "  \"kernel_dispatch\": \""
       << core::kernels::ToString(core::kernels::ActiveDispatchLevel())
       << "\",\n"
       << "  \"pool_type\": \"" << util::ThreadPool::pool_type() << "\",\n"
       << "  \"shards\": " << kShards << ",\n"
       << "  \"queries_per_round\": " << coverings.size() << ",\n"
       << "  \"rounds\": " << rounds << ",\n"
       << "  \"mismatches\": " << total_mismatches << ",\n"
       << "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"threads\": " << r.threads << ", \"ms\": " << r.stats.ms
         << ", \"qps\": " << r.stats.qps << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("wrote BENCH_concurrency.json\n");

  PaperNote(
      "the paper evaluates queries single-threaded; this figure extends the "
      "sharded engine to the serving setting: every read pins one state "
      "version per shard, so readers scale with threads at bit-identical "
      "answers. The paper's query cache is single-block only here "
      "(figs 12/17/18).");
}

}  // namespace
}  // namespace geoblocks::bench

int main() {
  geoblocks::bench::Run();
  return 0;
}
