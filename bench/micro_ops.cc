// Micro-benchmarks (google-benchmark) for the primitive operations the
// paper's performance claims rest on: cell-id algebra, Hilbert transforms,
// polygon covering, Block probing (with and without the lastAgg shortcut),
// COUNT range sums, AggregateTrie lookups (paper: 58-81 ns), and update
// commits against block size.
#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>
#include <random>
#include <vector>

#include "bench/common.h"
#include "cell/hilbert.h"
#include "core/aggregate_trie.h"

namespace geoblocks::bench {
namespace {

const TaxiEnv& Env() {
  static const TaxiEnv env = TaxiEnv::Create(
      std::min<size_t>(TaxiPoints(), 500'000), kNumNeighborhoods);
  return env;
}

const core::GeoBlock& Block() {
  static const core::GeoBlock block =
      core::GeoBlock::Build(Env().data, {kDefaultLevel, {}});
  return block;
}

void BM_HilbertXYToD(benchmark::State& state) {
  uint32_t i = 123456789;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell::HilbertXYToD(i, i ^ 0x5a5a5a5a));
    i = i * 1664525u + 1013904223u;
  }
}
BENCHMARK(BM_HilbertXYToD);

void BM_CellIdFromPoint(benchmark::State& state) {
  double x = 0.123;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell::CellId::FromPoint({x, 1.0 - x}));
    x += 1e-7;
    if (x >= 1.0) x = 0.0;
  }
}
BENCHMARK(BM_CellIdFromPoint);

void BM_CellIdParentChild(benchmark::State& state) {
  const cell::CellId leaf = cell::CellId::FromPoint({0.37, 0.61});
  for (auto _ : state) {
    const cell::CellId parent = leaf.Parent(12);
    benchmark::DoNotOptimize(parent.Child(2).RangeMax());
  }
}
BENCHMARK(BM_CellIdParentChild);

void BM_PolygonCovering(benchmark::State& state) {
  const auto& env = Env();
  const geo::Polygon& poly = env.neighborhoods[7];
  size_t cells = 0;
  for (auto _ : state) {
    cells += Block().Cover(poly).size();
  }
  state.counters["cells"] =
      static_cast<double>(cells) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PolygonCovering);

// Covering cost grows with the edges each cell must test: seeded 64-vertex
// star polygons, the many-edge end of a fresh-polygon workload.
void BM_PolygonCoveringManyEdges(benchmark::State& state) {
  const auto& env = Env();
  std::vector<geo::Polygon> polygons;
  std::mt19937_64 rng(29);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  for (int p = 0; p < 16; ++p) {
    const geo::Point center = env.raw.Location(rng() % env.raw.num_rows());
    const double radius = 0.008 + 0.042 * uni(rng);
    geo::Ring ring;
    for (int i = 0; i < 64; ++i) {
      const double a = 2.0 * std::numbers::pi * (i + 0.8 * uni(rng)) / 64;
      const double r = radius * (0.55 + 0.45 * uni(rng));
      ring.push_back({center.x + r * std::cos(a),
                      center.y + 0.75 * r * std::sin(a)});
    }
    polygons.emplace_back(std::move(ring));
  }
  std::vector<cell::CellId> covering;
  size_t cells = 0;
  size_t next = 0;
  for (auto _ : state) {
    core::CoverPolygonInto(env.data.projection(), kDefaultLevel,
                           polygons[next], &covering);
    benchmark::DoNotOptimize(covering.data());
    benchmark::ClobberMemory();
    cells += covering.size();
    next = (next + 1) % polygons.size();
  }
  state.counters["cells"] =
      static_cast<double>(cells) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PolygonCoveringManyEdges);

void BM_BlockSelect(benchmark::State& state) {
  const auto& env = Env();
  const core::AggregateRequest req =
      RequestN(static_cast<size_t>(state.range(0)), env.data.num_columns());
  const auto covering = Block().Cover(env.neighborhoods[3]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block().SelectCovering(covering, req));
  }
}
BENCHMARK(BM_BlockSelect)->Arg(1)->Arg(4)->Arg(8);

void BM_BlockCount(benchmark::State& state) {
  const auto& env = Env();
  const auto covering = Block().Cover(env.neighborhoods[3]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block().CountCovering(covering));
  }
}
BENCHMARK(BM_BlockCount);

// Ablation: SELECT with the lastAgg successor shortcut (contiguous
// covering, cells adjacent) vs a covering of scattered cells where every
// probe falls back to binary search.
void BM_BlockSelectAdjacentCells(benchmark::State& state) {
  const auto& env = Env();
  const core::AggregateRequest req = RequestN(4, env.data.num_columns());
  // 64 adjacent grid cells taken from the middle of the block.
  std::vector<cell::CellId> covering;
  const size_t start = Block().num_cells() / 2;
  for (size_t i = 0; i < 64 && start + i < Block().num_cells(); ++i) {
    covering.push_back(cell::CellId(Block().cells()[start + i]));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block().SelectCovering(covering, req));
  }
}
BENCHMARK(BM_BlockSelectAdjacentCells);

void BM_BlockSelectScatteredCells(benchmark::State& state) {
  const auto& env = Env();
  const core::AggregateRequest req = RequestN(4, env.data.num_columns());
  // 64 cells spread across the whole block: the successor check always
  // misses and every cell costs a binary search.
  std::vector<cell::CellId> covering;
  const size_t stride = std::max<size_t>(1, Block().num_cells() / 64);
  for (size_t i = 0; i < Block().num_cells() && covering.size() < 64;
       i += stride) {
    covering.push_back(cell::CellId(Block().cells()[i]));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Block().SelectCovering(covering, req));
  }
}
BENCHMARK(BM_BlockSelectScatteredCells);

void BM_TrieLookup(benchmark::State& state) {
  const auto& env = Env();
  static core::GeoBlockQC* qc = [] {
    auto* q = new core::GeoBlockQC(&Block(), {0.05, 0});
    const core::AggregateRequest req = RequestN(7, Env().data.num_columns());
    for (const geo::Polygon& poly : Env().neighborhoods) {
      (void)q->Select(poly, req);
    }
    q->RebuildCache();
    return q;
  }();
  const auto covering = Block().Cover(env.neighborhoods[11]);
  const auto trie = qc->trie_snapshot();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie->Lookup(covering[i % covering.size()]));
    ++i;
  }
}
BENCHMARK(BM_TrieLookup);

void BM_AccumulatorAddAggregate(benchmark::State& state) {
  const core::AggregateRequest req = RequestN(7, 7);
  core::Accumulator acc(&req);
  std::vector<core::ColumnAggregate> cols(7);
  for (auto& c : cols) c.Add(1.0);
  for (auto _ : state) {
    acc.AddAggregate(10, cols.data());
  }
  benchmark::DoNotOptimize(acc.Finish());
}
BENCHMARK(BM_AccumulatorAddAggregate);

// Commit cost against block size: one 32-tuple in-cell batch into a GeoBlock
// of the first `range(0)` level-17 cells of a full-size taxi dataset (the
// fourth size is about the whole 1M-point set), in µs per commit. The
// per-commit copy is pages touched plus the page table, so the cost should
// stay flat as the block grows; `cells` reports the size actually built.
const storage::SortedDataset& CommitData() {
  static const storage::SortedDataset data = [] {
    storage::ExtractOptions options;
    options.clean_bounds = workload::NycBounds();
    return storage::SortedDataset::Extract(workload::GenTaxi(TaxiPoints()),
                                           options);
  }();
  return data;
}

void BM_CommitBatch(benchmark::State& state) {
  const storage::SortedDataset& data = CommitData();
  const auto want = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t>& keys = data.keys();
  const uint64_t lsb = cell::CellId::LsbForLevel(kDefaultLevel);
  size_t rows = 0;
  size_t cells = 0;
  uint64_t prev = 0;
  for (; rows < keys.size(); ++rows) {
    const uint64_t cell_id = (keys[rows] & (~lsb + 1)) | lsb;
    if (cell_id == prev) continue;
    if (cells == want) break;
    ++cells;
    prev = cell_id;
  }
  core::GeoBlock block = core::GeoBlock::Build(
      storage::DatasetView::UnownedWindow(data, 0, rows),
      {kDefaultLevel, {}});
  std::mt19937_64 rng(42);
  std::vector<core::GeoBlock::UpdateTuple> batch(32);
  for (core::GeoBlock::UpdateTuple& t : batch) {
    const uint64_t id = block.cells()[rng() % block.num_cells()];
    t.location = data.projection().FromUnit(cell::CellId(id).CenterPoint());
    t.values.resize(data.num_columns());
    for (double& v : t.values) v = static_cast<double>(rng() % 1000) / 10.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.ApplyBatchUpdate(batch).applied);
  }
  state.counters["cells"] = static_cast<double>(block.num_cells());
}
BENCHMARK(BM_CommitBatch)
    ->Arg(1000)
    ->Arg(6000)
    ->Arg(19000)
    ->Arg(46000)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace geoblocks::bench

BENCHMARK_MAIN();
