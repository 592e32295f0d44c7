#include "core/geoblock.h"

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <utility>

#include "core/scan_kernels.h"
#include "core/state_builder.h"

namespace geoblocks::core {

// ---------------------------------------------------------------------------
// BlockState: the immutable query plane
// ---------------------------------------------------------------------------

BlockState::BlockState()
    : cells(std::make_shared<const std::vector<uint64_t>>()) {}

size_t BlockState::SeekFirst(uint64_t key, size_t last_idx) const {
  const std::vector<uint64_t>& ids = *cells;
  // Listing 1: after a match, first try the successor of the last combined
  // aggregate before falling back to binary search.
  const kernels::KernelTable& kern = kernels::Kernels();
  if (last_idx != GeoBlock::kNoLastAgg) {
    const size_t next = last_idx + 1;
    if (next >= ids.size()) return ids.size();
    if (ids[next] >= key && (next == 0 || ids[next - 1] < key)) {
      // The successor is exactly the first aggregate >= key only when the
      // previous one is below; since query cells arrive in ascending order
      // and last_idx was consumed, ids[last_idx] < key always holds.
      return next;
    }
    return next + kern.lower_bound_u64(ids.data() + next, ids.size() - next, key);
  }
  return kern.lower_bound_u64(ids.data(), ids.size(), key);
}

void BlockState::CombineCell(cell::CellId qcell, Accumulator* acc,
                             size_t* last_idx) const {
  // Covering cells are never finer than the grid; clamp defensively.
  if (qcell.level() > header.level) qcell = qcell.Parent(header.level);
  // Prune query cells outside [minCell, maxCell] (Listing 1, lines 5-6).
  if (!MayOverlap(qcell)) return;
  const std::vector<uint64_t>& ids = *cells;
  const uint64_t first_child = qcell.ChildBegin(header.level).id();
  const uint64_t last_child = qcell.ChildLast(header.level).id();
  const size_t idx = SeekFirst(first_child, *last_idx);
  // Contiguous range over the sorted cell aggregates (Listing 1, 25-28),
  // folded as one batched strided scan per page-bounded run.
  const size_t end = idx + kernels::Kernels().upper_bound_u64(
                               ids.data() + idx, ids.size() - idx, last_child);
  if (end > idx) {
    ForEachPageRun(idx, end, [&](const CellPage& page, size_t first,
                                 size_t len) {
      acc->AddCellRange(page.counts.data() + first,
                        page.columns.data() + first * num_columns, len,
                        num_columns);
    });
    *last_idx = end - 1;
  }
}

void BlockState::CombineCovering(std::span<const cell::CellId> covering,
                                 Accumulator* acc) const {
  size_t last_idx = GeoBlock::kNoLastAgg;
  for (const cell::CellId& qcell : covering) {
    CombineCell(qcell, acc, &last_idx);
  }
}

QueryResult BlockState::SelectCovering(std::span<const cell::CellId> covering,
                                       const AggregateRequest& request) const {
  Accumulator acc(&request);
  CombineCovering(covering, &acc);
  return acc.Finish();
}

uint64_t BlockState::CountCovering(
    std::span<const cell::CellId> covering) const {
  const std::vector<uint64_t>& ids = *cells;
  uint64_t result = 0;
  size_t hint = 0;
  for (cell::CellId qcell : covering) {
    if (qcell.level() > header.level) qcell = qcell.Parent(header.level);
    if (!MayOverlap(qcell)) continue;
    const uint64_t f_child = qcell.ChildBegin(header.level).id();
    const uint64_t l_child = qcell.ChildLast(header.level).id();
    // Locate the first and last contained aggregate (Listing 2, lines 8-9);
    // the second search starts from the first, and both reuse the position
    // of the previous query cell as a hint (query cells ascend).
    const kernels::KernelTable& kern = kernels::Kernels();
    const size_t first =
        hint + kern.lower_bound_u64(ids.data() + hint, ids.size() - hint,
                                    f_child);
    const size_t last_plus_one =
        first + kern.upper_bound_u64(ids.data() + first, ids.size() - first,
                                     l_child);
    hint = first;
    if (last_plus_one <= first) continue;
    const size_t last = last_plus_one - 1;
    // Range-sum over offsets (Listing 2, line 11).
    result += offset(last) + count(last) - offset(first);
  }
  return result;
}

AggregateVector BlockState::AggregateForCell(cell::CellId cell) const {
  AggregateVector agg(num_columns);
  if (cell.level() > header.level) cell = cell.Parent(header.level);
  if (!MayOverlap(cell)) return agg;
  const std::vector<uint64_t>& ids = *cells;
  const uint64_t first_child = cell.ChildBegin(header.level).id();
  const uint64_t last_child = cell.ChildLast(header.level).id();
  const auto begin = std::lower_bound(ids.begin(), ids.end(), first_child);
  const auto end = std::upper_bound(begin, ids.end(), last_child);
  ForEachPageRun(static_cast<size_t>(begin - ids.begin()),
                 static_cast<size_t>(end - ids.begin()),
                 [&](const CellPage& page, size_t first, size_t len) {
                   for (size_t i = first; i < first + len; ++i) {
                     agg.count += page.counts[i];
                     const ColumnAggregate* cols =
                         page.columns.data() + i * num_columns;
                     for (size_t c = 0; c < num_columns; ++c) {
                       agg.columns[c].Merge(cols[c]);
                     }
                   }
                 });
  return agg;
}

size_t BlockState::CellAggregateBytes() const {
  return num_cells() * (sizeof(uint64_t) * 3 + sizeof(uint32_t) * 2 +
                        num_columns * sizeof(ColumnAggregate));
}

size_t BlockState::StorageBytes() const {
  size_t bytes = cells->capacity() * sizeof(uint64_t) +
                 pages.capacity() * sizeof(pages[0]) +
                 page_base.capacity() * sizeof(uint64_t);
  for (const std::shared_ptr<const CellPage>& page : pages) {
    bytes += sizeof(CellPage) +
             page->columns.capacity() * sizeof(ColumnAggregate);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// StateBuilder: staging for build, coarsen, merge and load
// ---------------------------------------------------------------------------

namespace {

/// Rewrites `page`'s offsets as the exclusive prefix sums of its first
/// `n` counts.
/// @return The page's tuple total.
uint32_t PrefixPage(CellPage* page, size_t n) {
  uint32_t running = 0;
  for (size_t i = 0; i < n; ++i) {
    page->offsets[i] = running;
    running += page->counts[i];
  }
  return running;
}

}  // namespace

StateBuilder::StateBuilder(int level, size_t num_columns)
    : num_columns_(num_columns) {
  header.level = level;
}

StateBuilder::CellRef StateBuilder::Append(uint64_t cell_id) {
  const size_t idx = cells_.size() % kPageCells;
  if (idx == 0) {
    pages_.push_back(std::make_shared<CellPage>());
    pages_.back()->columns.reserve(kPageCells * num_columns_);
  }
  cells_.push_back(cell_id);
  CellPage& page = *pages_.back();
  page.columns.resize(page.columns.size() + num_columns_);
  return {&page.counts[idx], &page.min_keys[idx], &page.max_keys[idx],
          page.columns.data() + idx * num_columns_};
}

void StateBuilder::AdoptCells(std::vector<uint64_t> cells) {
  cells_ = std::move(cells);
  pages_.clear();
  for (size_t first = 0; first < cells_.size(); first += kPageCells) {
    auto page = std::make_shared<CellPage>();
    page->columns.resize(std::min(kPageCells, cells_.size() - first) *
                         num_columns_);
    pages_.push_back(std::move(page));
  }
}

std::shared_ptr<const BlockState> StateBuilder::Finish() {
  auto state = std::make_shared<BlockState>();
  if (!cells_.empty()) {
    header.min_cell = cells_.front();
    header.max_cell = cells_.back();
    // Appends grew the cell ids and reserved the last page whole; give
    // the unused capacity back.
    cells_.shrink_to_fit();
    pages_.back()->columns.shrink_to_fit();
  }
  state->header = std::move(header);
  state->num_columns = num_columns_;
  state->pages.reserve(pages_.size());
  state->page_base.reserve(pages_.size());
  uint64_t base = 0;
  for (size_t p = 0; p < pages_.size(); ++p) {
    state->page_base.push_back(base);
    base += PrefixPage(pages_[p].get(),
                       std::min(kPageCells, cells_.size() - p * kPageCells));
    state->pages.push_back(std::move(pages_[p]));
  }
  pages_.clear();
  state->cells =
      std::make_shared<const std::vector<uint64_t>>(std::move(cells_));
  return state;
}

// ---------------------------------------------------------------------------
// GeoBlock: construction, copies, state installation
// ---------------------------------------------------------------------------

/// Writer-side free list of one block: the state node and the pages a
/// retired version alone still holds, handed to the next commit so the
/// steady-state commit allocates nothing. All entry points are writer-side
/// (commits to one block are externally serialized, and the retire hook
/// runs inside the writer's Publish), so no internal locking is needed.
///
/// A commit records the page indices it replaced (`replaced()`) before it
/// publishes; when the predecessor retires, exactly those pages are the
/// ones it may hold alone. The predecessor's node is parked with its page
/// table intact: the next commit re-syncs that table to the current one by
/// pointer compare, so only the slots that changed cost refcount traffic.
class PageRecycler {
 public:
  /// A mutable state node for the next commit: the parked predecessor of
  /// the current version when there is one, else a fresh node.
  std::shared_ptr<BlockState> AcquireState() {
    if (spare_state_ != nullptr) return std::move(spare_state_);
    return std::make_shared<BlockState>();
  }

  /// A page for a copy-on-write copy: a recycled one when free (its
  /// column buffer keeps its capacity), else a fresh one.
  std::shared_ptr<CellPage> AcquirePage() {
    if (spare_pages_.empty()) return std::make_shared<CellPage>();
    std::shared_ptr<CellPage> page = std::move(spare_pages_.back());
    spare_pages_.pop_back();
    return page;
  }

  /// Page indices the commit being published copied; read (and cleared)
  /// by the retire hook of its predecessor.
  std::vector<uint32_t>& replaced() { return replaced_; }

  /// The retire hook: takes back `old`'s node and the replaced pages it
  /// alone holds. A version still pinned by a StateSnapshot holder is left
  /// to its holders. A version retired by anything but an in-place commit
  /// (merge, load, eviction) shares no pages with its successor, so its
  /// table is dropped rather than parked.
  ///
  /// The spares are then trimmed to the number of pages the last commit
  /// copied: a stream of commits of one size stays allocation-free, and
  /// the free list never holds more pages than the retired version did.
  void Retire(std::shared_ptr<const BlockState> old) {
    const size_t keep = replaced_.size();
    if (SoleOwner(old)) {
      auto node = std::const_pointer_cast<BlockState>(std::move(old));
      if (replaced_.empty()) node->pages.clear();
      for (const uint32_t p : replaced_) {
        if (p >= node->pages.size()) continue;  // stale after a failed commit
        std::shared_ptr<const CellPage>& page = node->pages[p];
        if (SoleOwner(page)) {
          spare_pages_.push_back(
              std::const_pointer_cast<CellPage>(std::move(page)));
        }
      }
      spare_state_ = std::move(node);
    }
    if (spare_pages_.size() > keep) spare_pages_.resize(keep);
    replaced_.clear();
  }

  /// Drops every spare. Eviction calls this after unpublishing a shard:
  /// the point of evicting is reclaiming bytes, and the parked node's page
  /// table would keep the evicted pages alive.
  void Clear() {
    spare_state_.reset();
    spare_pages_.clear();
  }

 private:
  /// True when `p` is the last reference (no new one can appear: its
  /// version is unpublished and past its grace period). use_count() is
  /// only a relaxed load, so it alone does not order another owner's last
  /// reads before the commit's writes into the object; the copy's increment
  /// of the same count (an acq_rel RMW in libstdc++) does.
  template <typename T>
  static bool SoleOwner(const std::shared_ptr<T>& p) {
    if (p.use_count() != 1) return false;
    [[maybe_unused]] const std::shared_ptr<T> sync = p;
    return true;
  }

  std::shared_ptr<BlockState> spare_state_;
  std::vector<std::shared_ptr<CellPage>> spare_pages_;
  std::vector<uint32_t> replaced_;
};

namespace {

/// One cell with the retirement hook attached — shared by the default
/// constructor and InstallState. The hook counts the retirement and hands
/// the version to the recycler so the next commit reuses its allocations.
std::unique_ptr<util::SnapshotCell<BlockState>> MakeStateCell(
    std::shared_ptr<const BlockState> initial,
    const std::shared_ptr<std::atomic<uint64_t>>& counter,
    const std::shared_ptr<PageRecycler>& recycler) {
  auto cell =
      std::make_unique<util::SnapshotCell<BlockState>>(std::move(initial));
  cell->SetRetireHook(
      [counter, recycler](std::shared_ptr<const BlockState> old) {
        counter->fetch_add(1, std::memory_order_relaxed);
        recycler->Retire(std::move(old));
      });
  return cell;
}

}  // namespace

GeoBlock::GeoBlock()
    : retired_(std::make_shared<std::atomic<uint64_t>>(0)),
      recycler_(std::make_shared<PageRecycler>()) {
  state_ =
      MakeStateCell(std::make_shared<const BlockState>(), retired_, recycler_);
}

GeoBlock::GeoBlock(const GeoBlock& other) : GeoBlock() {
  data_ = other.data_;
  filter_ = other.filter_;
  projection_ = other.projection_;
  level_ = other.level_;
  num_columns_ = other.num_columns_;
  // Copies share the immutable current version; future publishes on either
  // block never affect the other (each has its own cell).
  InstallState(other.StateSnapshot());
}

GeoBlock& GeoBlock::operator=(const GeoBlock& other) {
  if (this == &other) return *this;
  GeoBlock copy(other);
  *this = std::move(copy);
  return *this;
}

GeoBlock::GeoBlock(GeoBlock&& other) noexcept
    : data_(std::move(other.data_)),
      filter_(std::move(other.filter_)),
      projection_(other.projection_),
      level_(other.level_),
      num_columns_(other.num_columns_),
      state_(std::move(other.state_)),
      retired_(std::move(other.retired_)),
      recycler_(std::move(other.recycler_)) {
  route_cells_.store(other.route_cells_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  route_min_.store(other.route_min_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  route_max_.store(other.route_max_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

GeoBlock& GeoBlock::operator=(GeoBlock&& other) noexcept {
  if (this == &other) return *this;
  data_ = std::move(other.data_);
  filter_ = std::move(other.filter_);
  projection_ = other.projection_;
  level_ = other.level_;
  num_columns_ = other.num_columns_;
  state_ = std::move(other.state_);
  retired_ = std::move(other.retired_);
  recycler_ = std::move(other.recycler_);
  route_cells_.store(other.route_cells_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  route_min_.store(other.route_min_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  route_max_.store(other.route_max_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  return *this;
}

void GeoBlock::InstallState(std::shared_ptr<const BlockState> state) {
  // Pre-publication (build/load/copy): no readers exist yet, so the cell is
  // replaced outright instead of epoch-swapped — the empty initial state is
  // not counted as a retirement.
  state_ = MakeStateCell(state, retired_, recycler_);
  route_cells_.store(state->num_cells(), std::memory_order_relaxed);
  route_min_.store(state->header.min_cell, std::memory_order_relaxed);
  route_max_.store(state->header.max_cell, std::memory_order_relaxed);
}

void GeoBlock::PublishState(std::shared_ptr<const BlockState> state) {
  // Commit order: the state version first (readers pinning after the swap
  // see the successor), then the routing mirror. A reader interleaving the
  // two sees a routing range at most one version behind its pinned state,
  // which the MayOverlap contract tolerates.
  const size_t cells = state->num_cells();
  const uint64_t min_cell = state->header.min_cell;
  const uint64_t max_cell = state->header.max_cell;
  state_->Publish(std::move(state));
  route_cells_.store(cells, std::memory_order_relaxed);
  route_min_.store(min_cell, std::memory_order_relaxed);
  route_max_.store(max_cell, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Build and derivation
// ---------------------------------------------------------------------------

GeoBlock GeoBlock::Build(storage::DatasetView data,
                         const BlockOptions& options) {
  GeoBlock block;
  block.data_ = std::move(data);
  block.filter_ = options.filter;
  const storage::DatasetView& view = block.data_;
  block.level_ = options.level;
  if (view.has_data()) {
    block.projection_ = view.projection();
    block.num_columns_ = view.num_columns();
  }

  StateBuilder b(options.level, block.num_columns_);
  b.header.global = AggregateVector(block.num_columns_);

  const uint64_t lsb = cell::CellId::LsbForLevel(options.level);
  const storage::Filter& filter = options.filter;
  const kernels::KernelTable& kern = kernels::Kernels();

  const std::span<const uint64_t> keys = view.keys();
  const size_t n = view.num_rows();
  const size_t num_columns = block.num_columns_;
  std::vector<const double*> col_ptrs(num_columns);
  for (size_t c = 0; c < num_columns; ++c) col_ptrs[c] = view.column(c).data();

  // Evaluate the filter once over the whole window as a byte mask: one
  // vectorized pass per predicate over the contiguous column arrays (same
  // conjunction as the old short-circuiting per-row evaluation).
  std::vector<uint8_t> mask;
  const bool filtered = !filter.IsTrue();
  if (filtered && n > 0) {
    const std::vector<storage::Predicate>& preds = filter.predicates();
    mask.resize(n);
    std::vector<const double*> pred_cols(preds.size());
    for (size_t p = 0; p < preds.size(); ++p) {
      pred_cols[p] = view.column(static_cast<size_t>(preds[p].column)).data();
    }
    kern.filter_mask(preds.data(), preds.size(), pred_cols.data(), n,
                     mask.data());
  }

  size_t row = 0;
  while (row < n) {
    const uint64_t cell_id = (keys[row] & (~lsb + 1)) | lsb;
    // Keys ascend, so one grid cell's rows are exactly the contiguous run up
    // to the cell's maximal leaf key.
    const size_t run_end = row + kern.upper_bound_u64(keys.data() + row,
                                                      n - row,
                                                      cell_id + lsb - 1);
    const size_t run_len = run_end - row;
    uint32_t matched = 0;
    uint64_t min_key = 0;
    uint64_t max_key = 0;
    if (filtered) {
      size_t lo = run_end;
      size_t hi = row;
      for (size_t i = row; i < run_end; ++i) {
        if (mask[i]) {
          ++matched;
          hi = i;
          if (lo == run_end) lo = i;
        }
      }
      if (matched == 0) {  // fully filtered-out cell: no aggregate at all
        row = run_end;
        continue;
      }
      min_key = keys[lo];
      max_key = keys[hi];
    } else {
      matched = static_cast<uint32_t>(run_len);
      min_key = keys[row];
      max_key = keys[run_end - 1];
    }
    const StateBuilder::CellRef cell = b.Append(cell_id);
    *cell.count = matched;
    *cell.min_key = min_key;
    *cell.max_key = max_key;
    for (size_t c = 0; c < num_columns; ++c) {
      ColumnAggregate* agg = &cell.columns[c];
      if (filtered) {
        kern.aggregate_column_masked(col_ptrs[c] + row, mask.data() + row,
                                     run_len, agg);
      } else {
        kern.aggregate_column(col_ptrs[c] + row, run_len, agg);
      }
      b.header.global.columns[c].Merge(*agg);
    }
    b.header.global.count += matched;
    row = run_end;
  }

  block.InstallState(b.Finish());
  return block;
}

GeoBlock GeoBlock::CoarsenTo(int level) const {
  if (level >= level_) {
    // Refining requires the base data; same level is a copy.
    if (level == level_) return *this;
    if (!data_.has_data()) {
      // Deserialized blocks are self-contained cell aggregates without base
      // rows; they can coarsen but not refine.
      throw std::logic_error(
          "GeoBlock::CoarsenTo: refining requires the base data");
    }
    // Re-scan the base rows under the block's own filter so a refined
    // filtered block aggregates exactly the rows the original did.
    return Build(data_, BlockOptions{level, filter_});
  }

  const std::shared_ptr<const BlockState> state = StateSnapshot();
  GeoBlock block;
  block.data_ = data_;
  block.filter_ = filter_;
  block.projection_ = projection_;
  block.level_ = level;
  block.num_columns_ = num_columns_;

  StateBuilder b(level, num_columns_);
  b.header.global = state->header.global;

  const std::vector<uint64_t>& src_cells = *state->cells;
  const uint64_t lsb = cell::CellId::LsbForLevel(level);
  uint64_t current_cell = 0;
  StateBuilder::CellRef dst{};
  for (size_t i = 0; i < src_cells.size(); ++i) {
    const uint64_t parent = (src_cells[i] & (~lsb + 1)) | lsb;
    if (parent != current_cell) {
      dst = b.Append(parent);
      *dst.min_key = state->min_key(i);
      current_cell = parent;
    }
    *dst.count += state->count(i);
    *dst.max_key = state->max_key(i);
    const ColumnAggregate* src = state->cell_columns(i);
    for (size_t c = 0; c < num_columns_; ++c) dst.columns[c].Merge(src[c]);
  }
  block.InstallState(b.Finish());
  return block;
}

void GeoBlock::AttachData(storage::DatasetView view) {
  if (data_.has_data()) {
    throw std::logic_error(
        "GeoBlock::AttachData: block already has base data; DetachData "
        "first");
  }
  if (view.has_data() && view.num_columns() != num_columns_) {
    throw std::runtime_error(
        "GeoBlock::AttachData: view column count does not match the block");
  }
  data_ = std::move(view);
}

// ---------------------------------------------------------------------------
// Covering and queries (each pins one state version)
// ---------------------------------------------------------------------------

std::vector<cell::CellId> CoverPolygon(const geo::Projection& projection,
                                       int level,
                                       const geo::Polygon& polygon) {
  std::vector<cell::CellId> covering;
  CoverPolygonInto(projection, level, polygon, &covering);
  return covering;
}

void CoverPolygonInto(const geo::Projection& projection, int level,
                      const geo::Polygon& polygon,
                      std::vector<cell::CellId>* out) {
  cell::CovererOptions options;
  options.max_level = level;
  cell::GetCoveringCellsInto(projection, polygon, options, out);
}

std::vector<cell::CellId> GeoBlock::Cover(const geo::Polygon& polygon) const {
  return CoverPolygon(projection_, level_, polygon);
}

QueryResult GeoBlock::Select(const geo::Polygon& polygon,
                             const AggregateRequest& request) const {
  const std::vector<cell::CellId> covering = Cover(polygon);
  return SelectCovering(covering, request);
}

QueryResult GeoBlock::SelectCovering(std::span<const cell::CellId> covering,
                                     const AggregateRequest& request) const {
  const util::SnapshotCell<BlockState>::ReadGuard state(*state_);
  return state->SelectCovering(covering, request);
}

uint64_t GeoBlock::Count(const geo::Polygon& polygon) const {
  const std::vector<cell::CellId> covering = Cover(polygon);
  return CountCovering(covering);
}

uint64_t GeoBlock::CountCovering(
    std::span<const cell::CellId> covering) const {
  const util::SnapshotCell<BlockState>::ReadGuard state(*state_);
  return state->CountCovering(covering);
}

AggregateVector GeoBlock::AggregateForCell(cell::CellId cell) const {
  const util::SnapshotCell<BlockState>::ReadGuard state(*state_);
  return state->AggregateForCell(cell);
}

// ---------------------------------------------------------------------------
// The MVCC write plane: copy-on-write pages
// ---------------------------------------------------------------------------

namespace {

/// One classified in-cell tuple of an update batch.
struct UpdateHit {
  size_t idx;  ///< cell-aggregate index the tuple lands in
  size_t b;    ///< batch index
  uint64_t key;
};

}  // namespace

GeoBlock::UpdateResult GeoBlock::ApplyBatchUpdate(
    std::span<const UpdateTuple> batch, std::span<const uint32_t> subset) {
  UpdateResult result;
  // Writers are externally serialized, so the raw current version is
  // stable for the whole commit.
  const BlockState* cur = CurrentState();
  const std::vector<uint64_t>& ids = *cur->cells;
  const uint64_t lsb = cell::CellId::LsbForLevel(level_);

  // Pass 1: classify the batch against the (frozen) cell layout. The
  // scratch is thread-local — its capacity survives across commits, so the
  // steady state never allocates here (writers to different blocks on one
  // thread share the scratch; its contents are per-call).
  thread_local std::vector<UpdateHit> hits;
  hits.clear();
  const size_t m = subset.empty() ? batch.size() : subset.size();
  for (size_t j = 0; j < m; ++j) {
    const size_t b = subset.empty() ? j : subset[j];
    const uint64_t key =
        cell::CellId::FromPoint(projection_.ToUnit(batch[b].location)).id();
    const uint64_t cell_id = (key & (~lsb + 1)) | lsb;
    const size_t pos =
        kernels::Kernels().lower_bound_u64(ids.data(), ids.size(), cell_id);
    if (pos == ids.size() || ids[pos] != cell_id) {
      // New, previously unaggregated region: the sorted layout has no slot
      // for it (Section 5 — requires a rebuild, ideally batched; see
      // MergeNewRegionTuples and BlockSet's pending buffer).
      result.rejected.push_back(b);
      continue;
    }
    hits.push_back({pos, b, key});
  }
  // Early exit: an all-rejected (or empty) batch publishes nothing, and
  // the state pointer is bit-identically unchanged.
  if (hits.empty()) return result;
  result.applied = hits.size();

  // Pass 2: the successor shares the cell ids and starts from the
  // predecessor's page table. A recycled node still holds the table of the
  // version before `cur`, which differs from cur's only where the last
  // commit copied pages — the pointer compare skips every other slot.
  std::shared_ptr<BlockState> next = recycler_->AcquireState();
  next->header = cur->header;
  next->num_columns = num_columns_;
  // A recycled node may be a retired eviction tombstone; successors are
  // always real, materialized versions.
  next->evicted = false;
  next->cells = cur->cells;
  next->page_base = cur->page_base;
  next->pages.resize(cur->pages.size());
  for (size_t p = 0; p < cur->pages.size(); ++p) {
    if (next->pages[p] != cur->pages[p]) next->pages[p] = cur->pages[p];
  }

  // Pass 3: copy each touched page on first touch, then patch in batch
  // order (per-cell folds stay in arrival order, so a serial replay of the
  // same batches is bit-identical).
  std::vector<uint32_t>& touched = recycler_->replaced();
  touched.clear();
  for (const UpdateHit& h : hits) {
    const size_t p = h.idx / kPageCells;
    if (next->pages[p] == cur->pages[p]) {
      std::shared_ptr<CellPage> copy = recycler_->AcquirePage();
      *copy = *cur->pages[p];
      next->pages[p] = std::move(copy);
      touched.push_back(static_cast<uint32_t>(p));
    }
    // This commit made the page and has not published it yet.
    CellPage& page = const_cast<CellPage&>(*next->pages[p]);
    const size_t i = h.idx % kPageCells;
    ++page.counts[i];
    page.min_keys[i] = std::min(page.min_keys[i], h.key);
    page.max_keys[i] = std::max(page.max_keys[i], h.key);
    ColumnAggregate* cols = page.columns.data() + i * num_columns_;
    const UpdateTuple& tuple = batch[h.b];
    ++next->header.global.count;
    for (size_t c = 0; c < num_columns_; ++c) {
      cols[c].Add(tuple.values[c]);
      next->header.global.columns[c].Add(tuple.values[c]);
    }
  }

  // Restore the prefix-sum invariant: the touched pages' local prefixes,
  // then every page base after the first touched page, shifted by the
  // tuples the touched pages before it gained.
  std::sort(touched.begin(), touched.end());
  const size_t num_pages = next->pages.size();
  uint64_t carry = 0;
  size_t t = 0;
  for (size_t p = touched.front(); p < num_pages; ++p) {
    next->page_base[p] += carry;
    if (t < touched.size() && touched[t] == p) {
      const size_t n = cur->page_cells(p);
      const CellPage& old_page = *cur->pages[p];
      const uint32_t old_total =
          old_page.offsets[n - 1] + old_page.counts[n - 1];
      carry += PrefixPage(const_cast<CellPage*>(next->pages[p].get()), n) -
               old_total;
      ++t;
    }
  }

  PublishState(std::move(next));
  return result;
}

size_t GeoBlock::MergeNewRegionTuples(std::span<const UpdateTuple> batch) {
  if (batch.empty()) return 0;
  const BlockState* cur = CurrentState();
  const uint64_t lsb = cell::CellId::LsbForLevel(level_);

  // Stage the batch as its own tiny sorted cell-aggregate layout. Within a
  // cell, tuples fold in batch order, so a serial re-application of the
  // same batches produces bit-identical sums.
  struct Partial {
    uint32_t count = 0;
    uint64_t min_key = ~uint64_t{0};
    uint64_t max_key = 0;
    std::vector<ColumnAggregate> cols;
  };
  std::map<uint64_t, Partial> incoming;
  AggregateVector batch_global(num_columns_);
  for (const UpdateTuple& tuple : batch) {
    const uint64_t key =
        cell::CellId::FromPoint(projection_.ToUnit(tuple.location)).id();
    const uint64_t cell_id = (key & (~lsb + 1)) | lsb;
    Partial& p = incoming[cell_id];
    if (p.cols.empty()) p.cols.resize(num_columns_);
    ++p.count;
    p.min_key = std::min(p.min_key, key);
    p.max_key = std::max(p.max_key, key);
    ++batch_global.count;
    for (size_t c = 0; c < num_columns_; ++c) {
      p.cols[c].Add(tuple.values[c]);
      batch_global.columns[c].Add(tuple.values[c]);
    }
  }

  // One linear merge of the two sorted layouts — the paper's "batched
  // rebuild" without rescanning any base row.
  StateBuilder b(level_, num_columns_);
  b.header.global = cur->header.global;
  b.header.global.Merge(batch_global);
  const std::vector<uint64_t>& ids = *cur->cells;
  const size_t n = ids.size();

  size_t new_cells = 0;
  size_t i = 0;
  auto it = incoming.begin();
  const auto append = [&](uint64_t cell_id, uint32_t count, uint64_t min_key,
                          uint64_t max_key, const ColumnAggregate* cols) {
    const StateBuilder::CellRef cell = b.Append(cell_id);
    *cell.count = count;
    *cell.min_key = min_key;
    *cell.max_key = max_key;
    std::copy(cols, cols + num_columns_, cell.columns);
    return cell;
  };
  const auto append_existing = [&](size_t idx) {
    return append(ids[idx], cur->count(idx), cur->min_key(idx),
                  cur->max_key(idx), cur->cell_columns(idx));
  };
  while (i < n || it != incoming.end()) {
    if (it == incoming.end() || (i < n && ids[i] < it->first)) {
      append_existing(i++);
      continue;
    }
    const Partial& part = it->second;
    if (i < n && ids[i] == it->first) {
      // The cell exists by now (created by an earlier merge after the
      // tuples were buffered): fold the partial in place.
      const StateBuilder::CellRef cell = append_existing(i++);
      *cell.count += part.count;
      *cell.min_key = std::min(*cell.min_key, part.min_key);
      *cell.max_key = std::max(*cell.max_key, part.max_key);
      for (size_t c = 0; c < num_columns_; ++c) {
        cell.columns[c].Merge(part.cols[c]);
      }
      ++it;
      continue;
    }
    // Genuinely new cell aggregate.
    append(it->first, part.count, part.min_key, part.max_key,
           part.cols.data());
    ++new_cells;
    ++it;
  }

  PublishState(b.Finish());
  return new_cells;
}

// ---------------------------------------------------------------------------
// Lazy materialization plane (BlockSet::OpenMapped machinery)
// ---------------------------------------------------------------------------

void GeoBlock::AdoptDeserialized(GeoBlock&& loaded, bool adopt_config) {
  std::shared_ptr<const BlockState> state = loaded.StateSnapshot();
  if (adopt_config) {
    // First materialization: no reader has ever seen this shard's
    // configuration (BlockSet routes cold shards by manifest boundaries
    // and serializes them through the residency lock), so the scalar
    // fields are safe to set exactly once here. On a re-fault they are
    // left alone — the manifest cross-checks guarantee the re-loaded
    // values are identical, and rewriting them would race readers.
    filter_ = std::move(loaded.filter_);
    projection_ = loaded.projection_;
    level_ = loaded.level_;
    num_columns_ = loaded.num_columns_;
  }
  // Publish through the existing cell: readers and the shard's
  // GeoBlockQC keep their pointers; the routing mirror advances to the
  // loaded hull (identical to the manifest hull on a re-fault).
  PublishState(std::move(state));
}

void GeoBlock::EvictState() {
  auto tomb = std::make_shared<BlockState>();
  tomb->evicted = true;
  tomb->header.level = level_;
  tomb->num_columns = num_columns_;
  // Publish the tombstone through the normal epoch swap — the retired
  // version is freed only after its grace period drains, so pinned
  // readers keep answering bitwise-stably from it. The routing atomics
  // stay at the (manifest-true) hull of the evicted clean shard.
  state_->Publish(std::move(tomb));
  // The recycler may still hold spare pages and a parked node whose page
  // table pins the evicted pages; eviction exists to reclaim those bytes.
  recycler_->Clear();
}

// ---------------------------------------------------------------------------
// Sizes
// ---------------------------------------------------------------------------

size_t GeoBlock::CellAggregateBytes() const {
  return StateSnapshot()->CellAggregateBytes();
}

size_t GeoBlock::MemoryBytes() const {
  const std::shared_ptr<const BlockState> state = StateSnapshot();
  return sizeof(BlockHeader) +
         state->header.global.columns.size() * sizeof(ColumnAggregate) +
         state->StorageBytes();
}

std::vector<uint32_t> GeoBlock::offsets() const {
  const BlockState* state = CurrentState();
  std::vector<uint32_t> out(state->num_cells());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint32_t>(state->offset(i));
  }
  return out;
}

std::vector<uint32_t> GeoBlock::counts() const {
  const BlockState* state = CurrentState();
  std::vector<uint32_t> out(state->num_cells());
  for (size_t i = 0; i < out.size(); ++i) out[i] = state->count(i);
  return out;
}

}  // namespace geoblocks::core
