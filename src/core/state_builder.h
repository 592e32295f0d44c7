#pragma once

/// \file state_builder.h
/// Internal to the core library (geoblock.cc and serialize.cc): the staging
/// area every path that makes a BlockState from scratch fills.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/geoblock.h"

namespace geoblocks::core {

/// Mutable staging area for a fresh BlockState (build, coarsen, merge and
/// load paths): cells are appended in ascending order straight into pages,
/// and Finish() derives the prefix sums and freezes the result.
class StateBuilder {
 public:
  /// Writable fields of one appended cell (valid until the next Append).
  struct CellRef {
    uint32_t* count;
    uint64_t* min_key;
    uint64_t* max_key;
    ColumnAggregate* columns;  ///< `num_columns` default aggregates
  };

  /// @param level       Grid level of the state.
  /// @param num_columns Attribute columns aggregated per cell.
  StateBuilder(int level, size_t num_columns);

  /// Appends a cell after every cell appended so far, with a zero count,
  /// zero keys and empty column aggregates.
  ///
  /// @param cell_id Cell id, greater than every id appended before.
  /// @return The new cell's writable fields.
  CellRef Append(uint64_t cell_id);

  /// Adopts a whole ascending cell-id array at once and allocates its
  /// zeroed pages, for loaders that fill the pages in place.
  ///
  /// @param cells The cell ids.
  void AdoptCells(std::vector<uint64_t> cells);

  /// @return The pages allocated so far (fillable in place).
  std::vector<std::shared_ptr<CellPage>>& pages() { return pages_; }

  /// @return Number of cells appended or adopted so far.
  size_t num_cells() const { return cells_.size(); }

  /// The global header being built: the level is preset, the global
  /// aggregate is the caller's, and Finish() sets a non-empty state's key
  /// range from its cells.
  BlockHeader header;

  /// Computes page-local prefix sums and page bases from the counts and
  /// the key range from the cell ids, and freezes the state.
  ///
  /// @return The finished, publishable state.
  std::shared_ptr<const BlockState> Finish();

 private:
  size_t num_columns_;
  std::vector<uint64_t> cells_;
  std::vector<std::shared_ptr<CellPage>> pages_;
};

}  // namespace geoblocks::core
