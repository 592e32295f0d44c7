#pragma once

/// \file cover_cache.h
/// The server's covering cache: a bounded LRU from a query polygon to the
/// sorted covering cells BlockSet::CoverInto produces for it. Served
/// workloads repeat polygons (dashboards re-ask the same neighborhoods),
/// and covering, not the fold, is most of a sharded read; a hit skips it.
///
/// Only the covering is cached. It is a pure function of the polygon and
/// the set's level and projection, both fixed for the set's lifetime, so
/// no entry ever goes stale. Shard routes and aggregates are not cached:
/// updates and merge-rebuilds move them.
///
/// Single owner: the server's batcher thread calls Find and Insert. Pool
/// tasks may read a covering Find returned until the next Insert, the only
/// call that moves or frees entries. See docs/ARCHITECTURE.md §The cache
/// path.

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "cell/cell_id.h"
#include "geo/polygon.h"

namespace geoblocks::server {

class CoverCache {
 public:
  /// Bytes charged per entry on top of its rings and cells: the LRU list
  /// node, the index node, the polygon and the vector headers.
  static constexpr size_t kEntryOverheadBytes = 160;

  /// @param capacity_bytes Byte cap over every entry's charge; 0 stores
  ///     nothing.
  explicit CoverCache(size_t capacity_bytes) : capacity_(capacity_bytes) {}

  /// @return A 64-bit hash of the ring sizes and the raw vertex bits.
  static uint64_t Hash(const geo::Polygon& polygon);

  /// Looks `polygon` up; a hit becomes the most recently used entry. A
  /// hash match is a hit only when every ring is bitwise equal.
  ///
  /// @param hash    Hash(polygon), or any hash the caller keys it by.
  /// @param polygon The query polygon.
  /// @return The cached covering, valid until the next Insert; null on a
  ///     miss. Never allocates.
  const std::vector<cell::CellId>* Find(uint64_t hash,
                                        const geo::Polygon& polygon);

  /// Stores `cells` as the covering of `polygon`, evicting least recently
  /// used entries until it fits. An entry larger than the whole capacity
  /// is not admitted. An entry with the same hash but another polygon is
  /// replaced: a collision only costs a miss. Takes both by value so a
  /// caller that is done with them moves them in instead of copying.
  void Insert(uint64_t hash, geo::Polygon polygon,
              std::vector<cell::CellId> cells);

  /// @return Entries held.
  size_t entries() const { return index_.size(); }
  /// @return Bytes charged by the held entries (at most the capacity).
  size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    uint64_t hash = 0;
    geo::Polygon polygon;
    std::vector<cell::CellId> cells;
    size_t bytes = 0;
  };
  using Iter = std::list<Entry>::iterator;

  static bool SameRings(const std::vector<geo::Ring>& a,
                        const std::vector<geo::Ring>& b);
  void Erase(Iter it);

  size_t capacity_;
  size_t bytes_ = 0;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<uint64_t, Iter> index_;
};

}  // namespace geoblocks::server
