#include "server/cover_cache.h"

#include <cstring>
#include <iterator>
#include <utility>

namespace geoblocks::server {

namespace {

/// One splitmix64-style round folding `word` into `h`.
uint64_t Mix(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

uint64_t CoverCache::Hash(const geo::Polygon& polygon) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const geo::Ring& ring : polygon.rings()) {
    h = Mix(h, ring.size());
    for (const geo::Point& p : ring) {
      h = Mix(Mix(h, Bits(p.x)), Bits(p.y));
    }
  }
  return h;
}

bool CoverCache::SameRings(const std::vector<geo::Ring>& a,
                           const std::vector<geo::Ring>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size() ||
        std::memcmp(a[r].data(), b[r].data(),
                    a[r].size() * sizeof(geo::Point)) != 0) {
      return false;
    }
  }
  return true;
}

const std::vector<cell::CellId>* CoverCache::Find(
    uint64_t hash, const geo::Polygon& polygon) {
  const auto it = index_.find(hash);
  if (it == index_.end() ||
      !SameRings(it->second->polygon.rings(), polygon.rings())) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->cells;
}

void CoverCache::Insert(uint64_t hash, geo::Polygon polygon,
                        std::vector<cell::CellId> cells) {
  size_t bytes = kEntryOverheadBytes + cells.size() * sizeof(cell::CellId);
  for (const geo::Ring& ring : polygon.rings()) {
    bytes += sizeof(geo::Ring) + ring.size() * sizeof(geo::Point);
  }
  if (bytes > capacity_) return;
  if (const auto it = index_.find(hash); it != index_.end()) {
    if (SameRings(it->second->polygon.rings(), polygon.rings())) {
      // A polygon that missed twice in one epoch: keep the first copy.
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    Erase(it->second);
  }
  while (bytes_ + bytes > capacity_) Erase(std::prev(lru_.end()));
  lru_.push_front(Entry{hash, std::move(polygon), std::move(cells), bytes});
  index_.emplace(hash, lru_.begin());
  bytes_ += bytes;
}

void CoverCache::Erase(Iter it) {
  bytes_ -= it->bytes;
  index_.erase(it->hash);
  lru_.erase(it);
}

}  // namespace geoblocks::server
