// The server's covering cache (server/cover_cache.h): hits and misses,
// LRU eviction under the byte cap, the disabled cache, bitwise polygon
// equality, and hash collisions that must never hand one polygon another's
// covering.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cell/cell_id.h"
#include "geo/polygon.h"
#include "server/cover_cache.h"

namespace geoblocks::server {
namespace {

using Cells = std::vector<cell::CellId>;

geo::Polygon Square(double x, double y, double side) {
  return geo::Polygon::FromRect(geo::Rect{{x, y}, {x + side, y + side}});
}

/// `n` distinct cells, so coverings of different sizes charge different
/// byte counts.
Cells CellsOf(size_t n, uint64_t first) {
  Cells cells;
  for (size_t i = 0; i < n; ++i) {
    cells.push_back(cell::CellId::FromIJ(static_cast<uint32_t>(first + i), 7));
  }
  return cells;
}

/// The byte charge of one entry holding `polygon` and `cells` cells.
size_t ChargeOf(const geo::Polygon& polygon, size_t cells) {
  size_t bytes = CoverCache::kEntryOverheadBytes + cells * sizeof(cell::CellId);
  for (const geo::Ring& ring : polygon.rings()) {
    bytes += sizeof(geo::Ring) + ring.size() * sizeof(geo::Point);
  }
  return bytes;
}

TEST(CoverCacheTest, MissesUntilInsertedThenHits) {
  CoverCache cache(1 << 20);
  const geo::Polygon a = Square(0.1, 0.1, 0.2);
  const uint64_t h = CoverCache::Hash(a);
  EXPECT_EQ(cache.Find(h, a), nullptr);

  const Cells cells = CellsOf(5, 100);
  cache.Insert(h, a, cells);
  const Cells* got = cache.Find(h, a);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, cells);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), ChargeOf(a, cells.size()));

  // An equal polygon built separately hashes and compares equal.
  const geo::Polygon copy = Square(0.1, 0.1, 0.2);
  EXPECT_EQ(CoverCache::Hash(copy), h);
  ASSERT_NE(cache.Find(h, copy), nullptr);

  // A second insert of the same polygon keeps one entry.
  cache.Insert(h, copy, CellsOf(5, 900));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(*cache.Find(h, a), cells);
}

TEST(CoverCacheTest, EvictsLeastRecentlyUsedUnderByteCap) {
  const geo::Polygon a = Square(0.1, 0.1, 0.1);
  const geo::Polygon b = Square(0.3, 0.1, 0.1);
  const geo::Polygon c = Square(0.5, 0.1, 0.1);
  const size_t charge = ChargeOf(a, 4);
  CoverCache cache(2 * charge);  // room for exactly two entries

  cache.Insert(CoverCache::Hash(a), a, CellsOf(4, 0));
  cache.Insert(CoverCache::Hash(b), b, CellsOf(4, 10));
  EXPECT_EQ(cache.bytes(), 2 * charge);
  ASSERT_NE(cache.Find(CoverCache::Hash(a), a), nullptr);  // a is now MRU

  cache.Insert(CoverCache::Hash(c), c, CellsOf(4, 20));
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(cache.bytes(), 2 * charge);
  EXPECT_EQ(cache.Find(CoverCache::Hash(b), b), nullptr) << "b was LRU";
  EXPECT_NE(cache.Find(CoverCache::Hash(a), a), nullptr);
  EXPECT_NE(cache.Find(CoverCache::Hash(c), c), nullptr);

  // A larger entry evicts as many LRU entries as it needs (here both).
  const geo::Polygon d = Square(0.7, 0.1, 0.1);
  cache.Insert(CoverCache::Hash(d), d, CellsOf(4 + charge / 8, 30));
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Find(CoverCache::Hash(d), d), nullptr);
  EXPECT_EQ(cache.bytes(), 2 * charge);

  // An entry larger than the whole capacity is not admitted and evicts
  // nothing.
  const geo::Polygon e = Square(0.1, 0.5, 0.1);
  cache.Insert(CoverCache::Hash(e), e, CellsOf(2 * charge / 8, 40));
  EXPECT_EQ(cache.Find(CoverCache::Hash(e), e), nullptr);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_NE(cache.Find(CoverCache::Hash(d), d), nullptr);
}

TEST(CoverCacheTest, ZeroCapacityStoresNothing) {
  CoverCache cache(0);
  const geo::Polygon a = Square(0.1, 0.1, 0.2);
  const uint64_t h = CoverCache::Hash(a);
  for (int i = 0; i < 3; ++i) {
    cache.Insert(h, a, CellsOf(3, 0));
    EXPECT_EQ(cache.Find(h, a), nullptr);
  }
  cache.Insert(h, a, Cells{});  // not even an empty covering
  EXPECT_EQ(cache.Find(h, a), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(CoverCacheTest, NearlyEqualPolygonsMiss) {
  CoverCache cache(1 << 20);
  geo::Polygon holed(geo::Ring{{0.1, 0.1}, {0.5, 0.1}, {0.5, 0.5}, {0.1, 0.5}});
  holed.AddRing(geo::Ring{{0.2, 0.2}, {0.3, 0.2}, {0.3, 0.3}});
  cache.Insert(CoverCache::Hash(holed), holed, CellsOf(6, 0));
  ASSERT_NE(cache.Find(CoverCache::Hash(holed), holed), nullptr);

  // One ulp in one vertex.
  geo::Ring outer = holed.rings()[0];
  outer[2].x = std::nextafter(outer[2].x, 1.0);
  geo::Polygon ulp(outer);
  ulp.AddRing(holed.rings()[1]);
  // The same rings in the other order.
  geo::Polygon swapped(holed.rings()[1]);
  swapped.AddRing(holed.rings()[0]);
  // One more hole.
  geo::Polygon extra = holed;
  extra.AddRing(geo::Ring{{0.35, 0.35}, {0.4, 0.35}, {0.4, 0.4}});

  for (const geo::Polygon* p : {&ulp, &swapped, &extra}) {
    // Under its own hash, and under the cached polygon's hash too, so the
    // bitwise comparison, not the hash, is what refuses it.
    EXPECT_EQ(cache.Find(CoverCache::Hash(*p), *p), nullptr);
    EXPECT_EQ(cache.Find(CoverCache::Hash(holed), *p), nullptr);
  }
  EXPECT_NE(CoverCache::Hash(ulp), CoverCache::Hash(holed));
  EXPECT_NE(CoverCache::Hash(swapped), CoverCache::Hash(holed));
}

TEST(CoverCacheTest, HashCollisionNeverServesAnotherPolygonsCovering) {
  CoverCache cache(1 << 20);
  const geo::Polygon a = Square(0.1, 0.1, 0.2);
  const geo::Polygon b = Square(0.6, 0.6, 0.2);
  const Cells cells_a = CellsOf(3, 0);
  const Cells cells_b = CellsOf(8, 50);
  constexpr uint64_t kHash = 42;  // forced: both polygons share it

  cache.Insert(kHash, a, cells_a);
  EXPECT_EQ(cache.Find(kHash, b), nullptr) << "b must not get a's covering";
  ASSERT_NE(cache.Find(kHash, a), nullptr);
  EXPECT_EQ(*cache.Find(kHash, a), cells_a);

  // The newcomer replaces the colliding entry: a now misses, never b's.
  cache.Insert(kHash, b, cells_b);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), ChargeOf(b, cells_b.size()));
  EXPECT_EQ(cache.Find(kHash, a), nullptr);
  ASSERT_NE(cache.Find(kHash, b), nullptr);
  EXPECT_EQ(*cache.Find(kHash, b), cells_b);

  cache.Insert(kHash, a, cells_a);
  EXPECT_EQ(cache.Find(kHash, b), nullptr);
  ASSERT_NE(cache.Find(kHash, a), nullptr);
  EXPECT_EQ(*cache.Find(kHash, a), cells_a);
}

}  // namespace
}  // namespace geoblocks::server
