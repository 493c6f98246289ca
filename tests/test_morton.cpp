#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "morton/key.hpp"
#include "util/rng.hpp"

namespace pkifmm::morton {
namespace {

TEST(Interleave, RoundTrips) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const Coord x = static_cast<Coord>(rng.uniform_u64(kGridSize));
    const Coord y = static_cast<Coord>(rng.uniform_u64(kGridSize));
    const Coord z = static_cast<Coord>(rng.uniform_u64(kGridSize));
    Coord x2, y2, z2;
    deinterleave(interleave(x, y, z), x2, y2, z2);
    EXPECT_EQ(x, x2);
    EXPECT_EQ(y, y2);
    EXPECT_EQ(z, z2);
  }
}

TEST(Interleave, EveryBitRoundTrips) {
  // The decode compacts the key's two 64-bit halves, split at bit 63,
  // so every coordinate bit is checked on its own: bit i of x, y and z
  // sits at key bit 3i, 3i+1 and 3i+2, on both sides of the split. Each
  // single-bit coordinate is also checked with the other two axes all
  // ones, and every coordinate through anchor(make_key()) at every
  // level it is aligned to.
  auto check = [](Coord x, Coord y, Coord z) {
    Coord x2, y2, z2;
    deinterleave(interleave(x, y, z), x2, y2, z2);
    EXPECT_EQ(x2, x);
    EXPECT_EQ(y2, y);
    EXPECT_EQ(z2, z);
    for (int level = 0; level <= kMaxDepth; ++level) {
      const Coord keep = ~((Coord{1} << (kMaxDepth - level)) - 1);
      const std::array<Coord, 3> a = {x & keep, y & keep, z & keep};
      EXPECT_EQ(anchor(make_key(a[0], a[1], a[2], level)), a)
          << "level " << level;
    }
  };
  constexpr Coord kOnes = kGridSize - 1;
  for (int bit = 0; bit < kMaxDepth; ++bit) {
    const Coord c = Coord{1} << bit;
    for (const Coord rest : {Coord{0}, kOnes}) {
      check(c, rest, rest);
      check(rest, c, rest);
      check(rest, rest, c);
    }
  }
  check(kOnes, kOnes, kOnes);
}

TEST(Interleave, KnownSmallValues) {
  // x=1 -> bit 0, y=1 -> bit 1, z=1 -> bit 2.
  EXPECT_EQ(interleave(1, 0, 0), Bits{1});
  EXPECT_EQ(interleave(0, 1, 0), Bits{2});
  EXPECT_EQ(interleave(0, 0, 1), Bits{4});
  EXPECT_EQ(interleave(1, 1, 1), Bits{7});
  EXPECT_EQ(interleave(2, 0, 0), Bits{8});
}

TEST(Key, RootProperties) {
  const Key r = root();
  EXPECT_EQ(r.level, 0);
  EXPECT_EQ(range_begin(r), Bits{0});
  EXPECT_EQ(range_end(r), Bits{1} << (3 * kMaxDepth));
}

TEST(Key, ParentChildRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Key cell = cell_of_point(rng.uniform(), rng.uniform(), rng.uniform());
    for (int level = 1; level <= kMaxDepth; ++level) {
      const Key k = ancestor_at(cell, level);
      const Key p = parent(k);
      EXPECT_EQ(p.level, level - 1);
      EXPECT_EQ(child(p, child_index(k)), k);
      EXPECT_TRUE(is_ancestor(p, k));
      EXPECT_TRUE(contains(p, k));
      EXPECT_FALSE(contains(k, p));
    }
  }
}

TEST(Key, ChildrenAreDisjointAndCoverParent) {
  const Key p = ancestor_at(cell_of_point(0.3, 0.7, 0.2), 5);
  auto kids = children(p);
  Bits covered = 0;
  std::set<Bits> begins;
  for (const Key& k : kids) {
    EXPECT_EQ(k.level, p.level + 1);
    EXPECT_TRUE(is_ancestor(p, k));
    covered += cell_volume(k);
    begins.insert(range_begin(k));
  }
  EXPECT_EQ(begins.size(), 8u);
  EXPECT_EQ(covered, cell_volume(p));
}

TEST(Key, OrderingPutsAncestorFirst) {
  const Key cell = cell_of_point(0.5, 0.5, 0.5);
  const Key a = ancestor_at(cell, 3);
  const Key d = ancestor_at(cell, 9);
  EXPECT_LT(a, d);
}

TEST(Key, MortonOrderMatchesBitsOrder) {
  Rng rng(19);
  std::vector<Key> keys;
  for (int i = 0; i < 100; ++i) {
    const Key cell = cell_of_point(rng.uniform(), rng.uniform(), rng.uniform());
    keys.push_back(ancestor_at(cell, 1 + static_cast<int>(rng.uniform_u64(kMaxDepth))));
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i + 1 < keys.size(); ++i)
    EXPECT_LE(range_begin(keys[i]), range_begin(keys[i + 1]));
}

TEST(Key, AncestorsListUpToRoot) {
  const Key cell = cell_of_point(0.1, 0.9, 0.4);
  const Key k = ancestor_at(cell, 6);
  auto anc = ancestors(k);
  ASSERT_EQ(anc.size(), 6u);
  EXPECT_EQ(anc.front().level, 5);
  EXPECT_EQ(anc.back(), root());
  for (const Key& a : anc) EXPECT_TRUE(is_ancestor(a, k));
}

TEST(CellOfPoint, ClampsOutOfRange) {
  const Key lo = cell_of_point(-1.0, -0.5, 0.0);
  const auto a = anchor(lo);
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(a[1], 0u);
  const Key hi = cell_of_point(2.0, 1.0, 0.9999999999);
  const auto b = anchor(hi);
  EXPECT_EQ(b[0], kGridSize - 1);
  EXPECT_EQ(b[1], kGridSize - 1);
}

TEST(Neighbor, InteriorOctantHas26Colleagues) {
  // Center octant at level 2 (grid 4x4x4), position (1,1,1): interior.
  const Coord s = kGridSize / 4;
  const Key k = make_key(s, s, s, 2);
  EXPECT_EQ(colleagues(k).size(), 26u);
  EXPECT_EQ(neighborhood(k).size(), 27u);
}

TEST(Neighbor, CornerOctantHas7Colleagues) {
  const Key k = make_key(0, 0, 0, 2);
  EXPECT_EQ(colleagues(k).size(), 7u);
}

TEST(Neighbor, OutsideDomainIsNullopt) {
  const Key k = make_key(0, 0, 0, 2);
  EXPECT_FALSE(neighbor(k, -1, 0, 0).has_value());
  EXPECT_TRUE(neighbor(k, 1, 0, 0).has_value());
}

TEST(Neighbor, IsSymmetric) {
  const Coord s = kGridSize / 8;
  const Key k = make_key(2 * s, 3 * s, 4 * s, 3);
  for (int dx = -1; dx <= 1; ++dx)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dz = -1; dz <= 1; ++dz) {
        auto n = neighbor(k, dx, dy, dz);
        if (!n) continue;
        auto back = neighbor(*n, -dx, -dy, -dz);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, k);
      }
}

TEST(Adjacent, SameLevelFaceNeighbors) {
  const Coord s = kGridSize / 4;
  const Key a = make_key(s, s, s, 2);
  const Key b = make_key(2 * s, s, s, 2);   // face neighbor
  const Key c = make_key(2 * s, 2 * s, 2 * s, 2);  // vertex neighbor
  const Key d = make_key(3 * s, s, s, 2);   // one apart
  EXPECT_TRUE(adjacent(a, b));
  EXPECT_TRUE(adjacent(b, a));
  EXPECT_TRUE(adjacent(a, c));
  EXPECT_FALSE(adjacent(a, d));
}

TEST(Adjacent, NotAdjacentToSelfOrAncestor) {
  const Key cell = cell_of_point(0.3, 0.3, 0.3);
  const Key k = ancestor_at(cell, 4);
  EXPECT_FALSE(adjacent(k, k));
  EXPECT_FALSE(adjacent(parent(k), k));
  EXPECT_FALSE(adjacent(k, parent(k)));
}

TEST(Adjacent, AcrossLevels) {
  // Coarse box [0,0.5)^3 at level 1 and a fine box just across x=0.5.
  const Key coarse = make_key(0, 0, 0, 1);
  const Coord half = kGridSize / 2;
  const Key fine = make_key(half, 0, 0, 4);
  EXPECT_TRUE(adjacent(coarse, fine));
  // A fine box strictly inside the far half is not adjacent.
  const Key far = make_key(half + (kGridSize / 16), 0, 0, 4);
  EXPECT_FALSE(adjacent(coarse, far));
}

TEST(Adjacent, MatchesBruteForceOnLevel3Grid) {
  // Exhaustive check at level 3 (8^3 octants): adjacency by coordinate
  // arithmetic must match the extent-based predicate.
  const Coord s = kGridSize / 8;
  std::vector<Key> all;
  for (Coord x = 0; x < 8; ++x)
    for (Coord y = 0; y < 8; ++y)
      for (Coord z = 0; z < 8; ++z)
        all.push_back(make_key(x * s, y * s, z * s, 3));
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    const Key& a = all[rng.uniform_u64(all.size())];
    const Key& b = all[rng.uniform_u64(all.size())];
    const auto pa = anchor(a), pb = anchor(b);
    int maxd = 0;
    for (int d = 0; d < 3; ++d)
      maxd = std::max(maxd, std::abs(static_cast<int>(pa[d] / s) -
                                     static_cast<int>(pb[d] / s)));
    const bool expect = (maxd == 1);  // same-level: adjacent iff chebyshev == 1
    EXPECT_EQ(adjacent(a, b), expect);
  }
}

TEST(Geometry, RootBoxIsUnitCube) {
  const auto g = box_geometry(root());
  EXPECT_DOUBLE_EQ(g.half_width, 0.5);
  EXPECT_DOUBLE_EQ(g.center[0], 0.5);
}

TEST(Geometry, ChildBoxesHalve) {
  const Key k = child(child(root(), 5), 2);
  const auto g = box_geometry(k);
  EXPECT_DOUBLE_EQ(g.half_width, 0.125);
}

TEST(Geometry, CellContainsItsPoint) {
  Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(), y = rng.uniform(), z = rng.uniform();
    for (int level : {2, 5, 9}) {
      const Key k = ancestor_at(cell_of_point(x, y, z), level);
      const auto g = box_geometry(k);
      EXPECT_LE(std::abs(x - g.center[0]), g.half_width + 1e-12);
      EXPECT_LE(std::abs(y - g.center[1]), g.half_width + 1e-12);
      EXPECT_LE(std::abs(z - g.center[2]), g.half_width + 1e-12);
    }
  }
}

TEST(Overlaps, NestedAndDisjoint) {
  const Key cell = cell_of_point(0.6, 0.6, 0.6);
  const Key a = ancestor_at(cell, 2);
  const Key b = ancestor_at(cell, 7);
  EXPECT_TRUE(overlaps(a, b));
  EXPECT_TRUE(overlaps(b, a));
  const Key other = make_key(0, 0, 0, 2);
  EXPECT_FALSE(overlaps(a, other));
}

TEST(KeyHash, DistinguishesLevels) {
  const Key cell = cell_of_point(0.5, 0.25, 0.125);
  KeyHash h;
  EXPECT_NE(h(ancestor_at(cell, 5)), h(ancestor_at(cell, 6)));
}

TEST(ToString, Readable) {
  const Key k = make_key(kGridSize / 2, 0, kGridSize / 4, 2);
  EXPECT_EQ(to_string(k), "L2:(2,0,1)");
}

// Parameterized sweep: structural invariants must hold at every level.
class LevelSweep : public ::testing::TestWithParam<int> {};

TEST_P(LevelSweep, ChildRangesPartitionParentRange) {
  const int level = GetParam();
  const Key k = ancestor_at(cell_of_point(0.61, 0.37, 0.83), level);
  Bits expect_begin = range_begin(k);
  for (const Key& c : children(k)) {
    EXPECT_EQ(range_begin(c), expect_begin);
    expect_begin = range_end(c);
  }
  EXPECT_EQ(expect_begin, range_end(k));
}

TEST_P(LevelSweep, AncestorRangeContainsDescendantRange) {
  const int level = GetParam();
  const Key cell = cell_of_point(0.11, 0.92, 0.45);
  const Key k = ancestor_at(cell, level);
  const Key deep = ancestor_at(cell, std::min(level + 5, kMaxDepth));
  EXPECT_LE(range_begin(k), range_begin(deep));
  EXPECT_GE(range_end(k), range_end(deep));
}

TEST_P(LevelSweep, ColleaguesAreAdjacentAndSameLevel) {
  const int level = GetParam();
  const Key k = ancestor_at(cell_of_point(0.5, 0.5, 0.5), level);
  for (const Key& c : colleagues(k)) {
    EXPECT_EQ(c.level, k.level);
    EXPECT_TRUE(adjacent(c, k));
    EXPECT_NE(c, k);
  }
}

TEST_P(LevelSweep, CellSideTimesGridMatches) {
  const int level = GetParam();
  const Key k = ancestor_at(cell_of_point(0.3, 0.3, 0.3), level);
  EXPECT_EQ(static_cast<std::uint64_t>(cell_side(k)) << level, kGridSize);
}

INSTANTIATE_TEST_SUITE_P(Levels, LevelSweep,
                         ::testing::Values(1, 2, 5, 10, 20, 25));

TEST(KeyRanges, PreorderSortEqualsRangeOrderForDisjointOctants) {
  // For non-overlapping octants, Morton order == order of key ranges.
  Rng rng(77);
  std::vector<Key> keys;
  for (int i = 0; i < 64; ++i) {
    const Key cell =
        cell_of_point(rng.uniform(), rng.uniform(), rng.uniform());
    keys.push_back(ancestor_at(cell, 6));
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  for (std::size_t i = 0; i + 1 < keys.size(); ++i)
    EXPECT_LE(range_end(keys[i]), range_begin(keys[i + 1]));
}

}  // namespace
}  // namespace pkifmm::morton
