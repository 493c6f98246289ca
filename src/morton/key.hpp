#pragma once
/// \file key.hpp
/// \brief Morton (Z-order) keys for linear octrees.
///
/// The paper's nonuniform runs span tree levels 2..27, which exceeds the
/// 21-level limit of 64-bit Morton keys, so pkifmm uses 128-bit keys:
/// the three anchor coordinates (at kMaxDepth resolution) are
/// bit-interleaved into an unsigned __int128. A Key is the pair
/// (interleaved anchor, level); ordering by (bits, level) yields the
/// standard linear-octree order in which an ancestor precedes all of its
/// descendants (DENDRO's convention), which the distributed tree
/// construction and LET exchange rely on.

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace pkifmm::morton {

/// Maximum refinement level supported by the key encoding.
inline constexpr int kMaxDepth = 30;

/// Integer anchor coordinate at kMaxDepth resolution, in [0, 2^kMaxDepth).
using Coord = std::uint32_t;

/// Number of cells per side at kMaxDepth resolution.
inline constexpr Coord kGridSize = Coord{1} << kMaxDepth;

using Bits = unsigned __int128;

/// Interleaves the low kMaxDepth bits of (x, y, z): bit i of x lands at
/// bit 3i, y at 3i+1, z at 3i+2.
Bits interleave(Coord x, Coord y, Coord z);

/// Inverse of interleave().
void deinterleave(Bits bits, Coord& x, Coord& y, Coord& z);

/// An octant of the unit cube, identified by its Morton-interleaved
/// anchor (the min-corner cell at kMaxDepth resolution) and its level.
/// Level 0 is the root (the whole unit cube).
struct Key {
  Bits bits = 0;    ///< interleaved anchor at kMaxDepth resolution
  std::uint8_t level = 0;

  friend bool operator==(const Key& a, const Key& b) {
    return a.bits == b.bits && a.level == b.level;
  }
  friend bool operator!=(const Key& a, const Key& b) { return !(a == b); }

  /// Linear-octree order: ancestors sort immediately before their first
  /// descendant chain.
  friend bool operator<(const Key& a, const Key& b) {
    return a.bits != b.bits ? a.bits < b.bits : a.level < b.level;
  }
  friend bool operator<=(const Key& a, const Key& b) { return !(b < a); }
  friend bool operator>(const Key& a, const Key& b) { return b < a; }
  friend bool operator>=(const Key& a, const Key& b) { return !(a < b); }
};

/// The root octant (the unit cube).
inline Key root() { return Key{0, 0}; }

/// Builds a key from anchor coordinates and level. The anchor must be
/// aligned to the octant grid of that level.
Key make_key(Coord x, Coord y, Coord z, int level);

/// Anchor coordinates of a key.
std::array<Coord, 3> anchor(const Key& k);

/// Side length of the octant in anchor cells: 2^(kMaxDepth - level).
inline Coord cell_side(const Key& k) {
  return Coord{1} << (kMaxDepth - k.level);
}

/// Number of kMaxDepth-level cells covered: cell_side^3 as 128-bit.
inline Bits cell_volume(const Key& k) {
  return Bits{1} << (3 * (kMaxDepth - k.level));
}

/// First kMaxDepth-resolution Morton id covered by this octant.
inline Bits range_begin(const Key& k) { return k.bits; }

/// One past the last kMaxDepth-resolution Morton id covered.
inline Bits range_end(const Key& k) { return k.bits + cell_volume(k); }

/// Parent octant; the root has no parent.
Key parent(const Key& k);

/// The i-th child (Morton order, i in [0,8)).
Key child(const Key& k, int i);

/// All eight children in Morton order.
std::array<Key, 8> children(const Key& k);

/// Which child of its parent this octant is (in [0,8)).
int child_index(const Key& k);

/// Ancestor at the given (coarser or equal) level.
Key ancestor_at(const Key& k, int level);

/// All strict ancestors, from level k.level-1 up to the root.
std::vector<Key> ancestors(const Key& k);

/// True iff a is a strict ancestor of b.
bool is_ancestor(const Key& a, const Key& b);

/// True iff a == b or a is an ancestor of b (i.e. a's region contains b's).
inline bool contains(const Key& a, const Key& b) {
  return a.level <= b.level && ancestor_at(b, a.level) == a;
}

/// True iff the two octants' regions overlap (one contains the other).
inline bool overlaps(const Key& a, const Key& b) {
  return contains(a, b) || contains(b, a);
}

/// Key of the kMaxDepth-level cell containing a point of the unit cube.
/// Coordinates are clamped into [0, 1).
Key cell_of_point(double x, double y, double z);

/// Same-level neighbor displaced by (dx, dy, dz) in {-1,0,1}^3; nullopt
/// if it would fall outside the unit cube.
std::optional<Key> neighbor(const Key& k, int dx, int dy, int dz);

/// Colleagues: the up-to-26 same-level adjacent octants (excluding k).
std::vector<Key> colleagues(const Key& k);

/// Colleagues plus k itself (the full 3x3x3 same-level neighborhood that
/// exists within the unit cube).
std::vector<Key> neighborhood(const Key& k);

/// True iff the closed regions of a and b touch (share a face, edge or
/// vertex) while their interiors are disjoint. Works across levels.
/// Note an octant is NOT adjacent to itself or to its ancestors.
bool adjacent(const Key& a, const Key& b);

/// Physical geometry of an octant within the unit cube.
struct BoxGeometry {
  std::array<double, 3> center;
  double half_width;  ///< half the octant side length
};

BoxGeometry box_geometry(const Key& k);

/// Debug rendering, e.g. "L3:(2,5,7)".
std::string to_string(const Key& k);

/// Hash functor so Key can be used in unordered containers.
struct KeyHash {
  std::size_t operator()(const Key& k) const {
    const auto lo = static_cast<std::uint64_t>(k.bits);
    const auto hi = static_cast<std::uint64_t>(k.bits >> 64);
    std::uint64_t h = lo * 0x9e3779b97f4a7c15ULL;
    h ^= (hi + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    h ^= k.level * 0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h);
  }
};

}  // namespace pkifmm::morton
