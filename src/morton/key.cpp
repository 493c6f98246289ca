#include "morton/key.hpp"

#include <cmath>
#include <sstream>

namespace pkifmm::morton {

namespace {

/// Byte -> 24-bit spread table: bit i of the byte lands at bit 3i.
struct SpreadTable {
  std::array<std::uint32_t, 256> t{};
  constexpr SpreadTable() {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t v = 0;
      for (int i = 0; i < 8; ++i)
        if (b & (1u << i)) v |= 1u << (3 * i);
      t[b] = v;
    }
  }
};

constexpr SpreadTable kSpread;

Bits spread(Coord c) {
  // 32-bit coordinate, 4 bytes, each byte expands to 24 bits.
  Bits out = 0;
  out |= static_cast<Bits>(kSpread.t[c & 0xff]);
  out |= static_cast<Bits>(kSpread.t[(c >> 8) & 0xff]) << 24;
  out |= static_cast<Bits>(kSpread.t[(c >> 16) & 0xff]) << 48;
  out |= static_cast<Bits>(kSpread.t[(c >> 24) & 0xff]) << 72;
  return out;
}

/// Bit 3i of v -> bit i for i in [0, 21) (v's bits 0..60), by the
/// standard mask-and-shift compaction: each step doubles the width of
/// the packed bit groups. Other bits of v are ignored.
constexpr std::uint64_t compact64(std::uint64_t v) {
  v &= 0x1249249249249249ULL;
  v = (v ^ (v >> 2)) & 0x30c30c30c30c30c3ULL;
  v = (v ^ (v >> 4)) & 0xf00f00f00f00f00fULL;
  v = (v ^ (v >> 8)) & 0x00ff0000ff0000ffULL;
  v = (v ^ (v >> 16)) & 0xffff00000000ffffULL;
  v = (v ^ (v >> 32)) & 0x00000000001fffffULL;
  return v;
}

Coord compact(Bits bits) {
  // Every third bit, starting at bit 0: bits 0..62 hold coordinate
  // bits 0..20 and bits 63..89 hold bits 21..29, so splitting the key
  // at bit 63 lets both halves compact with the same 64-bit masks.
  const auto lo = static_cast<std::uint64_t>(bits);
  const auto hi = static_cast<std::uint64_t>(bits >> 63);
  return static_cast<Coord>((compact64(lo) | (compact64(hi) << 21)) &
                            (kGridSize - 1));
}

}  // namespace

Bits interleave(Coord x, Coord y, Coord z) {
  PKIFMM_DCHECK(x < kGridSize && y < kGridSize && z < kGridSize);
  return spread(x) | (spread(y) << 1) | (spread(z) << 2);
}

void deinterleave(Bits bits, Coord& x, Coord& y, Coord& z) {
  x = compact(bits);
  y = compact(bits >> 1);
  z = compact(bits >> 2);
}

Key make_key(Coord x, Coord y, Coord z, int level) {
  PKIFMM_CHECK(level >= 0 && level <= kMaxDepth);
  const Coord mask = (level == kMaxDepth) ? 0 : ((Coord{1} << (kMaxDepth - level)) - 1);
  PKIFMM_CHECK_MSG((x & mask) == 0 && (y & mask) == 0 && (z & mask) == 0,
                   "anchor not aligned to level " << level);
  return Key{interleave(x, y, z), static_cast<std::uint8_t>(level)};
}

std::array<Coord, 3> anchor(const Key& k) {
  std::array<Coord, 3> a;
  deinterleave(k.bits, a[0], a[1], a[2]);
  return a;
}

Key parent(const Key& k) {
  PKIFMM_CHECK_MSG(k.level > 0, "root has no parent");
  const int shift = 3 * (kMaxDepth - k.level + 1);
  const Bits mask = ~((Bits{1} << shift) - 1);
  return Key{k.bits & mask, static_cast<std::uint8_t>(k.level - 1)};
}

Key child(const Key& k, int i) {
  PKIFMM_CHECK(i >= 0 && i < 8);
  PKIFMM_CHECK_MSG(k.level < kMaxDepth, "cannot refine below kMaxDepth");
  const int shift = 3 * (kMaxDepth - k.level - 1);
  return Key{k.bits | (static_cast<Bits>(i) << shift),
             static_cast<std::uint8_t>(k.level + 1)};
}

std::array<Key, 8> children(const Key& k) {
  std::array<Key, 8> out;
  for (int i = 0; i < 8; ++i) out[i] = child(k, i);
  return out;
}

int child_index(const Key& k) {
  PKIFMM_CHECK(k.level > 0);
  const int shift = 3 * (kMaxDepth - k.level);
  return static_cast<int>((k.bits >> shift) & 7);
}

Key ancestor_at(const Key& k, int level) {
  PKIFMM_CHECK(level >= 0 && level <= k.level);
  const int shift = 3 * (kMaxDepth - level);
  const Bits mask = shift >= 3 * kMaxDepth ? Bits{0} : ~((Bits{1} << shift) - 1);
  return Key{k.bits & mask, static_cast<std::uint8_t>(level)};
}

std::vector<Key> ancestors(const Key& k) {
  std::vector<Key> out;
  out.reserve(k.level);
  for (int l = k.level - 1; l >= 0; --l) out.push_back(ancestor_at(k, l));
  return out;
}

bool is_ancestor(const Key& a, const Key& b) {
  return a.level < b.level && ancestor_at(b, a.level) == a;
}

Key cell_of_point(double x, double y, double z) {
  auto to_coord = [](double v) {
    double scaled = v * static_cast<double>(kGridSize);
    if (scaled < 0.0) scaled = 0.0;
    const auto max_cell = static_cast<double>(kGridSize - 1);
    if (scaled > max_cell) scaled = max_cell;
    return static_cast<Coord>(scaled);
  };
  return Key{interleave(to_coord(x), to_coord(y), to_coord(z)), kMaxDepth};
}

std::optional<Key> neighbor(const Key& k, int dx, int dy, int dz) {
  const auto a = anchor(k);
  const auto side = static_cast<std::int64_t>(cell_side(k));
  const std::int64_t limit = static_cast<std::int64_t>(kGridSize);
  const std::int64_t nx = static_cast<std::int64_t>(a[0]) + dx * side;
  const std::int64_t ny = static_cast<std::int64_t>(a[1]) + dy * side;
  const std::int64_t nz = static_cast<std::int64_t>(a[2]) + dz * side;
  if (nx < 0 || ny < 0 || nz < 0 || nx >= limit || ny >= limit || nz >= limit)
    return std::nullopt;
  return make_key(static_cast<Coord>(nx), static_cast<Coord>(ny),
                  static_cast<Coord>(nz), k.level);
}

std::vector<Key> colleagues(const Key& k) {
  std::vector<Key> out;
  out.reserve(26);
  for (int dx = -1; dx <= 1; ++dx)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dz = -1; dz <= 1; ++dz) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        if (auto n = neighbor(k, dx, dy, dz)) out.push_back(*n);
      }
  return out;
}

std::vector<Key> neighborhood(const Key& k) {
  std::vector<Key> out = colleagues(k);
  out.push_back(k);
  return out;
}

namespace {

/// Closed-interval extents per axis, in anchor cells: [lo, lo+side].
struct Extent {
  std::int64_t lo[3];
  std::int64_t hi[3];
};

Extent extent_of(const Key& k) {
  const auto a = anchor(k);
  const auto side = static_cast<std::int64_t>(cell_side(k));
  Extent e;
  for (int d = 0; d < 3; ++d) {
    e.lo[d] = static_cast<std::int64_t>(a[d]);
    e.hi[d] = e.lo[d] + side;
  }
  return e;
}

}  // namespace

bool adjacent(const Key& a, const Key& b) {
  const Extent ea = extent_of(a), eb = extent_of(b);
  bool touching = false;
  for (int d = 0; d < 3; ++d) {
    const std::int64_t lo = std::max(ea.lo[d], eb.lo[d]);
    const std::int64_t hi = std::min(ea.hi[d], eb.hi[d]);
    if (lo > hi) return false;  // separated along this axis
    if (lo == hi) touching = true;  // boundaries meet along this axis
  }
  return touching;  // interiors overlap in all axes otherwise
}

BoxGeometry box_geometry(const Key& k) {
  const auto a = anchor(k);
  const double inv = 1.0 / static_cast<double>(kGridSize);
  const double side = static_cast<double>(cell_side(k)) * inv;
  BoxGeometry g;
  g.half_width = 0.5 * side;
  for (int d = 0; d < 3; ++d)
    g.center[d] = static_cast<double>(a[d]) * inv + g.half_width;
  return g;
}

std::string to_string(const Key& k) {
  const auto a = anchor(k);
  const int shift = kMaxDepth - k.level;
  std::ostringstream os;
  os << "L" << static_cast<int>(k.level) << ":(" << (a[0] >> shift) << ","
     << (a[1] >> shift) << "," << (a[2] >> shift) << ")";
  return os.str();
}

}  // namespace pkifmm::morton
