#include "octree/partition.hpp"

#include <algorithm>

namespace pkifmm::octree {

using morton::Bits;
using morton::Key;

namespace {

/// Leaf header accompanying the migrated point stream. The padding is
/// named and zero, so no indeterminate byte is shipped.
struct LeafMsg {
  Bits bits;
  std::uint32_t npoints;
  std::uint8_t level;
  std::uint8_t pad[11] = {};
};
static_assert(std::is_trivially_copyable_v<LeafMsg>);
static_assert(sizeof(LeafMsg) == sizeof(LeafMsg::bits) +
                                     sizeof(LeafMsg::npoints) +
                                     sizeof(LeafMsg::level) +
                                     sizeof(LeafMsg::pad));

}  // namespace

Destinations weighted_destinations(comm::Comm& c,
                                   std::span<const double> leaf_weights) {
  const int p = c.size();
  auto per_rank = c.allgatherv(leaf_weights);

  // Every rank scans the same global vector in the same order, so the
  // floating-point prefix sums (and therefore the destinations) agree
  // exactly regardless of the current leaf distribution.
  double total = 0.0;
  std::uint64_t count_total = 0;
  for (const auto& v : per_rank) {
    for (double w : v) total += w;
    count_total += v.size();
  }

  Destinations out;
  out.dest.reserve(leaf_weights.size());
  double prefix = 0.0;
  std::uint64_t idx = 0;
  for (int r = 0; r < p; ++r) {
    for (double w : per_rank[r]) {
      int d;
      if (total > 0.0) {
        // Assign by the midpoint of the leaf's weight interval, so a
        // heavy leaf lands where most of its weight lies.
        d = static_cast<int>((prefix + 0.5 * w) / total * p);
      } else {
        d = static_cast<int>(idx * p / count_total);
      }
      d = std::clamp(d, 0, p - 1);
      if (r == c.rank()) out.dest.push_back(d);
      out.moved = out.moved || d != r;
      prefix += w;
      ++idx;
    }
  }
  return out;
}

OwnedTree migrate_leaves(comm::Comm& c, OwnedTree tree,
                         std::span<const int> dest) {
  const int p = c.size();
  PKIFMM_CHECK(dest.size() == tree.leaves.size());

  std::vector<std::vector<LeafMsg>> leaf_out(p);
  std::vector<std::vector<PointRec>> pts_out(p);
  for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
    const int d = dest[i];
    PKIFMM_CHECK(d >= 0 && d < p);
    const std::uint32_t npts = static_cast<std::uint32_t>(
        tree.leaf_point_offset[i + 1] - tree.leaf_point_offset[i]);
    leaf_out[d].push_back(
        LeafMsg{morton::range_begin(tree.leaves[i]), npts,
                static_cast<std::uint8_t>(tree.leaves[i].level)});
    pts_out[d].insert(pts_out[d].end(),
                      tree.points.begin() + tree.leaf_point_offset[i],
                      tree.points.begin() + tree.leaf_point_offset[i + 1]);
  }

  auto leaf_in = c.alltoallv(std::move(leaf_out));
  auto pts_in = c.alltoallv(std::move(pts_out));

  OwnedTree out;
  // Rank-ordered concatenation preserves the global Morton order
  // because destinations are monotone in the leaf order.
  for (int r = 0; r < p; ++r) {
    for (const LeafMsg& m : leaf_in[r])
      out.leaves.push_back(Key{m.bits, m.level});
    out.points.insert(out.points.end(), pts_in[r].begin(), pts_in[r].end());
  }
  PKIFMM_CHECK_MSG(
      std::is_sorted(out.leaves.begin(), out.leaves.end()),
      "migrated leaves are not in Morton order");

  out.leaf_point_offset = build_leaf_csr(out.leaves, out.points);
  out.splitters = recompute_splitters(c, out.leaves);
  return out;
}

OwnedTree load_balance(comm::Comm& c, OwnedTree tree,
                       const std::vector<double>& leaf_weights) {
  PKIFMM_CHECK(leaf_weights.size() == tree.leaves.size());
  return migrate_leaves(c, std::move(tree),
                        weighted_destinations(c, leaf_weights).dest);
}

}  // namespace pkifmm::octree
