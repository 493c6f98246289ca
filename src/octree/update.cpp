#include "octree/update.hpp"

#include <algorithm>
#include <unordered_map>

namespace pkifmm::octree {

using morton::Bits;
using morton::Key;

namespace {

/// One applied move: the point's index in the array and the Morton id
/// of the kMaxDepth cell it vacated.
struct AppliedMove {
  std::size_t index;
  Bits vacated;
};

/// Writes each move's position into `points` and re-keys the point.
/// A gid listed twice or not in `points`, or a coordinate outside
/// [0, 1) (NaN included: the Morton grid covers only the unit cube), is
/// a CheckFailure raised before any point is written. Returns one
/// AppliedMove per move, in order.
std::vector<AppliedMove> apply_moves(std::vector<PointRec>& points,
                                     std::span<const PointMove> moves) {
  {
    std::vector<std::uint64_t> gids;
    gids.reserve(moves.size());
    for (const auto& m : moves) gids.push_back(m.gid);
    std::sort(gids.begin(), gids.end());
    PKIFMM_CHECK_MSG(
        std::adjacent_find(gids.begin(), gids.end()) == gids.end(),
        "update_points: duplicate gid in moves");
  }
  std::unordered_map<std::uint64_t, std::size_t> by_gid;
  by_gid.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    by_gid.emplace(points[i].gid, i);

  std::vector<AppliedMove> applied;
  applied.reserve(moves.size());
  for (const auto& m : moves) {
    auto it = by_gid.find(m.gid);
    PKIFMM_CHECK_MSG(it != by_gid.end(),
                     "update_points: gid " << m.gid
                                           << " is not owned by this rank");
    for (int d = 0; d < 3; ++d)
      PKIFMM_CHECK_MSG(m.pos[d] >= 0.0 && m.pos[d] < 1.0,
                       "update_points: gid " << m.gid << " moves to pos["
                                             << d << "] = " << m.pos[d]
                                             << ", outside [0, 1)");
    applied.push_back({it->second, points[it->second].key_bits});
  }
  for (std::size_t j = 0; j < moves.size(); ++j) {
    PointRec& pt = points[applied[j].index];
    const PointMove& m = moves[j];
    for (int d = 0; d < 3; ++d) pt.pos[d] = m.pos[d];
    pt.key_bits = morton::cell_of_point(m.pos[0], m.pos[1], m.pos[2]).bits;
  }
  return applied;
}

}  // namespace

RepairResult repair_tree(comm::Comm& c, OwnedTree& tree,
                         std::span<const PointMove> moves,
                         const BuildParams& params) {
  const int p = c.size();
  RepairResult res;

  // Zero global churn: the tree is already canonical for these points.
  res.global_moves = c.allreduce_sum(static_cast<std::uint64_t>(moves.size()));
  if (res.global_moves == 0) {
    res.stats.kept_leaves = tree.leaves.size();
    return res;
  }

  // Apply the moves in place; remember both the vacated and the entered
  // kMaxDepth cells — those are where split decisions can change.
  std::vector<Bits> dirty_bits;
  dirty_bits.reserve(2 * moves.size());
  std::vector<char> touched(tree.points.size(), 0);
  for (const AppliedMove& a : apply_moves(tree.points, moves)) {
    dirty_bits.push_back(a.vacated);
    dirty_bits.push_back(tree.points[a.index].key_bits);
    touched[a.index] = 1;
  }

  // Interval migration: points whose new cell left this rank's
  // ownership interval go to the interval owner.
  std::vector<std::vector<PointRec>> outgoing(p);
  std::vector<char> departed(tree.points.size(), 0);
  for (std::size_t i = 0; i < tree.points.size(); ++i) {
    if (!touched[i]) continue;
    const Key cell{tree.points[i].key_bits, morton::kMaxDepth};
    const int dest = overlapping_ranks(cell, tree.splitters).first;
    if (dest == c.rank()) continue;
    outgoing[dest].push_back(tree.points[i]);
    departed[i] = 1;
    ++res.stats.migrated_points;
  }
  auto incoming = c.alltoallv(std::move(outgoing));

  // Merge: the untouched points are still sorted; sort only the churn.
  std::vector<PointRec> moved_pts;
  std::vector<PointRec> base;
  base.reserve(tree.points.size());
  for (std::size_t i = 0; i < tree.points.size(); ++i) {
    if (departed[i]) continue;
    (touched[i] ? moved_pts : base).push_back(tree.points[i]);
  }
  for (int r = 0; r < p; ++r) {
    for (const PointRec& pt : incoming[r]) {
      moved_pts.push_back(pt);
      dirty_bits.push_back(pt.key_bits);
    }
  }
  std::sort(moved_pts.begin(), moved_pts.end());
  std::vector<PointRec> merged(base.size() + moved_pts.size());
  std::merge(base.begin(), base.end(), moved_pts.begin(), moved_pts.end(),
             merged.begin());

  std::sort(dirty_bits.begin(), dirty_bits.end());
  dirty_bits.erase(std::unique(dirty_bits.begin(), dirty_bits.end()),
                   dirty_bits.end());

  // Refine against the previous tree: the census on the updated points
  // covers the remote count changes, which can only alter decisions in
  // straddling octants; together with the dirty cells they bound
  // everything the refinement must revisit.
  const std::vector<Key> prior_leaves = std::move(tree.leaves);
  const std::vector<std::size_t> prior_csr = std::move(tree.leaf_point_offset);
  const RefineResult ref = refine_tree(c, merged, tree, params,
                                       {prior_leaves, prior_csr, dirty_bits});
  res.stats.migrated_points += ref.straddlers_sent;
  // Straddler buckets carry another rank's churn this rank never saw
  // (that rank's moves were applied remotely), so their cells join the
  // dirty set for the report below.
  if (!ref.straddler_cells.empty()) {
    dirty_bits.insert(dirty_bits.end(), ref.straddler_cells.begin(),
                      ref.straddler_cells.end());
    std::sort(dirty_bits.begin(), dirty_bits.end());
  }

  // Dirty-leaf report for the LET delta: a leaf's bucket can only have
  // changed if the leaf is new to this rank, its population changed, or
  // a dirty Morton cell — the vacated or entered cell of some changed
  // point — lies inside its range. (The in-place move application above
  // makes a direct old-vs-new bucket comparison impossible, and
  // unnecessary: the dirty cells are exactly where buckets changed.)
  auto prior_of = [&](const Key& k) -> std::ptrdiff_t {
    auto it = std::lower_bound(prior_leaves.begin(), prior_leaves.end(), k);
    if (it == prior_leaves.end() || *it != k) return -1;
    return it - prior_leaves.begin();
  };
  auto dirty_in_range = [&](const Key& k) {
    auto it = std::lower_bound(dirty_bits.begin(), dirty_bits.end(),
                               morton::range_begin(k));
    return it != dirty_bits.end() && *it < morton::range_end(k);
  };
  for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
    if (ref.reused[i]) {
      ++res.stats.kept_leaves;
      continue;
    }
    const std::ptrdiff_t j = prior_of(tree.leaves[i]);
    bool same = j >= 0;
    if (same) {
      const std::size_t n = tree.leaf_point_offset[i + 1] -
                            tree.leaf_point_offset[i];
      const std::size_t jn = static_cast<std::size_t>(j);
      same = n == prior_csr[jn + 1] - prior_csr[jn] &&
             !dirty_in_range(tree.leaves[i]);
    }
    if (same) {
      ++res.stats.kept_leaves;
    } else {
      res.dirty_leaves.push_back(tree.leaves[i]);
      ++res.stats.dirty_leaves;
    }
  }
  return res;
}

}  // namespace pkifmm::octree
