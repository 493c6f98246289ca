#include "octree/build.hpp"

#include <algorithm>
#include <unordered_map>

#include "comm/sort.hpp"

namespace pkifmm::octree {

using morton::Bits;
using morton::Key;

namespace {

/// One past the largest Morton id (the end of the root's key range).
Bits key_space_end() { return morton::range_end(morton::root()); }

/// First local point index with key >= bits.
std::size_t lower_index(const std::vector<PointRec>& pts, Bits bits) {
  return static_cast<std::size_t>(
      std::lower_bound(pts.begin(), pts.end(), bits,
                       [](const PointRec& a, Bits b) { return a.key_bits < b; }) -
      pts.begin());
}

struct RankSpan {
  std::uint8_t has;
  Bits first;
  Bits last;
};
static_assert(std::is_trivially_copyable_v<RankSpan>);

/// Ensures no kMaxDepth cell's points span a rank boundary: each rank's
/// leading run of duplicate keys is donated to the lowest rank that
/// holds that key. Needed so the straddler logic below can reason at
/// cell granularity even with heavily duplicated points.
void close_key_runs(comm::Comm& c, std::vector<PointRec>& pts) {
  const int p = c.size();
  if (p == 1) return;
  RankSpan mine{static_cast<std::uint8_t>(!pts.empty()),
                pts.empty() ? Bits{0} : pts.front().key_bits,
                pts.empty() ? Bits{0} : pts.back().key_bits};
  auto spans = c.allgather(mine);

  std::vector<std::vector<PointRec>> outgoing(p);
  if (!pts.empty()) {
    const Bits k = pts.front().key_bits;
    int owner = c.rank();
    for (int r = 0; r < c.rank(); ++r) {
      if (spans[r].has && spans[r].last == k) {
        owner = r;
        break;
      }
    }
    if (owner != c.rank()) {
      const std::size_t run_end = lower_index(pts, k + 1);
      outgoing[owner].assign(pts.begin(), pts.begin() + run_end);
      pts.erase(pts.begin(), pts.begin() + run_end);
    }
  }
  auto incoming = c.alltoallv(std::move(outgoing));
  bool merged = false;
  for (int r = 0; r < p; ++r) {
    if (r == c.rank() || incoming[r].empty()) continue;
    pts.insert(pts.end(), incoming[r].begin(), incoming[r].end());
    merged = true;
  }
  if (merged) std::sort(pts.begin(), pts.end());
}

/// Splitters from each rank's first key (its first point or leaf):
/// rank k's interval starts there; an empty rank gets a degenerate
/// interval (backfilled from the right). Collective.
std::vector<Bits> splitters_from_firsts(comm::Comm& c, bool has, Bits first) {
  const int p = c.size();
  auto spans =
      c.allgather(RankSpan{static_cast<std::uint8_t>(has), first, Bits{0}});
  std::vector<Bits> s(p, 0);
  Bits next = key_space_end();
  for (int k = p - 1; k >= 1; --k) {
    s[k] = spans[k].has ? spans[k].first : next;
    next = s[k];
  }
  s[0] = 0;
  for (int k = 0; k + 1 < p; ++k)
    PKIFMM_CHECK_MSG(s[k] <= s[k + 1], "splitters not monotone");
  return s;
}

/// Per-octant global census for octants that may straddle rank
/// boundaries: ancestors (and self) of every boundary cell. Local
/// information cannot decide the split of these octants, so their
/// global counts (and the lowest contributing rank — the owner if the
/// octant becomes a leaf) are exchanged explicitly.
struct StraddlerTable {
  std::unordered_map<Key, std::size_t, morton::KeyHash> index;
  std::vector<std::uint64_t> global_count;
  std::vector<int> first_contributor;
};

/// Builds the census for `splitters`' boundary cells from the locally
/// held (Morton-sorted) points. Collective.
StraddlerTable build_straddler_table(comm::Comm& c,
                                     const std::vector<PointRec>& pts,
                                     const std::vector<Bits>& splitters,
                                     int max_level) {
  StraddlerTable table;
  const int p = c.size();

  std::vector<Key> keys;
  for (int k = 1; k < p; ++k) {
    if (splitters[k] == 0 || splitters[k] >= key_space_end()) continue;
    const Key cell{splitters[k], morton::kMaxDepth};
    for (int l = 0; l <= max_level; ++l) {
      const Key a = morton::ancestor_at(cell, l);
      if (!table.index.count(a)) {
        table.index.emplace(a, keys.size());
        keys.push_back(a);
      }
    }
  }

  std::vector<std::uint64_t> local(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i)
    local[i] = lower_index(pts, morton::range_end(keys[i])) -
               lower_index(pts, morton::range_begin(keys[i]));

  auto per_rank = c.allgatherv(std::span<const std::uint64_t>(local));
  table.global_count.assign(keys.size(), 0);
  table.first_contributor.assign(keys.size(), 0);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    int first = -1;
    std::uint64_t sum = 0;
    for (int r = 0; r < p; ++r) {
      PKIFMM_CHECK(per_rank[r].size() == keys.size());
      sum += per_rank[r][i];
      if (first < 0 && per_rank[r][i] > 0) first = r;
    }
    table.global_count[i] = sum;
    table.first_contributor[i] = first < 0 ? 0 : first;
  }
  return table;
}

/// Top-down refinement of the local point range. Census octants take
/// the exchanged global count, so every overlapped rank takes the same
/// split decision; a census leaf is emitted only by its owner (the
/// first contributing rank), the others queue its points for
/// migration. Any other octant with no dirty cell underneath reuses
/// the prior leaves instead of re-deriving them. The reuse is exact:
/// under a clean octant the point multiset is unchanged, so the
/// canonical decomposition (split iff global count > q) is the prior
/// one.
class Refiner {
 public:
  Refiner(const std::vector<PointRec>& pts, const StraddlerTable& table,
          const BuildParams& params, const PriorTree& prior, int my_rank,
          int nranks)
      : pts_(pts), table_(table), params_(params), prior_(prior),
        my_rank_(my_rank) {
    migrate_to.resize(nranks);
  }

  void run() { visit(morton::root(), 0, pts_.size()); }

  std::vector<Key> leaves;
  std::vector<char> reused;  ///< aligned with leaves
  std::vector<std::pair<std::size_t, std::size_t>> kept_ranges;
  std::vector<std::vector<PointRec>> migrate_to;

 private:
  bool clean(const Key& k) const {
    auto it = std::lower_bound(prior_.dirty.begin(), prior_.dirty.end(),
                               morton::range_begin(k));
    return it == prior_.dirty.end() || *it >= morton::range_end(k);
  }

  /// Reuses the prior leaves tiling range(k) when they provably still
  /// are the canonical decomposition: the subtree is clean, the first
  /// prior leaf in range is at or below k's level (a prior leaf *above*
  /// k would mean the shape changed around k), and the prior leaves
  /// account for exactly the current points of k.
  bool try_copy(const Key& k, std::size_t lo, std::size_t hi) {
    if (!clean(k)) return false;
    const Bits rb = morton::range_begin(k);
    const Bits re = morton::range_end(k);
    const auto& pl = prior_.leaves;
    auto first = std::lower_bound(
        pl.begin(), pl.end(), rb,
        [](const Key& l, Bits b) { return morton::range_begin(l) < b; });
    auto last = std::lower_bound(
        first, pl.end(), re,
        [](const Key& l, Bits b) { return morton::range_begin(l) < b; });
    if (first == last) return false;
    if (first->level < k.level) return false;
    const auto a = static_cast<std::size_t>(first - pl.begin());
    const auto b = static_cast<std::size_t>(last - pl.begin());
    const auto& csr = prior_.leaf_point_offset;
    if (csr[b] - csr[a] != hi - lo) return false;
    leaves.insert(leaves.end(), first, last);
    reused.insert(reused.end(), b - a, 1);
    kept_ranges.emplace_back(lo, hi);
    return true;
  }

  void visit(const Key& k, std::size_t lo, std::size_t hi) {
    std::uint64_t global = hi - lo;
    int owner = my_rank_;
    bool in_census = false;
    if (auto it = table_.index.find(k); it != table_.index.end()) {
      global = table_.global_count[it->second];
      owner = table_.first_contributor[it->second];
      in_census = true;
    }
    // An empty prior (the from-scratch build) has nothing to reuse.
    if (!in_census && !prior_.leaves.empty() && try_copy(k, lo, hi)) return;
    if (global <= static_cast<std::uint64_t>(params_.max_points_per_leaf) ||
        k.level >= params_.max_level) {
      if (hi == lo) return;  // no local points: some other rank emits it
      if (owner == my_rank_) {
        leaves.push_back(k);
        reused.push_back(0);
        kept_ranges.emplace_back(lo, hi);
      } else {
        auto& out = migrate_to[owner];
        out.insert(out.end(), pts_.begin() + lo, pts_.begin() + hi);
      }
      return;
    }
    // Split: children are contiguous in the sorted point array.
    std::size_t begin = lo;
    for (int i = 0; i < 8; ++i) {
      const Key ch = morton::child(k, i);
      const std::size_t end =
          i + 1 < 8 ? lower_index_in(begin, hi, morton::range_end(ch)) : hi;
      if (end > begin || table_.index.count(ch)) visit(ch, begin, end);
      begin = end;
    }
  }

  std::size_t lower_index_in(std::size_t lo, std::size_t hi, Bits bits) const {
    return static_cast<std::size_t>(
        std::lower_bound(pts_.begin() + lo, pts_.begin() + hi, bits,
                         [](const PointRec& a, Bits b) {
                           return a.key_bits < b;
                         }) -
        pts_.begin());
  }

  const std::vector<PointRec>& pts_;
  const StraddlerTable& table_;
  const BuildParams& params_;
  const PriorTree& prior_;
  int my_rank_;
};

}  // namespace

std::vector<std::size_t> build_leaf_csr(const std::vector<morton::Key>& leaves,
                                        const std::vector<PointRec>& points) {
  std::vector<std::size_t> offset(leaves.size() + 1, 0);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    offset[i] = pos;
    const Bits end = morton::range_end(leaves[i]);
    PKIFMM_CHECK_MSG(pos == points.size() ||
                         points[pos].key_bits >= morton::range_begin(leaves[i]),
                     "point before its leaf: leaf "
                         << morton::to_string(leaves[i]));
    while (pos < points.size() && points[pos].key_bits < end) ++pos;
  }
  offset[leaves.size()] = pos;
  PKIFMM_CHECK_MSG(pos == points.size(),
                   "points not covered by leaves: " << points.size() - pos
                                                    << " stragglers");
  return offset;
}

std::vector<Bits> recompute_splitters(comm::Comm& c,
                                      const std::vector<morton::Key>& leaves) {
  return splitters_from_firsts(
      c, !leaves.empty(),
      leaves.empty() ? Bits{0} : morton::range_begin(leaves.front()));
}

std::pair<int, int> overlapping_ranks(const Key& k,
                                      const std::vector<Bits>& splitters) {
  const Bits begin = morton::range_begin(k);
  const Bits last = morton::range_end(k) - 1;
  auto rank_of = [&](Bits b) {
    auto it = std::upper_bound(splitters.begin(), splitters.end(), b);
    return static_cast<int>(it - splitters.begin()) - 1;
  };
  return {rank_of(begin), rank_of(last)};
}

RefineResult refine_tree(comm::Comm& c, const std::vector<PointRec>& pts,
                         OwnedTree& tree, const BuildParams& params,
                         const PriorTree& prior) {
  const auto table =
      build_straddler_table(c, pts, tree.splitters, params.max_level);
  Refiner refiner(pts, table, params, prior, c.rank(), c.size());
  refiner.run();

  // Migrate points of straddling leaves to the leaf owner.
  RefineResult res;
  for (const auto& out : refiner.migrate_to) res.straddlers_sent += out.size();
  auto incoming = c.alltoallv(std::move(refiner.migrate_to));

  tree.leaves = std::move(refiner.leaves);
  tree.points.clear();
  for (const auto& [lo, hi] : refiner.kept_ranges)
    tree.points.insert(tree.points.end(), pts.begin() + lo, pts.begin() + hi);
  for (const auto& run : incoming) {
    tree.points.insert(tree.points.end(), run.begin(), run.end());
    for (const PointRec& pt : run) res.straddler_cells.push_back(pt.key_bits);
  }
  if (!res.straddler_cells.empty())
    std::sort(tree.points.begin(), tree.points.end());

  tree.leaf_point_offset = build_leaf_csr(tree.leaves, tree.points);
  tree.splitters = recompute_splitters(c, tree.leaves);

  // Global structural sanity: leaf ranges must be disjoint and sorted
  // across ranks.
  RankSpan mine{static_cast<std::uint8_t>(!tree.leaves.empty()),
                tree.leaves.empty() ? Bits{0}
                                    : morton::range_begin(tree.leaves.front()),
                tree.leaves.empty() ? Bits{0}
                                    : morton::range_end(tree.leaves.back())};
  auto spans = c.allgather(mine);
  Bits prev_end = 0;
  for (const auto& s : spans) {
    if (!s.has) continue;
    PKIFMM_CHECK_MSG(s.first >= prev_end, "leaf ranges overlap across ranks");
    prev_end = s.last;
  }
  res.reused = std::move(refiner.reused);
  return res;
}

OwnedTree build_distributed_tree(comm::Comm& c, std::vector<PointRec> points,
                                 const BuildParams& params) {
  PKIFMM_CHECK(params.max_points_per_leaf >= 1);
  PKIFMM_CHECK(params.max_level >= 1 && params.max_level <= morton::kMaxDepth);

  assign_morton_ids(points);
  comm::sample_sort(c, points, std::less<PointRec>{});
  comm::rebalance_equal(c, points);
  close_key_runs(c, points);

  OwnedTree tree;
  tree.splitters = splitters_from_firsts(
      c, !points.empty(), points.empty() ? Bits{0} : points.front().key_bits);
  (void)refine_tree(c, points, tree, params, PriorTree{});
  return tree;
}

}  // namespace pkifmm::octree
