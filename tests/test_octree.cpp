#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "comm/comm.hpp"
#include "octree/build.hpp"
#include "octree/let.hpp"
#include "octree/partition.hpp"
#include "octree/points.hpp"

namespace pkifmm::octree {
namespace {

using morton::Key;

// ---------------------------------------------------------------------
// Brute-force reference implementation of the global tree and the
// U/V/W/X list definitions straight from Table I of the paper. Used to
// validate the production (search-based) list construction.
// ---------------------------------------------------------------------

struct RefTree {
  std::vector<Key> nodes;  // leaves + all ancestors, sorted
  std::set<Key> leaves;

  static RefTree from_leaves(std::vector<Key> leaf_list) {
    RefTree t;
    std::set<Key> all;
    for (const Key& l : leaf_list) {
      t.leaves.insert(l);
      all.insert(l);
      for (const Key& a : morton::ancestors(l)) all.insert(a);
    }
    t.nodes.assign(all.begin(), all.end());
    return t;
  }

  bool is_leaf(const Key& k) const { return leaves.count(k) != 0; }
};

std::set<Key> ref_u(const RefTree& t, const Key& beta) {
  std::set<Key> out = {beta};
  for (const Key& alpha : t.nodes)
    if (t.is_leaf(alpha) && morton::adjacent(alpha, beta)) out.insert(alpha);
  return out;
}

std::set<Key> ref_v(const RefTree& t, const Key& beta) {
  std::set<Key> out;
  if (beta.level == 0) return out;
  const Key pb = morton::parent(beta);
  for (const Key& alpha : t.nodes) {
    if (alpha.level != beta.level || alpha == beta) continue;
    const Key pa = morton::parent(alpha);
    if (pa == pb) continue;                       // siblings are not in V
    if (!morton::adjacent(pa, pb)) continue;      // parent not a colleague
    if (morton::adjacent(alpha, beta)) continue;  // adjacent excluded
    out.insert(alpha);
  }
  return out;
}

std::set<Key> ref_w(const RefTree& t, const Key& beta) {
  std::set<Key> out;
  for (const Key& alpha : t.nodes) {
    if (alpha.level <= beta.level) continue;
    const Key a_at = morton::ancestor_at(alpha, beta.level);
    if (a_at == beta || !morton::adjacent(a_at, beta)) continue;
    if (!morton::adjacent(morton::parent(alpha), beta)) continue;
    if (morton::adjacent(alpha, beta)) continue;
    out.insert(alpha);
  }
  return out;
}

/// X by the literal dual: alpha in X(beta) iff beta in W(alpha).
std::set<Key> ref_x(const RefTree& t, const Key& beta) {
  std::set<Key> out;
  for (const Key& alpha : t.nodes) {
    if (!t.is_leaf(alpha)) continue;
    if (ref_w(t, alpha).count(beta)) out.insert(alpha);
  }
  return out;
}

std::set<Key> keys_of(const Let& let, std::span<const std::int32_t> idx) {
  std::set<Key> out;
  for (auto i : idx) out.insert(let.nodes[i].key);
  return out;
}

std::vector<PointRec> make_points(Distribution dist, std::uint64_t n, int rank,
                                  int p, std::uint64_t seed = 42) {
  return generate_points(dist, n, rank, p, 1, seed);
}

// ---------------------------------------------------------------------
// Point generation
// ---------------------------------------------------------------------

TEST(Points, RankSlicesCoverAllGids) {
  const int p = 5;
  std::set<std::uint64_t> gids;
  for (int r = 0; r < p; ++r)
    for (const auto& pt : make_points(Distribution::kUniform, 103, r, p))
      EXPECT_TRUE(gids.insert(pt.gid).second);
  EXPECT_EQ(gids.size(), 103u);
}

TEST(Points, Deterministic) {
  auto a = make_points(Distribution::kEllipsoid, 100, 1, 4);
  auto b = make_points(Distribution::kEllipsoid, 100, 1, 4);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].pos[0], b[i].pos[0]);
}

TEST(Points, InsideUnitCube) {
  for (auto dist : {Distribution::kUniform, Distribution::kEllipsoid}) {
    for (const auto& pt : make_points(dist, 2000, 0, 1))
      for (double c : pt.pos) {
        EXPECT_GE(c, 0.0);
        EXPECT_LT(c, 1.0);
      }
  }
}

TEST(Points, EllipsoidIsNonuniform) {
  // The nonuniform distribution must produce a much deeper tree than
  // the uniform one for the same N and q (the paper's motivation).
  auto run = [](Distribution dist) {
    comm::Fabric f(1);
    obs::Recorder rec;
    comm::CostTracker cost(rec);
    comm::Comm c(f, 0, 1, cost);
    BuildParams bp;
    bp.max_points_per_leaf = 20;
    auto tree = build_distributed_tree(c, make_points(dist, 4000, 0, 1), bp);
    int maxl = 0;
    for (const Key& l : tree.leaves) maxl = std::max(maxl, int(l.level));
    return maxl;
  };
  EXPECT_GE(run(Distribution::kEllipsoid), run(Distribution::kUniform) + 2);
}

// ---------------------------------------------------------------------
// Distributed tree construction
// ---------------------------------------------------------------------

void check_tree_invariants(const OwnedTree& tree, int q) {
  EXPECT_TRUE(std::is_sorted(tree.leaves.begin(), tree.leaves.end()));
  for (std::size_t i = 0; i + 1 < tree.leaves.size(); ++i)
    EXPECT_FALSE(morton::overlaps(tree.leaves[i], tree.leaves[i + 1]));
  ASSERT_EQ(tree.leaf_point_offset.size(), tree.leaves.size() + 1);
  for (std::size_t i = 0; i < tree.leaves.size(); ++i) {
    const auto count = tree.leaf_point_offset[i + 1] - tree.leaf_point_offset[i];
    EXPECT_GT(count, 0u);  // empty leaves are never materialized
    if (tree.leaves[i].level < morton::kMaxDepth) {
      EXPECT_LE(count, static_cast<std::size_t>(q));
    }
    for (std::size_t j = tree.leaf_point_offset[i];
         j < tree.leaf_point_offset[i + 1]; ++j)
      EXPECT_TRUE(morton::contains(
          tree.leaves[i], Key{tree.points[j].key_bits, morton::kMaxDepth}));
  }
}

TEST(Build, SingleRankInvariants) {
  comm::Runtime::run(1, [](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = 25;
    auto tree = build_distributed_tree(
        ctx.comm, make_points(Distribution::kUniform, 3000, 0, 1), bp);
    check_tree_invariants(tree, 25);
    std::size_t total = 0;
    for (std::size_t i = 0; i < tree.leaves.size(); ++i)
      total += tree.leaf_point_offset[i + 1] - tree.leaf_point_offset[i];
    EXPECT_EQ(total, 3000u);
  });
}

/// The distributed construction must produce exactly the same global
/// leaf set as the sequential one — the leaf set is a function of the
/// global point multiset only.
void expect_same_tree_as_sequential(Distribution dist, int p, int q,
                                    std::uint64_t n) {
  std::vector<Key> seq_leaves;
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = q;
    auto tree = build_distributed_tree(ctx.comm, make_points(dist, n, 0, 1), bp);
    seq_leaves = tree.leaves;
  });

  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = q;
    auto tree = build_distributed_tree(
        ctx.comm, make_points(dist, n, ctx.rank(), p), bp);
    check_tree_invariants(tree, q);
    auto all = ctx.comm.allgatherv_concat(std::span<const Key>(tree.leaves));
    ASSERT_EQ(all.size(), seq_leaves.size());
    EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
    for (std::size_t i = 0; i < all.size(); ++i) EXPECT_EQ(all[i], seq_leaves[i]);
  });
}

TEST(Build, DistributedMatchesSequentialUniform) {
  expect_same_tree_as_sequential(Distribution::kUniform, 4, 30, 2000);
}

TEST(Build, DistributedMatchesSequentialNonuniform) {
  expect_same_tree_as_sequential(Distribution::kEllipsoid, 4, 30, 2000);
}

TEST(Build, DistributedMatchesSequentialManyRanksSmallLeaves) {
  expect_same_tree_as_sequential(Distribution::kEllipsoid, 8, 5, 1500);
}

TEST(Build, DistributedMatchesSequentialCluster) {
  expect_same_tree_as_sequential(Distribution::kCluster, 4, 20, 2000);
}

TEST(Build, ClusterTreeIsDeeplyAdaptive) {
  comm::Runtime::run(1, [](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = 10;
    auto tree = build_distributed_tree(
        ctx.comm, make_points(Distribution::kCluster, 4000, 0, 1), bp);
    int minl = morton::kMaxDepth, maxl = 0;
    for (const Key& l : tree.leaves) {
      minl = std::min(minl, static_cast<int>(l.level));
      maxl = std::max(maxl, static_cast<int>(l.level));
    }
    // Dense core forces deep refinement; sparse halo stays coarse.
    EXPECT_GE(maxl - minl, 4);
  });
}

TEST(Build, AllPointsIdenticalForcesMaxLevelLeaf) {
  comm::Runtime::run(2, [](comm::RankCtx& ctx) {
    std::vector<PointRec> pts(50);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      pts[i].pos[0] = pts[i].pos[1] = pts[i].pos[2] = 0.3;
      pts[i].gid = ctx.rank() * 50 + i;
    }
    BuildParams bp;
    bp.max_points_per_leaf = 4;
    bp.max_level = 6;
    auto tree = build_distributed_tree(ctx.comm, pts, bp);
    const auto nleaves = ctx.comm.allreduce_sum(
        static_cast<std::uint64_t>(tree.leaves.size()));
    EXPECT_EQ(nleaves, 1u);  // one forced leaf containing all duplicates
    if (!tree.leaves.empty()) {
      EXPECT_EQ(tree.leaves[0].level, 6);
      EXPECT_EQ(tree.points.size(), 100u);
    }
  });
}

TEST(Build, FewPointsManyRanks) {
  // More ranks than points: some ranks own nothing; must not crash.
  comm::Runtime::run(8, [](comm::RankCtx& ctx) {
    auto pts = make_points(Distribution::kUniform, 5, ctx.rank(), 8);
    BuildParams bp;
    bp.max_points_per_leaf = 1;
    auto tree = build_distributed_tree(ctx.comm, pts, bp);
    const auto total = ctx.comm.allreduce_sum(
        static_cast<std::uint64_t>(tree.points.size()));
    EXPECT_EQ(total, 5u);
  });
}

TEST(Build, SplittersPartitionLeaves) {
  comm::Runtime::run(4, [](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = 20;
    auto tree = build_distributed_tree(
        ctx.comm, make_points(Distribution::kUniform, 2000, ctx.rank(), 4), bp);
    ASSERT_EQ(tree.splitters.size(), 4u);
    EXPECT_EQ(tree.splitters[0], morton::Bits{0});
    for (const Key& l : tree.leaves) {
      EXPECT_GE(morton::range_begin(l), tree.splitters[ctx.rank()]);
      if (ctx.rank() + 1 < 4) {
        EXPECT_LT(morton::range_begin(l), tree.splitters[ctx.rank() + 1]);
      }
    }
  });
}

TEST(Build, OverlappingRanksLookup) {
  std::vector<morton::Bits> s = {0, 100, 100, 500};
  const Key probe{50, morton::kMaxDepth};
  auto [lo, hi] = overlapping_ranks(probe, s);
  EXPECT_EQ(lo, 0);
  EXPECT_EQ(hi, 0);
  // An octant spanning [0, end) overlaps all ranks.
  auto [l2, h2] = overlapping_ranks(morton::root(), s);
  EXPECT_EQ(l2, 0);
  EXPECT_EQ(h2, 3);
}

// ---------------------------------------------------------------------
// LET + interaction lists
// ---------------------------------------------------------------------

struct LetFixture {
  Let let;
  RefTree ref;
};

LetFixture build_sequential_let(Distribution dist, std::uint64_t n, int q) {
  LetFixture fx;
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = q;
    auto tree =
        build_distributed_tree(ctx.comm, make_points(dist, n, 0, 1), bp);
    fx.ref = RefTree::from_leaves(tree.leaves);
    fx.let = build_let(ctx.comm, tree);
    build_interaction_lists(fx.let);
  });
  return fx;
}

TEST(Let, SequentialLetIsWholeTree) {
  auto fx = build_sequential_let(Distribution::kUniform, 800, 20);
  EXPECT_EQ(fx.let.nodes.size(), fx.ref.nodes.size());
  for (const LetNode& n : fx.let.nodes) {
    EXPECT_TRUE(n.target);
    EXPECT_EQ(n.global_leaf, fx.ref.is_leaf(n.key));
  }
}

TEST(Let, TreeLinksAreConsistent) {
  auto fx = build_sequential_let(Distribution::kEllipsoid, 800, 20);
  const Let& let = fx.let;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    const LetNode& n = let.nodes[i];
    if (n.parent >= 0) {
      EXPECT_EQ(let.nodes[n.parent].key, morton::parent(n.key));
      EXPECT_EQ(let.nodes[n.parent].child[morton::child_index(n.key)],
                static_cast<std::int32_t>(i));
    } else {
      EXPECT_EQ(n.key.level, 0);
    }
  }
}

void expect_lists_match_reference(const LetFixture& fx) {
  const Let& let = fx.let;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    const LetNode& n = let.nodes[i];
    if (n.global_leaf) {
      EXPECT_EQ(keys_of(let, let.u.of(i)), ref_u(fx.ref, n.key))
          << "U mismatch at " << morton::to_string(n.key);
      EXPECT_EQ(keys_of(let, let.w.of(i)), ref_w(fx.ref, n.key))
          << "W mismatch at " << morton::to_string(n.key);
    }
    EXPECT_EQ(keys_of(let, let.v.of(i)), ref_v(fx.ref, n.key))
        << "V mismatch at " << morton::to_string(n.key);
    EXPECT_EQ(keys_of(let, let.x.of(i)), ref_x(fx.ref, n.key))
        << "X mismatch at " << morton::to_string(n.key);
  }
}

TEST(Lists, MatchBruteForceUniform) {
  expect_lists_match_reference(
      build_sequential_let(Distribution::kUniform, 600, 20));
}

TEST(Lists, MatchBruteForceNonuniform) {
  expect_lists_match_reference(
      build_sequential_let(Distribution::kEllipsoid, 600, 10));
}

TEST(Lists, MatchBruteForceTinyLeaves) {
  expect_lists_match_reference(
      build_sequential_let(Distribution::kEllipsoid, 200, 1));
}

TEST(Lists, UAndVAreSymmetricSequential) {
  auto fx = build_sequential_let(Distribution::kUniform, 600, 15);
  const Let& let = fx.let;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    for (auto j : let.v.of(i)) {
      const auto back = let.v.of(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(),
                            static_cast<std::int32_t>(i)) != back.end());
    }
    if (!let.nodes[i].global_leaf) continue;
    for (auto j : let.u.of(i)) {
      const auto back = let.u.of(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(),
                            static_cast<std::int32_t>(i)) != back.end());
    }
  }
}

TEST(Lists, WXDuality) {
  auto fx = build_sequential_let(Distribution::kEllipsoid, 500, 8);
  const Let& let = fx.let;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    if (!let.nodes[i].global_leaf) continue;
    for (auto j : let.w.of(i)) {
      const auto back = let.x.of(j);
      EXPECT_TRUE(std::find(back.begin(), back.end(),
                            static_cast<std::int32_t>(i)) != back.end())
          << "alpha in W(beta) must imply beta in X(alpha)";
    }
  }
}

/// THE core FMM-lists invariant: for every target leaf beta, every
/// source leaf gamma is covered exactly once by the decomposition
///   gamma in U(beta)
///   OR gamma under some alpha in W(beta)
///   OR gamma in X(A) for some A in {beta}+ancestors
///   OR gamma under some alpha in V(A) for some A in {beta}+ancestors.
void expect_exact_source_coverage(const LetFixture& fx) {
  const Let& let = fx.let;
  std::vector<std::int32_t> leaf_nodes;
  for (std::size_t i = 0; i < let.nodes.size(); ++i)
    if (let.nodes[i].global_leaf) leaf_nodes.push_back(i);

  for (auto bi : leaf_nodes) {
    std::map<Key, int> cover;
    for (auto li : leaf_nodes) cover[let.nodes[li].key] = 0;

    for (auto ui : let.u.of(bi)) cover[let.nodes[ui].key] += 1;
    for (auto wi : let.w.of(bi)) {
      const Key& alpha = let.nodes[wi].key;
      for (auto li : leaf_nodes)
        if (morton::contains(alpha, let.nodes[li].key))
          cover[let.nodes[li].key] += 1;
    }
    for (std::int32_t a = bi; a >= 0; a = let.nodes[a].parent) {
      for (auto xi : let.x.of(a)) cover[let.nodes[xi].key] += 1;
      for (auto vi : let.v.of(a)) {
        const Key& alpha = let.nodes[vi].key;
        for (auto li : leaf_nodes)
          if (morton::contains(alpha, let.nodes[li].key))
            cover[let.nodes[li].key] += 1;
      }
    }
    for (const auto& [gamma, count] : cover)
      ASSERT_EQ(count, 1) << "target " << morton::to_string(let.nodes[bi].key)
                          << " covers source " << morton::to_string(gamma)
                          << " " << count << " times";
  }
}

TEST(Lists, ExactSourceCoverageUniform) {
  expect_exact_source_coverage(
      build_sequential_let(Distribution::kUniform, 400, 15));
}

TEST(Lists, ExactSourceCoverageNonuniform) {
  expect_exact_source_coverage(
      build_sequential_let(Distribution::kEllipsoid, 400, 6));
}

TEST(Lists, ExactSourceCoverageDeepTree) {
  expect_exact_source_coverage(
      build_sequential_let(Distribution::kEllipsoid, 150, 1));
}

/// Distributed LET must contain, for every owned target, the exact
/// interaction lists that the full (gathered) tree implies.
void expect_distributed_let_complete(Distribution dist, int p, int q,
                                     std::uint64_t n) {
  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = q;
    auto tree = build_distributed_tree(
        ctx.comm, make_points(dist, n, ctx.rank(), p), bp);
    auto global_leaves =
        ctx.comm.allgatherv_concat(std::span<const Key>(tree.leaves));
    const RefTree ref = RefTree::from_leaves(global_leaves);

    Let let = build_let(ctx.comm, tree);
    build_interaction_lists(let);

    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      const LetNode& node = let.nodes[i];
      if (!node.target) continue;
      if (node.owned && node.global_leaf) {
        EXPECT_EQ(keys_of(let, let.u.of(i)), ref_u(ref, node.key));
        EXPECT_EQ(keys_of(let, let.w.of(i)), ref_w(ref, node.key));
        // Ghost U leaves must carry their points.
        for (auto ui : let.u.of(i))
          EXPECT_GT(let.nodes[ui].point_count, 0u);
      }
      EXPECT_EQ(keys_of(let, let.v.of(i)), ref_v(ref, node.key));
      EXPECT_EQ(keys_of(let, let.x.of(i)), ref_x(ref, node.key));
      for (auto xi : let.x.of(i))
        EXPECT_GT(let.nodes[xi].point_count, 0u);
    }
  });
}

TEST(Let, DistributedCompleteUniform4) {
  expect_distributed_let_complete(Distribution::kUniform, 4, 20, 1200);
}

TEST(Let, DistributedCompleteNonuniform4) {
  expect_distributed_let_complete(Distribution::kEllipsoid, 4, 10, 1000);
}

TEST(Let, DistributedCompleteNonuniform8) {
  expect_distributed_let_complete(Distribution::kEllipsoid, 8, 6, 800);
}

TEST(Let, DistributedCompleteCluster4) {
  expect_distributed_let_complete(Distribution::kCluster, 4, 12, 1000);
}

TEST(Lists, ExactSourceCoverageCluster) {
  expect_exact_source_coverage(
      build_sequential_let(Distribution::kCluster, 300, 4));
}

TEST(Let, OwnedPointTotalsPreserved) {
  comm::Runtime::run(4, [](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = 20;
    auto tree = build_distributed_tree(
        ctx.comm, make_points(Distribution::kUniform, 2000, ctx.rank(), 4), bp);
    Let let = build_let(ctx.comm, tree);
    std::uint64_t owned_pts = 0;
    for (const LetNode& n : let.nodes)
      if (n.owned) owned_pts += n.point_count;
    EXPECT_EQ(ctx.comm.allreduce_sum(owned_pts), 2000u);
  });
}

TEST(Let, RefreshGhostDensitiesPropagates) {
  comm::Runtime::run(4, [](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = 10;
    auto tree = build_distributed_tree(
        ctx.comm, make_points(Distribution::kUniform, 800, ctx.rank(), 4), bp);
    Let let = build_let(ctx.comm, tree);

    // New densities: a function of gid, applied to owned points only.
    for (LetNode& n : let.nodes) {
      if (!n.owned) continue;
      for (PointRec& pt : let.points_of(n))
        pt.den[0] = static_cast<double>(pt.gid) * 2.0 + 1.0;
    }
    refresh_ghost_densities(ctx.comm, let);

    // Every point copy (ghost or owned) now reflects the function.
    for (const LetNode& n : let.nodes) {
      if (!n.global_leaf) continue;
      for (const PointRec& pt : let.points_of(n))
        EXPECT_DOUBLE_EQ(pt.den[0], static_cast<double>(pt.gid) * 2.0 + 1.0);
    }
  });
}

// ---------------------------------------------------------------------
// Load balancing
// ---------------------------------------------------------------------

TEST(LoadBalance, EqualizesSkewedWeights) {
  comm::Runtime::run(4, [](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = 10;
    auto tree = build_distributed_tree(
        ctx.comm,
        make_points(Distribution::kEllipsoid, 2000, ctx.rank(), 4), bp);

    // Synthetic skew: leaves in the lower half of the cube are 20x
    // heavier.
    std::vector<double> w(tree.leaves.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      const auto g = morton::box_geometry(tree.leaves[i]);
      w[i] = g.center[2] < 0.5 ? 20.0 : 1.0;
    }
    double my_w = 0;
    for (double x : w) my_w += x;
    const double total = ctx.comm.allreduce_sum(my_w);

    auto balanced = load_balance(ctx.comm, tree, w);

    double new_w = 0;
    for (const Key& l : balanced.leaves) {
      const auto g = morton::box_geometry(l);
      new_w += g.center[2] < 0.5 ? 20.0 : 1.0;
    }
    EXPECT_LT(new_w, 1.6 * total / 4);
    check_tree_invariants(balanced, 10);

    // Global leaf set unchanged.
    auto before = ctx.comm.allgatherv_concat(std::span<const Key>(tree.leaves));
    auto after =
        ctx.comm.allgatherv_concat(std::span<const Key>(balanced.leaves));
    EXPECT_EQ(before, after);
  });
}

TEST(LoadBalance, ZeroWeightsFallBackToEqualCounts) {
  comm::Runtime::run(3, [](comm::RankCtx& ctx) {
    // All 300 leaves on rank 1, all weightless: equal leaf counts, in
    // global order.
    const std::vector<double> w(ctx.rank() == 1 ? 300 : 0, 0.0);
    const auto dest = weighted_destinations(ctx.comm, w).dest;
    ASSERT_EQ(dest.size(), w.size());
    std::vector<std::uint64_t> per_rank(3, 0);
    for (int d : dest) ++per_rank[d];
    const auto total = ctx.comm.allreduce(
        std::span<const std::uint64_t>(per_rank),
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(total, (std::vector<std::uint64_t>{100, 100, 100}));
    EXPECT_TRUE(std::is_sorted(dest.begin(), dest.end()));
  });
}

TEST(LoadBalance, MovedFlagIsTheSameOnEveryRank) {
  comm::Runtime::run(3, [](comm::RankCtx& ctx) {
    // Ten unit-weight leaves per rank: each leaf's destination is the
    // rank that holds it.
    const auto stay =
        weighted_destinations(ctx.comm, std::vector<double>(10, 1.0));
    EXPECT_FALSE(stay.moved);
    for (int d : stay.dest) EXPECT_EQ(d, ctx.rank());

    // Rank 2's last leaf weighs 30: rank 1's leaves go to rank 0, so
    // the flag is set on every rank, rank 0 included, none of whose
    // own leaves moves.
    std::vector<double> w(10, 1.0);
    if (ctx.rank() == 2) w.back() = 30.0;
    const auto shift = weighted_destinations(ctx.comm, w);
    EXPECT_TRUE(shift.moved);
    if (ctx.rank() < 2) {
      for (int d : shift.dest) EXPECT_EQ(d, 0);
    }
  });
  comm::Runtime::run(1, [](comm::RankCtx& ctx) {
    EXPECT_FALSE(
        weighted_destinations(ctx.comm, std::vector<double>{1.0, 5.0}).moved);
  });
}

TEST(LoadBalance, LetRebuildAfterMigrationIsComplete) {
  comm::Runtime::run(4, [](comm::RankCtx& ctx) {
    BuildParams bp;
    bp.max_points_per_leaf = 10;
    auto tree = build_distributed_tree(
        ctx.comm,
        make_points(Distribution::kEllipsoid, 1000, ctx.rank(), 4), bp);
    std::vector<double> w(tree.leaves.size(), 1.0);
    // Weight by point count (a realistic proxy).
    for (std::size_t i = 0; i < w.size(); ++i)
      w[i] = static_cast<double>(tree.leaf_point_offset[i + 1] -
                                 tree.leaf_point_offset[i]);
    auto balanced = load_balance(ctx.comm, tree, w);
    auto global_leaves =
        ctx.comm.allgatherv_concat(std::span<const Key>(balanced.leaves));
    const RefTree ref = RefTree::from_leaves(global_leaves);

    Let let = build_let(ctx.comm, balanced);
    build_interaction_lists(let);
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      const LetNode& node = let.nodes[i];
      if (!(node.owned && node.global_leaf)) continue;
      EXPECT_EQ(keys_of(let, let.u.of(i)), ref_u(ref, node.key));
    }
  });
}

}  // namespace
}  // namespace pkifmm::octree
