/// Property tests for the incremental setup path (ROADMAP item 3, see
/// octree/update.hpp and DESIGN.md "Incremental tree/LET repair").
///
/// The contract is strict: after any sequence of update_points calls,
/// the tree, the LET (nodes, points, splitters, interaction lists,
/// ghost subscriptions) and the evaluated potentials must be BITWISE
/// identical to a from-scratch setup() on the same global point set,
/// and the evaluation must account exactly the same model flops. The
/// sweep pins this across kernels x distributions x churn rates x rank
/// counts; further tests cover a step in which no point moves, the
/// repartition that keeps the partition canonical, and setup() itself,
/// which runs the same repair pipeline from an empty state.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/fmm.hpp"
#include "core/timestep.hpp"
#include "kernels/kernel.hpp"

namespace pkifmm::core {
namespace {

using octree::Distribution;

void put_bits(std::ostringstream& os, morton::Bits b) {
  os << static_cast<std::uint64_t>(b >> 64) << ':'
     << static_cast<std::uint64_t>(b) << ',';
}

/// Bitwise-faithful serialization of everything a Let holds. Two
/// digests compare equal iff the structures are bitwise identical
/// (doubles go through hexfloat).
std::string let_digest(const octree::Let& let) {
  std::ostringstream os;
  os << std::hexfloat;
  for (const octree::LetNode& n : let.nodes) {
    put_bits(os, n.key.bits);
    os << n.key.level << ',' << n.parent << ',' << n.global_leaf << n.owned
       << n.target << ',' << n.point_begin << ',' << n.point_count << ','
       << n.target_count << ';';
  }
  os << '|';
  for (const octree::PointRec& pt : let.points) {
    os << pt.gid << ',' << int(pt.kind) << ',';
    put_bits(os, pt.key_bits);
    for (double v : pt.pos) os << v << ',';
    for (double v : pt.den) os << v << ',';
    os << ';';
  }
  os << '|';
  for (morton::Bits b : let.splitters) put_bits(os, b);
  for (const octree::ListSet* ls : {&let.u, &let.v, &let.w, &let.x}) {
    os << '|';
    for (std::int32_t o : ls->offset) os << o << ',';
    os << '/';
    for (std::int32_t i : ls->items) os << i << ',';
  }
  os << '|';
  for (const auto& [node, rank] : let.ghost_subscriptions)
    os << node << ':' << rank << ',';
  return os.str();
}

struct PtSnap {
  double pos[3];
  double den[octree::kMaxDensityDim];
  std::uint8_t kind;
};

struct StepSnap {
  std::map<std::uint64_t, std::vector<double>> pot;  ///< gid -> tdim values
  std::map<std::uint64_t, PtSnap> points;            ///< global point set
  std::vector<std::string> let_digest;               ///< per rank
};

struct Case {
  const char* kernel;
  Distribution dist;
  double churn;
  int p;
};

const char* dist_name(Distribution d) {
  return d == Distribution::kUniform     ? "uniform"
         : d == Distribution::kEllipsoid ? "ellipsoid"
                                         : "cluster";
}

/// gtest appends the printed parameter to each listed test name;
/// without this it prints Case's raw bytes, which begin with the
/// kernel name's address and so change from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.kernel << ' ' << dist_name(c.dist) << " churn " << c.churn
      << " p" << c.p;
}

FmmOptions small_opts() {
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 20;
  return opts;
}

void snapshot_step(const ParallelFmm& fmm, const ParallelFmm::Result& res,
                   int rank, int td, std::mutex& mu, StepSnap& snap) {
  std::lock_guard<std::mutex> lock(mu);
  for (std::size_t i = 0; i < res.gids.size(); ++i)
    snap.pot[res.gids[i]] =
        std::vector<double>(res.potentials.begin() + i * td,
                            res.potentials.begin() + (i + 1) * td);
  for (const octree::LetNode& node : fmm.let().nodes) {
    if (!(node.owned && node.global_leaf)) continue;
    for (const octree::PointRec& pt : fmm.let().points_of(node)) {
      PtSnap ps;
      std::memcpy(ps.pos, pt.pos, sizeof ps.pos);
      std::memcpy(ps.den, pt.den, sizeof ps.den);
      ps.kind = pt.kind;
      snap.points[pt.gid] = ps;
    }
  }
  snap.let_digest[rank] = let_digest(fmm.let());
}

/// The driver both runs share: a swirl with a vertical shear so moved
/// points cross octant boundaries at several depths.
VelocityFn swirl() {
  return [](std::uint64_t, const std::array<double, 3>& x, double) {
    return std::array<double, 3>{-(x[1] - 0.5), x[0] - 0.5,
                                 0.4 * (x[0] - 0.5)};
  };
}

constexpr int kSteps = 3;

/// Incremental run: one ParallelFmm, kSteps update_points steps, a
/// snapshot (potentials + global points + LET digests) after setup and
/// after every step. Also returns the per-rank eval.* flop totals.
std::vector<StepSnap> run_incremental(
    const kernels::Kernel& kernel, const Case& c, const FmmOptions& opts,
    std::vector<std::map<std::string, std::uint64_t>>* eval_flops,
    std::vector<std::vector<ParallelFmm::UpdateStats>>* stats_out = nullptr) {
  const Tables tables(kernel, opts);
  std::vector<StepSnap> snaps(kSteps + 1);
  for (StepSnap& s : snaps) s.let_digest.resize(c.p);
  if (stats_out) stats_out->assign(c.p, {});
  std::mutex mu;
  auto reports = comm::Runtime::run(c.p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(c.dist, 800, ctx.rank(), c.p,
                                       tables.sdim(), 91);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    TimeStepOptions to;
    to.dt = 0.04;
    to.move_fraction = c.churn;
    TimeStepper ts(fmm, swirl(), to);
    for (int s = 0; s <= kSteps; ++s) {
      if (s > 0) {
        ts.step();
        if (stats_out) {
          std::lock_guard<std::mutex> lock(mu);
          (*stats_out)[ctx.rank()].push_back(fmm.last_update_stats());
        }
      }
      const auto res = fmm.evaluate();
      snapshot_step(fmm, res, ctx.rank(), tables.tdim(), mu, snaps[s]);
    }
  });
  if (eval_flops) {
    eval_flops->assign(c.p, {});
    for (int r = 0; r < c.p; ++r)
      for (const auto& [name, flops] : reports[r].counters)
        if (name.starts_with("flops.eval."))
          (*eval_flops)[r][name.substr(6)] =
              static_cast<std::uint64_t>(flops);
  }
  return snaps;
}

/// From-scratch reference for one step: a fresh ParallelFmm setup on
/// the snapshotted global point set (sliced across ranks in gid order —
/// the build sample-sorts, so the feed partition is irrelevant).
StepSnap run_from_scratch(
    const kernels::Kernel& kernel, const Case& c, const FmmOptions& opts,
    const std::map<std::uint64_t, PtSnap>& points,
    std::vector<std::map<std::string, std::uint64_t>>* eval_flops) {
  const Tables tables(kernel, opts);
  std::vector<octree::PointRec> all;
  all.reserve(points.size());
  for (const auto& [gid, ps] : points) {
    octree::PointRec pt{};
    std::memcpy(pt.pos, ps.pos, sizeof pt.pos);
    std::memcpy(pt.den, ps.den, sizeof pt.den);
    pt.gid = gid;
    pt.kind = ps.kind;
    all.push_back(pt);
  }
  StepSnap snap;
  snap.let_digest.resize(c.p);
  std::mutex mu;
  auto reports = comm::Runtime::run(c.p, [&](comm::RankCtx& ctx) {
    const std::size_t lo = all.size() * ctx.rank() / c.p;
    const std::size_t hi = all.size() * (ctx.rank() + 1) / c.p;
    std::vector<octree::PointRec> mine(all.begin() + lo, all.begin() + hi);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(mine));
    const auto res = fmm.evaluate();
    snapshot_step(fmm, res, ctx.rank(), tables.tdim(), mu, snap);
  });
  if (eval_flops) {
    for (int r = 0; r < c.p; ++r)
      for (const auto& [name, flops] : reports[r].counters)
        if (name.starts_with("flops.eval."))
          (*eval_flops)[r][name.substr(6)] +=
              static_cast<std::uint64_t>(flops);
  }
  return snap;
}

void expect_bitwise_equal(const StepSnap& a, const StepSnap& b, int step,
                          int p) {
  ASSERT_EQ(a.pot.size(), b.pot.size()) << "step " << step;
  ASSERT_GT(a.pot.size(), 0u);
  for (const auto& [gid, comps] : a.pot) {
    const auto it = b.pot.find(gid);
    ASSERT_NE(it, b.pot.end()) << "step " << step << " gid " << gid;
    ASSERT_EQ(comps.size(), it->second.size());
    for (std::size_t k = 0; k < comps.size(); ++k)
      EXPECT_EQ(comps[k], it->second[k])
          << "step " << step << " gid " << gid << " component " << k;
  }
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(a.let_digest[r], b.let_digest[r])
        << "step " << step << " rank " << r << ": LET diverged";
}

class IncrementalSetupParity : public ::testing::TestWithParam<Case> {};

TEST_P(IncrementalSetupParity, MatchesFromScratchBitwise) {
  const Case c = GetParam();
  auto kernel = kernels::make_kernel(c.kernel);
  const FmmOptions opts = small_opts();

  std::vector<std::map<std::string, std::uint64_t>> incr_flops;
  const auto snaps = run_incremental(*kernel, c, opts, &incr_flops);

  // Each step's global point set must actually differ from the last
  // (otherwise the sweep tests nothing).
  for (int s = 1; s <= kSteps; ++s) {
    bool any_moved = false;
    for (const auto& [gid, ps] : snaps[s].points) {
      const auto it = snaps[s - 1].points.find(gid);
      ASSERT_NE(it, snaps[s - 1].points.end());
      if (std::memcmp(ps.pos, it->second.pos, sizeof ps.pos) != 0)
        any_moved = true;
    }
    EXPECT_TRUE(any_moved) << "step " << s << ": churn selected no points";
  }

  std::vector<std::map<std::string, std::uint64_t>> ref_flops(c.p);
  for (int s = 0; s <= kSteps; ++s) {
    const StepSnap ref =
        run_from_scratch(*kernel, c, opts, snaps[s].points, &ref_flops);
    expect_bitwise_equal(snaps[s], ref, s, c.p);
  }

  // Exact flop equality, phase by phase and rank by rank, summed over
  // the whole trajectory (each step matched bitwise above, so equal
  // totals pin equal per-step accounting).
  for (int r = 0; r < c.p; ++r) {
    ASSERT_EQ(incr_flops[r].size(), ref_flops[r].size()) << "rank " << r;
    for (const auto& [phase, flops] : incr_flops[r])
      EXPECT_EQ(flops, ref_flops[r][phase]) << "rank " << r << " " << phase;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalSetupParity,
    ::testing::Values(Case{"laplace", Distribution::kUniform, 0.01, 2},
                      Case{"laplace", Distribution::kEllipsoid, 0.05, 4},
                      Case{"laplace", Distribution::kCluster, 0.5, 2},
                      Case{"laplace", Distribution::kEllipsoid, 0.002, 1},
                      Case{"stokes", Distribution::kEllipsoid, 0.01, 2}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      return std::string(c.kernel) + "_" + dist_name(c.dist) + "_churn" +
             std::to_string(int(c.churn * 1000)) + "_p" +
             std::to_string(c.p);
    });

/// A step in which no rank moves a point (update_points is collective,
/// with possibly empty moves) leaves the LET and the potentials bitwise
/// unchanged and re-ships, re-buckets and re-lists nothing: after the
/// tree repair's churn allreduce it keeps every leaf and every list,
/// and sends nothing in setup.incr.let or setup.incr.balance.
TEST(IncrementalEmptyStep, LeavesLetAndPotentialsUnchanged) {
  auto kernel = kernels::make_kernel("laplace");
  const Tables tables(*kernel, small_opts());
  for (const int p : {1, 2, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    StepSnap before, after;
    before.let_digest.resize(p);
    after.let_digest.resize(p);
    std::vector<ParallelFmm::UpdateStats> stats(p);
    std::vector<std::size_t> leaves(p), targets(p);
    std::mutex mu;
    const auto reports = comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
      ParallelFmm fmm(ctx, tables);
      fmm.setup(octree::generate_points(Distribution::kEllipsoid, 4000,
                                        ctx.rank(), p, tables.sdim(), 91));
      snapshot_step(fmm, fmm.evaluate(), ctx.rank(), tables.tdim(), mu,
                    before);
      for (const octree::LetNode& node : fmm.let().nodes) {
        leaves[ctx.rank()] += node.owned && node.global_leaf;
        targets[ctx.rank()] += node.target;
      }
      fmm.update_points({});
      stats[ctx.rank()] = fmm.last_update_stats();
      snapshot_step(fmm, fmm.evaluate(), ctx.rank(), tables.tdim(), mu,
                    after);
    });
    expect_bitwise_equal(before, after, 1, p);
    for (int r = 0; r < p; ++r) {
      const ParallelFmm::UpdateStats& st = stats[r];
      EXPECT_EQ(st.moved_points, 0u) << "rank " << r;
      EXPECT_EQ(st.migrated_points, 0u) << "rank " << r;
      EXPECT_EQ(st.dirty_leaves, 0u) << "rank " << r;
      EXPECT_EQ(st.kept_leaves, leaves[r]) << "rank " << r;
      EXPECT_EQ(st.leaf_migrations, 0u) << "rank " << r;
      EXPECT_EQ(st.ghost_octants_sent, 0u) << "rank " << r;
      EXPECT_EQ(st.ghost_ranks, 0u) << "rank " << r;
      EXPECT_EQ(st.lists_rebuilt, 0u) << "rank " << r;
      EXPECT_EQ(st.lists_kept, targets[r]) << "rank " << r;
      EXPECT_FALSE(st.repartitioned) << "rank " << r;
      for (const char* phase : {"setup.incr.let", "setup.incr.balance"})
        for (const char* what : {".msgs_sent", ".bytes_sent"})
          EXPECT_EQ(reports[r].counter(std::string("comm.") + phase + what),
                    0.0)
              << "rank " << r << " " << phase << what;
    }
  }
}

/// setup() runs update_points()'s LET repair and repartition from an
/// empty state. This ties it to the octree module's from-scratch
/// pipeline: build the tree, build the LET and the lists, repartition
/// by work, then build the LET and the lists again from nothing.
TEST(SetupPipeline, MatchesOctreeFromScratchBitwise) {
  const FmmOptions opts = small_opts();
  octree::BuildParams bp;
  bp.max_points_per_leaf = opts.max_points_per_leaf;
  bp.max_level = opts.max_level;
  int migrating_cases = 0;
  for (const char* name : {"laplace", "stokes", "yukawa"}) {
    auto kernel = kernels::make_kernel(name);
    const Tables tables(*kernel, opts);
    for (const Distribution dist : {Distribution::kUniform,
                                    Distribution::kEllipsoid,
                                    Distribution::kCluster})
      for (const int p : {2, 3, 4}) {
        SCOPED_TRACE(std::string(name) + " " + dist_name(dist) + " p" +
                     std::to_string(p));
        std::vector<std::string> setup_digest(p), octree_digest(p);
        bool migrated = false;
        std::mutex mu;
        comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
          auto pts = [&] {
            return octree::generate_points(dist, 1200, ctx.rank(), p,
                                           tables.sdim(), 17);
          };
          ParallelFmm fmm(ctx, tables);
          fmm.setup(pts());

          auto tree = octree::build_distributed_tree(ctx.comm, pts(), bp);
          octree::Let let = octree::LetSync{}.build(ctx.comm, tree);
          octree::build_interaction_lists(let);
          const auto before = tree.leaves;
          tree = octree::load_balance(ctx.comm, std::move(tree),
                                      leaf_work_estimates(tables, let));
          let = octree::LetSync{}.build(ctx.comm, tree);
          octree::build_interaction_lists(let);

          std::lock_guard<std::mutex> lock(mu);
          setup_digest[ctx.rank()] = let_digest(fmm.let());
          octree_digest[ctx.rank()] = let_digest(let);
          migrated = migrated || before != tree.leaves;
        });
        for (int r = 0; r < p; ++r)
          EXPECT_EQ(setup_digest[r], octree_digest[r]) << "rank " << r;
        migrating_cases += migrated;
      }
  }
  // The repartition must move leaves in most cases, or the sweep only
  // checks the first LET.
  EXPECT_GE(migrating_cases, 20);
}

/// setup() on an object already set up starts from an empty state:
/// the LET and the potentials equal those of a fresh object's setup()
/// of the second cloud. Two second clouds: the first one's points with
/// new densities (every leaf and subscription is as before, so only an
/// emptied ghost staging re-ships the points), and a different cloud.
TEST(SetupPipeline, SecondSetupEqualsFreshSetup) {
  auto kernel = kernels::make_kernel("laplace");
  const Tables tables(*kernel, small_opts());
  for (const bool same_points : {true, false})
    for (const int p : {1, 2, 4}) {
      SCOPED_TRACE("same_points=" + std::to_string(same_points) +
                   " p=" + std::to_string(p));
      StepSnap reused, fresh;
      reused.let_digest.resize(p);
      fresh.let_digest.resize(p);
      std::mutex mu;
      comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
        auto first = [&] {
          return octree::generate_points(Distribution::kEllipsoid, 2000,
                                         ctx.rank(), p, tables.sdim(), 91);
        };
        auto second = [&] {
          if (!same_points)
            return octree::generate_points(Distribution::kCluster, 1500,
                                           ctx.rank(), p, tables.sdim(), 7);
          auto pts = first();
          for (octree::PointRec& pt : pts)
            for (double& d : pt.den) d *= -0.5;
          return pts;
        };
        ParallelFmm fmm(ctx, tables);
        fmm.setup(first());
        (void)fmm.evaluate();
        fmm.setup(second());
        snapshot_step(fmm, fmm.evaluate(), ctx.rank(), tables.tdim(), mu,
                      reused);

        ParallelFmm other(ctx, tables);
        other.setup(second());
        snapshot_step(other, other.evaluate(), ctx.rank(), tables.tdim(),
                      mu, fresh);
      });
      expect_bitwise_equal(reused, fresh, 0, p);
    }
}

/// The repartition maintains the canonical partition: under heavy
/// churn at p > 1 the destinations eventually shift and leaves migrate
/// inside update_points.
TEST(IncrementalRepartition, TrackModeMigratesWithoutRebuild) {
  const Case c{"laplace", Distribution::kCluster, 0.5, 2};
  auto kernel = kernels::make_kernel(c.kernel);

  std::vector<std::vector<ParallelFmm::UpdateStats>> stats;
  (void)run_incremental(*kernel, c, small_opts(), nullptr, &stats);
  bool any_repart = false;
  for (int r = 0; r < c.p; ++r)
    for (const auto& st : stats[r])
      any_repart = any_repart || st.repartitioned;
  EXPECT_TRUE(any_repart)
      << "50% churn on a clustered distribution never moved a leaf "
         "between ranks; the repartition is not engaging";
}

}  // namespace
}  // namespace pkifmm::core
