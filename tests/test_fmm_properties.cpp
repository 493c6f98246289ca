/// Property-based and failure-injection tests of the full FMM stack:
/// parameterized accuracy sweeps, invariances (rank-count independence,
/// linearity), degenerate geometry, and error paths.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <unordered_map>

#include "core/direct.hpp"
#include "core/fmm.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pkifmm::core {
namespace {

using octree::Distribution;
using octree::PointRec;

/// Gathers per-gid scalar potentials across ranks.
std::unordered_map<std::uint64_t, double> gather_by_gid(
    comm::Comm& c, const ParallelFmm::Result& r) {
  struct GP {
    std::uint64_t gid;
    double v;
  };
  std::vector<GP> mine(r.gids.size());
  for (std::size_t i = 0; i < mine.size(); ++i)
    mine[i] = {r.gids[i], r.potentials[i]};
  auto all = c.allgatherv_concat(std::span<const GP>(mine));
  std::unordered_map<std::uint64_t, double> out;
  for (const auto& g : all) out.emplace(g.gid, g.v);
  return out;
}

double e2e_error(const kernels::Kernel& kernel, const Tables& tables,
                 Distribution dist, std::uint64_t n, int p,
                 std::uint64_t seed = 17) {
  double err = 0.0;
  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(dist, n, ctx.rank(), p,
                                       kernel.source_dim(), seed);
    const auto mine = pts;
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    auto result = fmm.evaluate();
    const auto exact = direct_reference(ctx.comm, kernel, mine);
    auto by_gid = gather_by_gid(ctx.comm, result);
    std::vector<double> approx(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      approx[i] = by_gid.at(mine[i].gid);
    if (ctx.rank() == 0) err = rel_l2_error(approx, exact);
  });
  return err;
}

// ---------------------------------------------------------------------
// Parameterized accuracy sweep: distribution x q (Laplace, n = 4).
// ---------------------------------------------------------------------

using SweepParam = std::tuple<int /*dist*/, int /*q*/, int /*p*/>;

class AccuracySweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AccuracySweep, FmmMatchesDirect) {
  const auto [d, q, p] = GetParam();
  const auto dist = static_cast<Distribution>(d);
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = q;
  if ((p & (p - 1)) != 0) opts.reduce = ReduceMode::kOwner;
  const Tables tables(kernel, opts);
  EXPECT_LT(e2e_error(kernel, tables, dist, 1200, p), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndLeafSizes, AccuracySweep,
    ::testing::Combine(::testing::Values(0, 1, 2),   // uniform/ellipsoid/cluster
                       ::testing::Values(5, 25, 120),
                       ::testing::Values(1, 2)));

class RankSweep : public ::testing::TestWithParam<int> {};

TEST_P(RankSweep, FmmMatchesDirectAcrossRankCounts) {
  const int p = GetParam();
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 20;
  if ((p & (p - 1)) != 0) opts.reduce = ReduceMode::kOwner;
  const Tables tables(kernel, opts);
  EXPECT_LT(e2e_error(kernel, tables, Distribution::kEllipsoid, 1500, p), 5e-3);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

// ---------------------------------------------------------------------
// Invariances
// ---------------------------------------------------------------------

TEST(Invariance, ResultIndependentOfRankCount) {
  // The same points must give (numerically) the same potentials no
  // matter how many ranks computed them.
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 6;
  opts.max_points_per_leaf = 30;
  const Tables tables(kernel, opts);

  std::unordered_map<std::uint64_t, double> pot1, pot4;
  for (int p : {1, 4}) {
    comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
      auto pts = octree::generate_points(Distribution::kEllipsoid, 1500,
                                         ctx.rank(), p, 1, 5);
      ParallelFmm fmm(ctx, tables);
      fmm.setup(std::move(pts));
      auto result = fmm.evaluate();
      auto by_gid = gather_by_gid(ctx.comm, result);
      if (ctx.rank() == 0) (p == 1 ? pot1 : pot4) = by_gid;
    });
  }
  ASSERT_EQ(pot1.size(), pot4.size());
  // Summation order differs across rank counts (reduce-scatter merges
  // partial densities in a different order), so agreement is to
  // floating-point accumulation accuracy, not bitwise.
  for (const auto& [gid, v] : pot1)
    EXPECT_NEAR(pot4.at(gid), v, 1e-7 * (std::abs(v) + 1.0)) << gid;
}

TEST(Invariance, LinearityInDensities) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 40;
  const Tables tables(kernel, opts);
  comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(Distribution::kUniform, 1000,
                                       ctx.rank(), 2, 1, 9);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));

    auto r1 = fmm.evaluate();

    // densities2 = -3 * densities1 (by gid).
    std::vector<std::uint64_t> gids;
    std::vector<double> d2;
    for (const auto& node : fmm.let().nodes) {
      if (!node.owned) continue;
      for (const auto& pt : fmm.let().points_of(node)) {
        gids.push_back(pt.gid);
        d2.push_back(-3.0 * pt.den[0]);
      }
    }
    fmm.set_densities(gids, d2);
    auto r2 = fmm.evaluate();
    ASSERT_EQ(r1.potentials.size(), r2.potentials.size());
    for (std::size_t i = 0; i < r1.potentials.size(); ++i)
      EXPECT_NEAR(r2.potentials[i], -3.0 * r1.potentials[i],
                  1e-10 * (std::abs(r1.potentials[i]) + 1.0));
  });
}

TEST(Invariance, ZeroDensitiesGiveZeroPotential) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 30;
  const Tables tables(kernel, opts);
  comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(Distribution::kUniform, 800,
                                       ctx.rank(), 2, 1, 11);
    for (auto& pt : pts) pt.den[0] = 0.0;
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    auto result = fmm.evaluate();
    for (double v : result.potentials) EXPECT_EQ(v, 0.0);
  });
}

// ---------------------------------------------------------------------
// Degenerate geometry
// ---------------------------------------------------------------------

std::vector<PointRec> colinear_points(std::uint64_t n, int rank, int p) {
  std::vector<PointRec> pts;
  const std::uint64_t b = n * rank / p, e = n * (rank + 1) / p;
  for (std::uint64_t g = b; g < e; ++g) {
    Rng rng(1000 + g);
    PointRec r{};
    const double t = static_cast<double>(g) / static_cast<double>(n);
    r.pos[0] = 0.05 + 0.9 * t;
    r.pos[1] = 0.5;
    r.pos[2] = 0.5;
    r.den[0] = rng.uniform(-1, 1);
    r.gid = g;
    pts.push_back(r);
  }
  octree::assign_morton_ids(pts);
  return pts;
}

TEST(Degenerate, ColinearPointsOnAxis) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 6;
  opts.max_points_per_leaf = 10;
  const Tables tables(kernel, opts);
  comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    auto pts = colinear_points(600, ctx.rank(), 2);
    const auto mine = pts;
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    auto result = fmm.evaluate();
    const auto exact = direct_reference(ctx.comm, kernel, mine);
    auto by_gid = gather_by_gid(ctx.comm, result);
    std::vector<double> approx(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      approx[i] = by_gid.at(mine[i].gid);
    EXPECT_LT(rel_l2_error(approx, exact), 1e-4);
  });
}

TEST(Degenerate, DuplicatePointsForceMaxLevelAndStayExact) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 4;
  opts.max_level = 8;  // duplicates would otherwise refine forever
  const Tables tables(kernel, opts);
  comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    // 40 distinct positions, each duplicated 10 times.
    std::vector<PointRec> pts;
    for (int i = 0; i < 400; ++i) {
      const int site = i % 40;
      if (static_cast<int>(site % 2) != ctx.rank()) continue;
      Rng rng(site);
      PointRec r{};
      r.pos[0] = rng.uniform();
      r.pos[1] = rng.uniform();
      r.pos[2] = rng.uniform();
      r.den[0] = 0.01 * i;
      r.gid = i;
      pts.push_back(r);
    }
    octree::assign_morton_ids(pts);
    const auto mine = pts;
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    auto result = fmm.evaluate();
    const auto exact = direct_reference(ctx.comm, kernel, mine);
    auto by_gid = gather_by_gid(ctx.comm, result);
    std::vector<double> approx(mine.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      approx[i] = by_gid.at(mine[i].gid);
    EXPECT_LT(rel_l2_error(approx, exact), 1e-2);
  });
}

// ---------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------

TEST(Failure, EvaluateBeforeSetupThrows) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  const Tables tables(kernel, opts);
  EXPECT_THROW(comm::Runtime::run(1,
                                  [&](comm::RankCtx& ctx) {
                                    ParallelFmm fmm(ctx, tables);
                                    (void)fmm.evaluate();
                                  }),
               CheckFailure);
}

TEST(Failure, SetDensitiesWithMissingGidThrows) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  const Tables tables(kernel, opts);
  EXPECT_THROW(
      comm::Runtime::run(1,
                         [&](comm::RankCtx& ctx) {
                           auto pts = octree::generate_points(
                               Distribution::kUniform, 200, 0, 1, 1, 3);
                           ParallelFmm fmm(ctx, tables);
                           fmm.setup(std::move(pts));
                           fmm.set_densities({9999999}, {1.0});
                         }),
      CheckFailure);
}

/// update_points rejects a gid listed twice, a gid this rank does not
/// own and a coordinate outside the unit cube [0, 1) (NaN included),
/// naming the gid, before any point is written: the next evaluate()
/// matches the one before the rejected calls bitwise.
TEST(Failure, UpdatePointsRejectsBadMoves) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  const Tables tables(kernel, opts);
  comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(Distribution::kUniform, 400,
                                       ctx.rank(), 2, 1, 3);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    const auto before = fmm.evaluate();
    std::vector<std::uint64_t> owned;
    for (const octree::LetNode& n : fmm.let().nodes)
      if (n.owned && n.global_leaf)
        for (const octree::PointRec& pt : fmm.let().points_of(n))
          owned.push_back(pt.gid);
    ASSERT_GE(owned.size(), 2u);
    const std::uint64_t own = owned[0];
    auto expect_rejected = [&](const std::vector<octree::PointMove>& moves,
                               const std::string& message) {
      try {
        fmm.update_points(moves);
        ADD_FAILURE() << "accepted bad moves, expected: " << message;
      } catch (const CheckFailure& e) {
        EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
            << e.what();
      }
    };
    const octree::PointMove m{own, {0.5, 0.5, 0.5}};
    expect_rejected({m, m}, "duplicate gid in moves");
    expect_rejected({{9999999, {0.5, 0.5, 0.5}}},
                    "gid 9999999 is not owned by this rank");
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::string gid = "gid " + std::to_string(own);
    expect_rejected({{own, {nan, 0.5, 0.5}}},
                    gid + " moves to pos[0] = nan, outside [0, 1)");
    expect_rejected({{own, {0.5, 1.5, 0.5}}},
                    gid + " moves to pos[1] = 1.5, outside [0, 1)");
    expect_rejected({{own, {0.5, 0.5, -0.25}}},
                    gid + " moves to pos[2] = -0.25, outside [0, 1)");
    // A valid move listed first is not written either.
    expect_rejected({m, {owned[1], {1.0, 0.5, 0.5}}},
                    "gid " + std::to_string(owned[1]) +
                        " moves to pos[0] = 1, outside [0, 1)");

    const auto after = fmm.evaluate();
    EXPECT_EQ(before.gids, after.gids);
    EXPECT_EQ(before.potentials, after.potentials);
  });
}

TEST(Failure, WithOptionsRejectsGeometryChange) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  const Tables tables(kernel, opts);
  FmmOptions other = opts;
  other.surface_n = 6;
  EXPECT_THROW((void)tables.with_options(other), CheckFailure);
  other = opts;
  other.max_points_per_leaf = 999;  // non-geometric: allowed
  EXPECT_NO_THROW((void)tables.with_options(other));
}

TEST(Failure, BadSurfaceOrderRejected) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 2;
  EXPECT_THROW(Tables(kernel, opts), CheckFailure);
}

// ---------------------------------------------------------------------
// Non-homogeneous kernel tables
// ---------------------------------------------------------------------

TEST(Yukawa, PerLevelTablesDiffer) {
  kernels::YukawaKernel kernel(5.0);
  FmmOptions opts;
  opts.surface_n = 4;
  const Tables tables(kernel, opts);
  const LevelOps a = tables.at(1);
  const LevelOps b = tables.at(4);
  // Scales are unity (non-homogeneous)...
  EXPECT_EQ(a.uc2ue_scale, 1.0);
  EXPECT_EQ(b.uc2ue_scale, 1.0);
  // ...and the matrices themselves must differ across levels.
  EXPECT_NE(a.uc2ue, b.uc2ue);  // distinct storage
  double diff = 0.0;
  for (std::size_t i = 0; i < a.uc2ue->rows(); ++i)
    for (std::size_t j = 0; j < a.uc2ue->cols(); ++j)
      diff = std::max(diff, std::abs((*a.uc2ue)(i, j) - (*b.uc2ue)(i, j)));
  EXPECT_GT(diff, 1e-6);
}

TEST(Laplace, HomogeneousTablesShareStorageAcrossLevels) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  const Tables tables(kernel, opts);
  EXPECT_EQ(tables.at(1).uc2ue, tables.at(7).uc2ue);
  EXPECT_NE(tables.at(1).uc2ue_scale, tables.at(7).uc2ue_scale);
}

}  // namespace
}  // namespace pkifmm::core
