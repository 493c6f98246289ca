/// \file stokes_ellipsoid.cpp
/// \brief The paper's target application class (fluid mechanics):
/// velocity field induced by Stokeslet forces distributed on the
/// surface of a 1:1:4 ellipsoid — the single-layer potential of a rigid
/// body in Stokes flow.
///
/// This is exactly the nonuniform configuration of the paper's Kraken
/// runs: the uniform-in-angle surface sampling concentrates points at
/// the poles and produces a deeply adaptive octree. The example prints
/// tree statistics (leaf-level spread — the paper's 65K run spanned
/// levels 2..27), evaluates the velocities, and spot-checks accuracy.
///
///   ./stokes_ellipsoid [--n=20000] [--ranks=4]

#include <cstdio>
#include <unordered_map>

#include "comm/comm.hpp"
#include "core/direct.hpp"
#include "core/fmm.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pkifmm;

static int example_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = cli.get_int_as<std::uint64_t>("n", 20000);
  const int p = cli.get_int_as<int>("ranks", 4, 1);

  std::printf(
      "Stokes flow: %llu Stokeslets on a 1:1:4 ellipsoid surface, %d ranks\n",
      static_cast<unsigned long long>(n), p);

  kernels::StokesKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 60;
  const core::Tables tables(kernel, opts);

  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    // Unit tangential force density (a rotation-like forcing) on the
    // ellipsoid surface.
    auto points = octree::generate_points(octree::Distribution::kEllipsoid, n,
                                          ctx.rank(), ctx.size(), 3, 7);
    for (auto& pt : points) {
      // Force ~ e_z x (x - center): swirl around the long axis.
      const double rx = pt.pos[0] - 0.5, ry = pt.pos[1] - 0.5;
      pt.den[0] = -ry;
      pt.den[1] = rx;
      pt.den[2] = 0.0;
    }
    const auto sample = points;

    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(points));

    if (ctx.rank() == 0) {
      const auto& let = fmm.let();
      std::printf("adaptive tree: leaf levels %d..%d (%d levels of spread)\n",
                  let.min_leaf_level(), let.max_leaf_level(),
                  let.max_leaf_level() - let.min_leaf_level());
    }

    const auto result = fmm.evaluate();

    // Velocity statistics + accuracy spot check.
    Accumulator speed;
    for (std::size_t i = 0; i < result.gids.size(); ++i) {
      const double* v = &result.potentials[3 * i];
      speed.add(std::sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2]));
    }

    struct GP {
      std::uint64_t gid;
      double v[3];
    };
    std::vector<GP> mine(result.gids.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      mine[i].gid = result.gids[i];
      for (int c = 0; c < 3; ++c) mine[i].v[c] = result.potentials[3 * i + c];
    }
    auto all = ctx.comm.allgatherv_concat(std::span<const GP>(mine));
    std::unordered_map<std::uint64_t, const GP*> by_gid;
    for (const auto& g : all) by_gid.emplace(g.gid, &g);

    std::vector<octree::PointRec> check(
        sample.begin(),
        sample.begin() + std::min<std::size_t>(50, sample.size()));
    auto all_pts =
        ctx.comm.allgatherv_concat(std::span<const octree::PointRec>(sample));
    const auto exact = core::direct_local(kernel, check, all_pts);
    std::vector<double> approx(exact.size());
    for (std::size_t i = 0; i < check.size(); ++i)
      for (int c = 0; c < 3; ++c)
        approx[3 * i + c] = by_gid.at(check[i].gid)->v[c];
    const double err = rel_l2_error(approx, exact);

    if (ctx.rank() == 0) {
      std::printf("rank 0 velocities: mean |u| = %s, max |u| = %s\n",
                  sci(speed.mean()).c_str(), sci(speed.max()).c_str());
      std::printf("relative L2 error vs direct sum (50 samples): %s\n",
                  sci(err).c_str());
      PKIFMM_CHECK_MSG(err < 5e-2, "accuracy regression");
    }
  });
  return 0;
}

int main(int argc, char** argv) {
  return util::guarded_main(argc, argv, example_main);
}
