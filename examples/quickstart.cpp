/// \file quickstart.cpp
/// \brief Minimal end-to-end pkifmm usage: evaluate the Laplace
/// potential of N random charges with the parallel KIFMM and verify a
/// sample against direct summation.
///
///   ./quickstart [--n=20000] [--ranks=4] [--accuracy=6]

#include <cstdio>
#include <unordered_map>

#include "comm/comm.hpp"
#include "core/direct.hpp"
#include "core/fmm.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace pkifmm;

static int example_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = cli.get_int_as<std::uint64_t>("n", 20000);
  const int p = cli.get_int_as<int>("ranks", 4, 1);
  const int accuracy = cli.get_int_as<int>("accuracy", 6);

  std::printf("pkifmm quickstart: %llu Laplace charges, %d simulated ranks\n",
              static_cast<unsigned long long>(n), p);

  // 1. Choose a kernel and build the translation tables (once; shared
  //    read-only by every rank).
  kernels::LaplaceKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = accuracy;       // 4 = low, 6 = medium, 8 = high
  opts.max_points_per_leaf = 100;  // q
  const core::Tables tables(kernel, opts);

  // 2. SPMD region: each rank contributes its share of the points.
  Timer wall;
  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto points = octree::generate_points(octree::Distribution::kUniform, n,
                                          ctx.rank(), ctx.size(),
                                          kernel.source_dim(), /*seed=*/1);
    const auto sample = points;  // keep some for verification

    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(points));           // tree + LET + load balance
    const auto result = fmm.evaluate();     // Algorithm 1 + Algorithm 3

    // 3. Verify ~100 of this rank's original points against the exact
    //    O(N^2) sum (gather results by gid first).
    struct GP {
      std::uint64_t gid;
      double v;
    };
    std::vector<GP> mine(result.gids.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = {result.gids[i], result.potentials[i]};
    auto all = ctx.comm.allgatherv_concat(std::span<const GP>(mine));
    std::unordered_map<std::uint64_t, double> by_gid;
    for (const auto& g : all) by_gid.emplace(g.gid, g.v);

    std::vector<octree::PointRec> check(
        sample.begin(), sample.begin() + std::min<std::size_t>(100, sample.size()));
    auto all_pts = ctx.comm.allgatherv_concat(
        std::span<const octree::PointRec>(sample));
    const auto exact = core::direct_local(kernel, check, all_pts);

    std::vector<double> approx(check.size());
    for (std::size_t i = 0; i < check.size(); ++i)
      approx[i] = by_gid.at(check[i].gid);
    const double err = rel_l2_error(approx, exact);

    if (ctx.rank() == 0) {
      std::printf("rank 0: LET has %zu octants, %zu local points\n",
                  fmm.let().nodes.size(), fmm.let().points.size());
      std::printf("relative L2 error vs direct sum (100 samples): %s\n",
                  sci(err).c_str());
      PKIFMM_CHECK_MSG(err < 1e-3, "accuracy regression");
    }
  });
  std::printf("done in %.2f s wall\n", wall.seconds());
  return 0;
}

int main(int argc, char** argv) {
  return util::guarded_main(argc, argv, example_main);
}
