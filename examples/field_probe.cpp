/// \file field_probe.cpp
/// \brief Separate sources and targets: probe the potential of a
/// clustered charge distribution on a measurement plane (targets carry
/// no charge; the cloud points are sources only), and render the slice
/// as an ASCII intensity map.
///
///   ./field_probe [--n=20000] [--grid=24] [--ranks=4]

#include <cstdio>
#include <unordered_map>

#include "comm/comm.hpp"
#include "core/fmm.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pkifmm;

static int example_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = cli.get_int_as<std::uint64_t>("n", 20000);
  const int grid = cli.get_int_as<int>("grid", 24);
  const int p = cli.get_int_as<int>("ranks", 4, 1);

  std::printf(
      "field probe: %llu source charges (cluster), %dx%d target plane "
      "z = 0.3, %d ranks\n",
      static_cast<unsigned long long>(n), grid, grid, p);

  kernels::LaplaceKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = 6;
  opts.max_points_per_leaf = 80;
  const core::Tables tables(kernel, opts);

  std::vector<double> plane(grid * grid, 0.0);
  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    // Sources: positive charges in the clustered distribution.
    auto pts = octree::generate_points(octree::Distribution::kCluster, n,
                                       ctx.rank(), p, 1, 123);
    for (auto& pt : pts) {
      pt.kind = octree::kSource;
      pt.den[0] = 1.0 / static_cast<double>(n);
    }
    // Targets: rank 0 contributes the measurement plane through the
    // cluster center (z = 0.3).
    if (ctx.rank() == 0) {
      for (int j = 0; j < grid; ++j)
        for (int i = 0; i < grid; ++i) {
          octree::PointRec r{};
          r.pos[0] = (i + 0.5) / grid;
          r.pos[1] = (j + 0.5) / grid;
          r.pos[2] = 0.3;
          r.kind = octree::kTarget;
          r.gid = n + static_cast<std::uint64_t>(j) * grid + i;
          pts.push_back(r);
        }
      octree::assign_morton_ids(pts);
    }

    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    auto result = fmm.evaluate();

    // Collect the plane values on rank 0.
    struct GP {
      std::uint64_t gid;
      double v;
    };
    std::vector<GP> mine(result.gids.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
      mine[i] = {result.gids[i], result.potentials[i]};
    auto all = ctx.comm.allgatherv_concat(std::span<const GP>(mine));
    if (ctx.rank() == 0) {
      for (const auto& g : all) {
        PKIFMM_CHECK(g.gid >= n);
        plane[g.gid - n] = g.v;
      }
    }
  });

  // ASCII render: brightness ~ log potential.
  double lo = 1e300, hi = -1e300;
  for (double v : plane) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const char* shades = " .:-=+*#%@";
  std::printf("\npotential on the z = 0.3 plane (min %s, max %s):\n\n",
              sci(lo).c_str(), sci(hi).c_str());
  for (int j = grid - 1; j >= 0; --j) {
    std::printf("  ");
    for (int i = 0; i < grid; ++i) {
      const double t = (plane[j * grid + i] - lo) / (hi - lo + 1e-300);
      std::printf("%c%c", shades[int(t * 9.999)], shades[int(t * 9.999)]);
    }
    std::printf("\n");
  }
  std::printf("\n(the hot spot sits at the cluster center x=y=0.3)\n");
  return 0;
}

int main(int argc, char** argv) {
  return util::guarded_main(argc, argv, example_main);
}
