/// \file galaxy_gravity.cpp
/// \brief Gravitational N-body potential of a clustered "galaxy":
/// a dense Gaussian core with a sparse halo (the load-balancing stress
/// distribution), evaluated with the Laplace kernel — the classic FMM
/// application (K = 1/(4 pi r), masses as densities).
///
/// Demonstrates repeated evaluation on the same tree with updated
/// densities (a time-stepper would do this every step) and reports the
/// total potential energy   U = -G/2 sum_i m_i phi_i.
///
///   ./galaxy_gravity [--n=30000] [--ranks=4]

#include <cstdio>

#include "comm/comm.hpp"
#include "core/fmm.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pkifmm;

static int example_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = cli.get_int_as<std::uint64_t>("n", 30000);
  const int p = cli.get_int_as<int>("ranks", 4, 1);

  std::printf("galaxy: %llu bodies (dense core + halo), %d ranks\n",
              static_cast<unsigned long long>(n), p);

  kernels::LaplaceKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = 6;
  opts.max_points_per_leaf = 80;
  const core::Tables tables(kernel, opts);

  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto points = octree::generate_points(octree::Distribution::kCluster, n,
                                          ctx.rank(), ctx.size(), 1, 99);
    // Masses: equal bodies, total mass 1.
    const double mass = 1.0 / static_cast<double>(n);
    for (auto& pt : points) pt.den[0] = mass;

    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(points));

    if (ctx.rank() == 0)
      std::printf("tree: %zu octants on rank 0, leaf levels %d..%d\n",
                  fmm.let().nodes.size(), fmm.let().min_leaf_level(),
                  fmm.let().max_leaf_level());

    auto result = fmm.evaluate(/*with_gradient=*/true);

    // Total potential energy: U = -1/2 sum_i m_i phi_i (G = 4 pi here
    // so that phi matches the Laplace single-layer normalization).
    double local_u = 0.0;
    for (double phi : result.potentials) local_u += mass * phi;
    const double total_u = -0.5 * ctx.comm.allreduce_sum(local_u);

    // Accelerations a_i = grad phi (toward the mass in this sign
    // convention) — what a leapfrog integrator would consume.
    Accumulator acc_mag;
    for (std::size_t i = 0; i < result.gids.size(); ++i) {
      const double* a = &result.gradients[3 * i];
      acc_mag.add(std::sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2]));
    }
    // Momentum conservation: sum_i m_i a_i ~ 0 (Newton's third law).
    double net[3] = {0, 0, 0};
    for (std::size_t i = 0; i < result.gids.size(); ++i)
      for (int c = 0; c < 3; ++c) net[c] += mass * result.gradients[3 * i + c];
    for (int c = 0; c < 3; ++c) net[c] = ctx.comm.allreduce_sum(net[c]);

    // Second evaluation: double all masses -> energy must quadruple.
    std::vector<std::uint64_t> gids = result.gids;
    std::vector<double> den(gids.size(), 2.0 * mass);
    fmm.set_densities(gids, den);
    auto result2 = fmm.evaluate();
    double local_u2 = 0.0;
    for (double phi : result2.potentials) local_u2 += 2.0 * mass * phi;
    const double total_u2 = -0.5 * ctx.comm.allreduce_sum(local_u2);

    if (ctx.rank() == 0) {
      const double net_mag =
          std::sqrt(net[0] * net[0] + net[1] * net[1] + net[2] * net[2]);
      std::printf("accelerations: mean |a| = %s; |net momentum flux| = %s "
                  "(~0 by Newton's 3rd law)\n",
                  sci(acc_mag.mean()).c_str(), sci(net_mag).c_str());
      PKIFMM_CHECK(net_mag < 1e-3 * acc_mag.mean());
      std::printf("potential energy (unit masses):    U = %s\n",
                  sci(total_u).c_str());
      std::printf("potential energy (doubled masses): U = %s (ratio %.4f, "
                  "expected 4)\n",
                  sci(total_u2).c_str(), total_u2 / total_u);
      PKIFMM_CHECK(std::abs(total_u2 / total_u - 4.0) < 1e-6);
    }
  });
  return 0;
}

int main(int argc, char** argv) {
  return util::guarded_main(argc, argv, example_main);
}
