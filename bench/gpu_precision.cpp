/// \file gpu_precision.cpp
/// \brief Paper limitation #1 (§I): "the GPU acceleration is
/// implemented in single precision (the rest of the code can work in
/// both single and double precision)." This bench quantifies what that
/// costs: the CPU (double) FMM error vs direct summation keeps falling
/// as the surface order n grows, while the GPU (float) path hits the
/// single-precision floor.

#include <cstdio>
#include <unordered_map>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

std::pair<double, double> errors_for(int surface_n, std::uint64_t n) {
  kernels::LaplaceKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = surface_n;
  opts.max_points_per_leaf = 60;
  opts.load_balance = false;
  const core::Tables& base = tables_for("laplace", opts);
  const core::Tables tables = base.with_options(opts);

  double cpu_err = 0, gpu_err = 0;
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(octree::Distribution::kUniform, n, 0, 1,
                                       1, 19);
    octree::BuildParams bp;
    bp.max_points_per_leaf = 60;
    auto tree = octree::build_distributed_tree(ctx.comm, pts, bp);
    octree::Let let = octree::build_let(ctx.comm, tree);
    octree::build_interaction_lists(let);

    core::Evaluator cpu(tables, let, ctx);
    cpu.run();
    gpu::StreamDevice dev;
    gpu::GpuEvaluator gpu_eval(tables, let, ctx, dev, 64);
    gpu_eval.run();

    std::vector<octree::PointRec> owned;
    std::vector<double> ac, ag;
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      const auto& nd = let.nodes[i];
      if (!(nd.owned && nd.global_leaf)) continue;
      for (std::uint32_t k = 0; k < nd.target_count; ++k) {
        owned.push_back(let.points[nd.point_begin + k]);
        ac.push_back(cpu.potential()[nd.point_begin + k]);
        ag.push_back(gpu_eval.potential()[nd.point_begin + k]);
      }
    }
    const auto exact = core::direct_reference(ctx.comm, kernel, owned);
    cpu_err = rel_l2_error(ac, exact);
    gpu_err = rel_l2_error(ag, exact);
  });
  return {cpu_err, gpu_err};
}

}  // namespace

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "gpu_precision");
  const auto n = cli.get_int_as<std::uint64_t>("n", 4000);

  print_header("GPU precision", "double (CPU) vs single (GPU) accuracy floor");
  Table table({"surface n", "CPU (double) rel err", "GPU (float) rel err"});
  for (int sn : {4, 6, 8}) {
    const auto [c, g] = errors_for(sn, n);
    table.add_row({std::to_string(sn), sci(c), sci(g)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape: the double path keeps improving with n while the\n"
      "float path stalls — and at n = 8 it DEGRADES, because the\n"
      "equivalent-density solve grows more ill-conditioned with the\n"
      "surface order and amplifies the single-precision noise in the\n"
      "device-computed check potentials. This is why the paper flags\n"
      "single precision as a limitation and runs its GPU experiments at\n"
      "moderate accuracy.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
