/// \file gpu_block_sweep.cpp
/// \brief Tuning the thread-block size b of Algorithm 4.
///
/// The paper pads each target box to the next multiple of b and tiles
/// sources in chunks of b: large b improves coalescing and amortizes
/// synchronization, small b wastes fewer pad lanes when boxes are
/// small. This bench sweeps b and reports the modeled ULI time, the
/// pad overhead, and the fraction of uncoalesced tiles.

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "gpu_block_sweep");
  const auto n = cli.get_int_as<std::uint64_t>("n", 20000);
  const int q = cli.get_int_as<int>("q", 100);

  print_header("GPU block sweep", "Algorithm 4 thread-block size b");
  Table table({"b", "padded targets", "pad overhead", "uli modeled (s)",
               "uli flops/byte"});

  kernels::LaplaceKernel kern;
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = q;
  opts.load_balance = false;
  const core::Tables& base = tables_for("laplace", opts);
  const core::Tables tables = base.with_options(opts);

  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(octree::Distribution::kEllipsoid, n, 0,
                                       1, 1, 91);
    octree::BuildParams bp;
    bp.max_points_per_leaf = q;
    auto tree = octree::build_distributed_tree(ctx.comm, pts, bp);
    octree::Let let = octree::build_let(ctx.comm, tree);
    octree::build_interaction_lists(let);

    std::size_t real_targets = 0;
    for (const auto& nd : let.nodes)
      if (nd.owned && nd.global_leaf) real_targets += nd.target_count;

    for (int b : {16, 32, 64, 128, 256}) {
      gpu::StreamDevice dev;
      const gpu::GpuLet g = gpu::build_gpu_let(tables, let, b);
      gpu::Workspace ws = gpu::make_workspace(dev, g);
      gpu::run_uli(dev, g, ws);
      const auto& ks = dev.kernels().at("uli");
      table.add_row(
          {std::to_string(b), with_commas(g.padded_targets()),
           fixed(100.0 * (double(g.padded_targets()) / real_targets - 1.0),
                 1) + "%",
           sci(ks.modeled_seconds),
           fixed(double(ks.flops) / double(ks.gmem_bytes), 2)});
    }
  });
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape: pad overhead grows with b on the adaptive tree\n"
      "(many small boxes); arithmetic intensity improves with b until\n"
      "padding waste dominates — the b the paper tunes per machine.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
