/// \file gpu_translate.cpp
/// \brief Micro-experiment: cost of the CPU->GPU data-structure
/// translation (paper abstract: "the translation has a somewhat high
/// memory footprint, but we show that it can be accomplished
/// efficiently").
///
/// Reports the wall time of the LET -> padded-SoA translation plus
/// host->device upload against the evaluation time, and the memory
/// footprint of the translated structure, across problem sizes.

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "gpu_translate");

  print_header("GPU translate", "LET -> streaming SoA translation cost");
  Table table({"N", "translate (s)", "eval cpu (s)", "fraction",
               "SoA footprint"});

  for (std::uint64_t n : {5000ull, 20000ull, 50000ull}) {
    kernels::LaplaceKernel kern;
    core::FmmOptions opts;
    opts.surface_n = 6;
    opts.max_points_per_leaf = 100;
    const core::Tables& base = tables_for("laplace", opts);
    const core::Tables tables = base.with_options(opts);

    double translate = 0, eval = 0;
    std::size_t footprint = 0;
    comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
      auto pts = octree::generate_points(octree::Distribution::kUniform, n, 0,
                                         1, 1, 9);
      core::ParallelFmm fmm(ctx, tables);
      fmm.setup(std::move(pts));
      gpu::StreamDevice dev;
      gpu::GpuEvaluator ge(tables, fmm.let(), ctx, dev, 64);
      ge.run();
      footprint = ge.gpu_let().footprint_bytes();
      translate = ctx.timer.get_cpu("gpu.translate");
      eval = ctx.rec.metrics().sum("time.eval.", ".cpu");
    });
    table.add_row({with_commas(n), sci(translate), sci(eval),
                   fixed(100.0 * translate / eval, 1) + "%",
                   with_commas(footprint) + " B"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Expected shape: translation remains a minor fraction of the\n"
              "evaluation work at every size.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
