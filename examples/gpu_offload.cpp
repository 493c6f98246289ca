/// \file gpu_offload.cpp
/// \brief GPU-accelerated evaluation (paper §IV): offloads S2U, ULI,
/// D2T and the diagonal V-list translation to the streaming device,
/// compares against the CPU evaluator, and prints the device's kernel
/// statistics (flops, memory traffic, arithmetic intensity, modeled
/// time) plus the CPU->GPU data-structure translation cost.
///
///   ./gpu_offload [--n=30000] [--q=200] [--block=64]

#include <cstdio>

#include "comm/comm.hpp"
#include "core/fmm.hpp"
#include "gpu/evaluator.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pkifmm;

static int example_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const auto n = cli.get_int_as<std::uint64_t>("n", 30000);
  const int q = cli.get_int_as<int>("q", 200);
  const int block = cli.get_int_as<int>("block", 64);

  std::printf("GPU offload: %llu Laplace charges, q = %d, block = %d\n",
              static_cast<unsigned long long>(n), q, block);

  kernels::LaplaceKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = 6;
  opts.max_points_per_leaf = q;
  opts.load_balance = false;
  const core::Tables tables(kernel, opts);

  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto points = octree::generate_points(octree::Distribution::kUniform, n,
                                          0, 1, 1, 3);
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(points));

    // CPU reference evaluation.
    core::Evaluator cpu(tables, fmm.let(), ctx);
    cpu.run();

    // Device evaluation (single precision, like the paper's GPUs).
    gpu::StreamDevice dev;
    gpu::GpuEvaluator gpu_eval(tables, fmm.let(), ctx, dev, block);
    gpu_eval.run();

    std::vector<double> pc(cpu.potential().begin(), cpu.potential().end());
    std::vector<double> pg(gpu_eval.potential().begin(),
                           gpu_eval.potential().end());
    std::printf("GPU vs CPU relative L2 difference: %s (single vs double "
                "precision)\n\n",
                sci(rel_l2_error(pg, pc)).c_str());
    PKIFMM_CHECK(rel_l2_error(pg, pc) < 1e-3);

    Table table({"kernel", "flops", "gmem bytes", "flops/byte",
                 "modeled time (s)"});
    for (const auto& [name, ks] : dev.kernels())
      table.add_row({name, sci(double(ks.flops)), sci(double(ks.gmem_bytes)),
                     fixed(double(ks.flops) / double(ks.gmem_bytes), 2),
                     sci(ks.modeled_seconds)});
    std::printf("%s\n", table.str().c_str());
    std::printf("PCIe transfers: %s bytes, %s s modeled\n",
                with_commas(dev.transfer_bytes()).c_str(),
                sci(dev.transfer_seconds()).c_str());
    std::printf("SoA translation footprint: %s bytes; translation time %s s\n",
                with_commas(gpu_eval.gpu_let().footprint_bytes()).c_str(),
                sci(ctx.timer.get_cpu("gpu.translate")).c_str());
    std::printf("total modeled device time: %s s\n",
                sci(dev.modeled_seconds()).c_str());
  });
  return 0;
}

int main(int argc, char** argv) {
  return util::guarded_main(argc, argv, example_main);
}
