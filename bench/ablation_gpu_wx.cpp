/// \file ablation_gpu_wx.cpp
/// \brief Extension experiment: W/X-lists on the GPU.
///
/// §IV of the paper: "Our ongoing work includes transferring the W,X-
/// lists on the GPU." pkifmm implements that extension; this bench
/// quantifies what it buys on a nonuniform problem (uniform trees have
/// nearly empty W/X lists, so the win only exists for adaptive trees,
/// which is exactly why the paper's uniform GPU runs could defer it).

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

struct Outcome {
  double modeled_eval_s;
  double wx_host_flops;
  double wx_dev_seconds;
};

Outcome run_once(bool offload_wx, octree::Distribution dist, std::uint64_t n,
                 int q) {
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = q;
  opts.load_balance = false;
  const core::Tables& base = tables_for("laplace", opts);
  const core::Tables tables = base.with_options(opts);
  const comm::CostModel model;

  Outcome out{};
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(dist, n, 0, 1, 1, 21);
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    gpu::StreamDevice dev;
    gpu::GpuEvaluator eval(tables, fmm.let(), ctx, dev, 64, offload_wx);
    eval.run();

    // Modeled evaluation time: device kernels + transfers + CPU-side
    // phases at the paper core rate.
    const obs::RankMetrics& m = ctx.rec.metrics();
    const double wx_flops =
        m.counter("flops.eval.wli") + m.counter("flops.eval.xli");
    double host_flops = m.sum("flops.");
    for (const char* dev_phase : {"eval.uli", "eval.s2u", "eval.d2t",
                                  "eval.vli"})
      host_flops -= m.counter(std::string("flops.") + dev_phase);
    if (offload_wx) host_flops -= wx_flops;
    out.modeled_eval_s =
        model.compute_time(static_cast<std::uint64_t>(host_flops)) +
        dev.modeled_seconds();
    out.wx_host_flops = offload_wx ? 0.0 : wx_flops;
    for (const char* k : {"wli", "xli"}) {
      auto it = dev.kernels().find(k);
      if (it != dev.kernels().end())
        out.wx_dev_seconds += it->second.modeled_seconds;
    }
  });
  return out;
}

}  // namespace

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "ablation_gpu_wx");
  const auto n = cli.get_int_as<std::uint64_t>("n", 20000);
  const int q = cli.get_int_as<int>("q", 60);

  print_header("Extension", "W/X-lists on the GPU (the paper's ongoing work)");
  Table table({"distribution", "W/X placement", "eval modeled (s)",
               "W/X cost (s)", "speedup"});

  for (auto dist : {octree::Distribution::kUniform,
                    octree::Distribution::kEllipsoid}) {
    const char* dname =
        dist == octree::Distribution::kUniform ? "uniform" : "nonuniform";
    const Outcome cpu = run_once(false, dist, n, q);
    const Outcome gpu = run_once(true, dist, n, q);
    const comm::CostModel model;
    table.add_row({dname, "CPU (paper)", sci(cpu.modeled_eval_s),
                   sci(model.compute_time(
                       static_cast<std::uint64_t>(cpu.wx_host_flops))),
                   "1.0x"});
    table.add_row({dname, "GPU (extension)", sci(gpu.modeled_eval_s),
                   sci(gpu.wx_dev_seconds),
                   fixed(cpu.modeled_eval_s / gpu.modeled_eval_s, 1) + "x"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape: no effect on the uniform tree (W/X nearly empty),\n"
      "a clear end-to-end win on the adaptive (nonuniform) tree where the\n"
      "CPU-resident W/X work sits on the critical path.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
