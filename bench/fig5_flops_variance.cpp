/// \file fig5_flops_variance.cpp
/// \brief Reproduces paper Figure 5: variance of flops across processes.
///
/// Paper setup: 64K-core run, per-process total flops plotted for the
/// uniform and the nonuniform distribution — the nonuniform case shows
/// far larger spread (note the different y-scales in the paper's
/// figure). Here: p = 16 simulated ranks, work-weighted partitioning
/// on, per-rank science flops from the analytic counters.

#include <algorithm>
#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

Summary run_series(octree::Distribution dist, const char* label, int p,
                   std::uint64_t per_rank) {
  ExperimentConfig cfg;
  cfg.p = p;
  cfg.dist = dist;
  cfg.n_points = per_rank * p;
  cfg.opts.surface_n = 4;
  cfg.opts.max_points_per_leaf = 40;
  Experiment exp = run_fmm(cfg, "stokes");

  std::printf("-- %s: per-rank evaluation flops\n", label);
  const auto flops = exp.phase_flops("eval.");
  const auto cpu = exp.phase_cpu("eval.");
  // hw.eval.cycles is recorded only when perf counters are live on the
  // rank's thread (all-zero under the getrusage fallback).
  const auto cycles = exp.obs_counter("hw.eval.cycles");
  const bool have_cycles =
      std::any_of(cycles.begin(), cycles.end(), [](double c) { return c > 0; });
  const double vmax = *std::max_element(flops.begin(), flops.end());
  std::vector<double> gfs(p, 0.0);
  for (int r = 0; r < p; ++r) {
    gfs[r] = cpu[r] > 0 ? flops[r] / cpu[r] / 1e9 : 0.0;
    std::string hw;
    if (have_cycles && cycles[r] > 0)
      hw = "  " + fixed(flops[r] / cycles[r], 2) + " F/cyc";
    std::printf("  rank %2d : %s  %s GF/s%s  %s\n", r, sci(flops[r]).c_str(),
                fixed(gfs[r], 2).c_str(), hw.c_str(),
                bar(flops[r], vmax, 32).c_str());
  }
  const Summary s = Summary::of(flops);
  const Summary sg = Summary::of(gfs);
  std::printf("  max %s  avg %s  stddev %s  imbalance %.2f\n",
              sci(s.max).c_str(), sci(s.avg).c_str(), sci(s.stddev).c_str(),
              s.imbalance());
  std::printf(
      "  achieved GFLOP/s (flops / measured eval CPU-s): max %.2f  avg %.2f%s\n\n",
      sg.max, sg.avg,
      have_cycles ? "" : "  [no perf counters: F/cyc unavailable]");
  return s;
}

}  // namespace

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "fig5_flops_variance");
  const int p = cli.get_int_as<int>("p", 16, 1);
  const auto per_rank = cli.get_int_as<std::uint64_t>("per-rank", 1500);

  print_header("Figure 5", "per-process flop variance, uniform vs nonuniform");
  const Summary uni =
      run_series(octree::Distribution::kUniform, "uniform", p, per_rank);
  const Summary non =
      run_series(octree::Distribution::kEllipsoid, "nonuniform", p, per_rank);

  std::printf(
      "Paper reference: the nonuniform distribution shows much larger\n"
      "flop variability than the uniform one (different y-scales in the\n"
      "paper's plots). Measured stddev/avg: uniform %.3f, nonuniform %.3f\n",
      uni.stddev / uni.avg, non.stddev / non.avg);
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
