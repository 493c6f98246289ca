/// \file ablation_overlap.cpp
/// \brief Analysis: how much would communication/computation overlap
/// buy? (Paper §I, limitations: "we do not thoroughly overlap
/// computation and communication; ... do not exploit the possibility of
/// overlapping GPU evaluation with work on the CPU.")
///
/// The ULI (direct) phase has no dependency on the upward reduction
/// (paper §II-A: "The APPROXIMATE INTERACTIONS and DIRECT INTERACTIONS
/// parts can be executed concurrently"), so a perfect schedule hides
/// the reduce-scatter behind the direct sums:
///   serial:    T = comm + uli + rest
///   overlapped T = max(comm, uli) + rest
/// This bench computes both from the measured per-rank phase times and
/// reports the headroom across rank counts.

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "ablation_overlap");
  const int pmax = cli.get_int_as<int>("pmax", 32, 1);
  const auto per_rank = cli.get_int_as<std::uint64_t>("per-rank", 800);

  print_header("Overlap analysis",
               "hiding the upward reduction behind the U-list");
  Table table({"p", "comm max", "uli max", "serial eval", "overlapped eval",
               "saving"});

  for (int p = 2; p <= pmax; p *= 2) {
    ExperimentConfig cfg;
    cfg.p = p;
    cfg.dist = octree::Distribution::kEllipsoid;
    cfg.n_points = per_rank * p;
    cfg.opts.surface_n = 4;
    cfg.opts.max_points_per_leaf = 40;
    Experiment exp = run_fmm(cfg, "stokes");

    const auto comm = exp.phase_times("eval.comm");
    const auto uli = exp.phase_times("eval.uli");
    const auto total = exp.phase_times("eval.");
    std::vector<double> serial(p), overlapped(p);
    for (int r = 0; r < p; ++r) {
      serial[r] = total[r];
      overlapped[r] = total[r] - comm[r] - uli[r] + std::max(comm[r], uli[r]);
    }
    const Summary ss = Summary::of(serial), so = Summary::of(overlapped);
    table.add_row({std::to_string(p), sci(Summary::of(comm).max),
                   sci(Summary::of(uli).max), sci(ss.max), sci(so.max),
                   fixed(100.0 * (1.0 - so.max / ss.max), 1) + "%"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape: savings grow with p as the sqrt(p) reduction term\n"
      "becomes a larger share of the evaluation — quantifying what the\n"
      "paper left on the table by not overlapping.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
