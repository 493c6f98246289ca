/// \file ablation_reduce.cpp
/// \brief Ablation B: hypercube reduce-scatter (paper Algorithm 3) vs
/// the per-octant owner reduction (the paper's previous scheme).
///
/// The owner scheme "worked well on up to 32K processes, but failed in
/// the 64K case" (§III-C): octants near the root have O(p) users, so
/// the owner rank sends O(p) messages. Algorithm 3 bounds the per-rank
/// communication by O(t_s log p + t_w m (3 sqrt(p) - 2)). This bench
/// sweeps p and reports the evaluation-phase communication: max
/// messages per rank, total volume, and modeled time.

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "ablation_reduce");
  const int pmax = cli.get_int_as<int>("pmax", 32, 1);
  const auto per_rank = cli.get_int_as<std::uint64_t>("per-rank", 500);

  print_header("Ablation B",
               "upward-density reduction: hypercube vs owner-based");
  Table table({"p", "scheme", "max msgs/rank", "total MB", "modeled comm max"});

  for (int p = 4; p <= pmax; p *= 2) {
    for (auto mode : {core::ReduceMode::kHypercube, core::ReduceMode::kOwner}) {
      ExperimentConfig cfg;
      cfg.p = p;
      cfg.dist = octree::Distribution::kEllipsoid;
      cfg.n_points = per_rank * p;
      cfg.opts.surface_n = 4;
      cfg.opts.max_points_per_leaf = 30;
      cfg.opts.reduce = mode;
      Experiment exp = run_fmm(cfg, "laplace");
      const auto comm = exp.comm_times("eval.comm");
      table.add_row(
          {std::to_string(p),
           mode == core::ReduceMode::kHypercube ? "hypercube" : "owner",
           std::to_string(exp.max_msgs("eval.comm")),
           fixed(double(exp.total_bytes("eval.comm")) / 1e6, 2),
           sci(Summary::of(comm).max)});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape: hypercube message count per rank stays log2(p)\n"
      "while the owner scheme's max messages grow ~linearly with p (the\n"
      "64K-core failure mode the paper reports).\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
