/// \file fig4_weak.cpp
/// \brief Reproduces paper Figure 4: MPI weak scaling on Kraken.
///
/// Paper setup: fixed points per process (25K uniform / 100K
/// nonuniform), p = 16..64K, Stokes kernel. Two headline claims: (1)
/// unlike the SC'03 implementation, tree construction is only a small
/// fraction of the total (about 10% of evaluation at 64K cores, per
/// §I); (2) total time grows mildly (~1.5x over a 4096x rank range) due
/// to the sqrt(p) communication term and load imbalance.

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

void run_series(octree::Distribution dist, const char* label,
                std::uint64_t per_rank, int pmax, int q) {
  std::printf("-- %s distribution, %llu points/rank (Stokes kernel)\n", label,
              static_cast<unsigned long long>(per_rank));
  Table table({"p", "N total", "tree", "let+balance", "setup", "eval avg",
               "eval max", "tree/eval", "growth"});
  double t1 = -1.0;
  for (int p = 1; p <= pmax; p *= 2) {
    ExperimentConfig cfg;
    cfg.p = p;
    cfg.dist = dist;
    cfg.n_points = per_rank * p;
    cfg.opts.surface_n = 4;
    cfg.opts.max_points_per_leaf = q;
    if (p == 1) cfg.opts.load_balance = false;
    Experiment exp = run_fmm(cfg, "stokes");

    const Summary eval = exp.time_summary("eval.");
    const Summary tree = exp.time_summary("setup.tree");
    const Summary setup = exp.time_summary("setup.");
    const double let_bal = exp.time_summary("setup.let").avg +
                           exp.time_summary("setup.balance").avg;
    if (t1 < 0) t1 = eval.max;
    table.add_row({std::to_string(p), with_commas(cfg.n_points),
                   sci(tree.avg), sci(let_bal), sci(setup.avg),
                   sci(eval.avg), sci(eval.max),
                   fixed(100.0 * tree.avg / std::max(eval.avg, 1e-12), 1) + "%",
                   fixed(eval.max / t1, 2) + "x"});
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "fig4_weak");
  const int pmax = cli.get_int_as<int>("pmax", 16, 1);
  const auto uni = cli.get_int_as<std::uint64_t>("uniform-per-rank", 1500);
  const auto non =
      cli.get_int_as<std::uint64_t>("nonuniform-per-rank", 1500);

  print_header("Figure 4", "MPI weak scaling (fixed N/p, growing p)");
  run_series(octree::Distribution::kUniform, "uniform", uni, pmax, 60);
  run_series(octree::Distribution::kEllipsoid, "nonuniform", non, pmax, 40);
  std::printf(
      "Paper reference: tree construction stays a small fraction of the\n"
      "evaluation (vs 15x slower in the SC'03 code), and total time grows\n"
      "~1.5x across the full weak-scaling range.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
