/// \file fig3_strong.cpp
/// \brief Reproduces paper Figure 3: MPI strong scaling on Kraken.
///
/// Paper setup: fixed problem size (200M uniform / 100M nonuniform
/// points, Stokes kernel), p = 512..8K processes; reported as per-phase
/// average bars plus a max-across-ranks dot; observed efficiency
/// 80-90%. Here the same experiment runs at simulator scale (defaults:
/// 16K uniform / 8K nonuniform points, p = 1..16) with per-rank time =
/// measured thread-CPU work + alpha-beta modeled communication.

#include <cstdio>
#include <algorithm>
#include <vector>
#include <string>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

void run_series(octree::Distribution dist, const char* label,
                std::uint64_t n, int pmax, int q) {
  std::printf("-- %s distribution, N = %llu (Stokes kernel, %d pts/leaf)\n",
              label, static_cast<unsigned long long>(n), q);
  Table table({"p", "setup", "eval.up", "eval.comm", "U-list", "V-list",
               "W+X", "down", "eval avg", "eval max", "efficiency",
               "eval avg (bar; x = max)"});

  double t1 = -1.0;
  std::vector<std::vector<std::string>> rows;
  std::vector<double> avgs, maxs;
  for (int p = 1; p <= pmax; p *= 2) {
    ExperimentConfig cfg;
    cfg.p = p;
    cfg.dist = dist;
    cfg.n_points = n;
    cfg.opts.surface_n = 4;
    cfg.opts.max_points_per_leaf = q;
    if (p == 1) cfg.opts.load_balance = false;
    Experiment exp = run_fmm(cfg, "stokes");

    const Summary eval = exp.time_summary("eval.");
    const Summary setup = exp.time_summary("setup.");
    auto up = exp.time_summary("eval.s2u").avg + exp.time_summary("eval.u2u").avg;
    auto wx = exp.time_summary("eval.wli").avg + exp.time_summary("eval.xli").avg;
    auto down = exp.time_summary("eval.down").avg + exp.time_summary("eval.d2t").avg;
    if (t1 < 0) t1 = eval.max;
    const double eff = t1 / (eval.max * p);

    rows.push_back({std::to_string(p), sci(setup.avg), sci(up),
                    sci(exp.time_summary("eval.comm").avg),
                    sci(exp.time_summary("eval.uli").avg),
                    sci(exp.time_summary("eval.vli").avg), sci(wx), sci(down),
                    sci(eval.avg), sci(eval.max),
                    fixed(100.0 * eff, 1) + "%"});
    avgs.push_back(eval.avg);
    maxs.push_back(eval.max);
  }
  // Bars in the paper's style: average as the bar, max as the dot.
  const double vmax = *std::max_element(maxs.begin(), maxs.end());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::string b = bar(avgs[i], vmax);
    const int dot = std::min<int>(int(maxs[i] / vmax * 24 + 0.5), 23);
    b[dot] = 'x';
    rows[i].push_back(b);
    table.add_row(rows[i]);
  }
  std::printf("%s\n", table.str().c_str());
}

}  // namespace

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "fig3_strong");
  const int pmax = cli.get_int_as<int>("pmax", 16, 1);
  const auto n_uniform =
      cli.get_int_as<std::uint64_t>("n-uniform", 16000);
  const auto n_nonuniform =
      cli.get_int_as<std::uint64_t>("n-nonuniform", 8000);

  print_header("Figure 3", "MPI strong scaling (fixed N, growing p)");
  run_series(octree::Distribution::kUniform, "uniform", n_uniform, pmax, 60);
  run_series(octree::Distribution::kEllipsoid, "nonuniform", n_nonuniform,
             pmax, 40);
  std::printf(
      "Paper reference: 80-90%% parallel efficiency over a 16x rank "
      "range,\nwith good load balance (max close to avg).\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
