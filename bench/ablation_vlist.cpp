/// \file ablation_vlist.cpp
/// \brief Ablation A: FFT-diagonal vs dense V-list (M2L) translation.
///
/// The paper's KIFMM diagonalizes the V-list translation with FFTs
/// (§IV). The dense alternative applies a precomputed (m*m) matrix per
/// interaction pair. This bench measures both on the same trees and
/// reports CPU time and flops, across surface orders n.

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

int main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "ablation_vlist");
  const auto n_points = static_cast<std::uint64_t>(cli.get_int("n", 20000));

  print_header("Ablation A", "V-list translation: FFT-diagonal vs dense");
  Table table({"surface n", "mode", "vli cpu (s)", "vli flops", "speedup"});

  for (int sn : {4, 6, 8}) {
    double dense_time = 0.0;
    for (auto mode : {core::M2lMode::kDense, core::M2lMode::kFft}) {
      ExperimentConfig cfg;
      cfg.p = 1;
      cfg.dist = octree::Distribution::kUniform;
      cfg.n_points = n_points;
      cfg.opts.surface_n = sn;
      cfg.opts.max_points_per_leaf = 50;
      cfg.opts.m2l = mode;
      cfg.opts.load_balance = false;
      // First run warms the lazily built translation tables (dense
      // matrices are assembled on first use); time the second.
      cfg.n_points = 2000;
      (void)run_fmm(cfg, "laplace");
      cfg.n_points = n_points;
      Experiment exp = run_fmm(cfg, "laplace");
      const double t = exp.reports[0].cpu_phases.at("eval.vli");
      const double f = exp.phase_flops("eval.vli")[0];
      const bool is_dense = mode == core::M2lMode::kDense;
      if (is_dense) dense_time = t;
      table.add_row({std::to_string(sn), is_dense ? "dense" : "fft",
                     sci(t), sci(f),
                     is_dense ? "1.0x" : fixed(dense_time / t, 1) + "x"});
    }
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape: per pair the dense form costs ~2 m^2 flops and the\n"
      "diagonal form ~8 N^2 (N/2+1) over the half spectrum, N the smallest\n"
      "2^a 3^b >= 2n-1 (8, 12, 16 at n = 4, 6, 8). FFT is level with dense\n"
      "at n = 4 and wins from n = 6, by more as n (accuracy) grows.\n");
  return 0;
}
