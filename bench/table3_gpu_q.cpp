/// \file table3_gpu_q.cpp
/// \brief Reproduces paper Table III: single-GPU points-per-box sweep.
///
/// Paper setup: 1M uniform points, Laplace kernel, one GPU, q in
/// {30, 244, 1953}. Reported seconds: Total evaluation / Upward Pass /
/// U list / V list / Downward Pass. The point: small q makes the
/// V-list (bandwidth-bound on the GPU) dominate, huge q makes the
/// U-list (direct sums) dominate, and the optimum sits in between —
/// "this resembles the tuning phase and can be part of an autotuning
/// algorithm". Here the same sweep at simulator scale (default 20K
/// points), with device times from the streaming cost model and host
/// times at the paper's 500 MFlop/s core rate.

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "table3_gpu_q");
  // The paper's q values are exactly 1M/8^5, 1M/8^4, 1M/8^3 — each q
  // puts the uniform tree one level shallower. We scale N to 15360 and
  // keep the same level semantics: q = N/8^3, N/8^2, N/8^1.
  const auto n = cli.get_int_as<std::uint64_t>("n", 15360);

  print_header("Table III",
               "single GPU, effect of points-per-box q (uniform, Laplace)");
  std::printf("N = %llu; q chosen per tree level like the paper's "
              "{30, 244, 1953} at N = 1M\n\n",
              static_cast<unsigned long long>(n));

  // 1.4x above each level's mean occupancy so Poisson fluctuation does
  // not push boxes over the threshold (giving clean one-level trees,
  // like the paper's 1M-point sweep).
  const int qs[] = {static_cast<int>(n * 14 / (512 * 10)),
                    static_cast<int>(n * 14 / (64 * 10)),
                    static_cast<int>(n * 14 / (8 * 10))};
  Table table({"q", std::to_string(qs[0]), std::to_string(qs[1]),
               std::to_string(qs[2])});
  std::vector<std::array<double, 3>> rows(7);  // + host, transfers

  for (int qi = 0; qi < 3; ++qi) {
    ExperimentConfig cfg;
    cfg.p = 1;
    cfg.dist = octree::Distribution::kUniform;
    cfg.n_points = n;
    cfg.opts.surface_n = 4;
    cfg.opts.max_points_per_leaf = qs[qi];
    cfg.opts.load_balance = false;
    GpuRun run = run_gpu_fmm(cfg);

    const comm::CostModel model = run.model;
    auto host_flops = [&](const char* phase) {
      return model.compute_time(static_cast<std::uint64_t>(
          run.reports[0].sum(std::string("flops.") + phase)));
    };
    const double up = run.device_times("s2u")[0] + host_flops("eval.s2u.host") +
                      host_flops("eval.u2u");
    const double ul = run.device_times("uli")[0];
    const double vl = run.device_times("vli")[0] + host_flops("eval.vli.host");
    const double down = run.device_times("d2t")[0] + host_flops("eval.down");
    const double total = run.eval_times()[0];
    rows[0][qi] = total;
    rows[1][qi] = up;
    rows[2][qi] = ul;
    rows[3][qi] = vl;
    rows[4][qi] = down;
    rows[5][qi] = run.host_times()[0];
    rows[6][qi] = run.dev_transfer_seconds[0];
  }

  const char* names[] = {"Total evaluation", "Upward Pass", "U list", "V list",
                         "Downward Pass",    "(host phases)", "(transfers)"};
  for (int r = 0; r < 7; ++r)
    table.add_row({names[r], fixed(rows[r][0], 3), fixed(rows[r][1], 3),
                   fixed(rows[r][2], 3)});
  std::printf("%s\n", table.str().c_str());

  std::printf(
      "Paper reference (1M points): total 5.13 / 1.17 / 2.15 s for q =\n"
      "30 / 244 / 1953 — V list dominates at small q (3.76 s), U list at\n"
      "large q (1.9 s), interior optimum at q = 244.\n");
  const bool interior_opt =
      rows[0][1] < rows[0][0] && rows[0][1] < rows[0][2];
  std::printf("Measured shape: V dominates at q=30: %s; U dominates at "
              "q=1953: %s; interior optimum: %s\n",
              rows[3][0] > rows[2][0] ? "yes" : "NO",
              rows[2][2] > rows[3][2] ? "yes" : "NO",
              interior_opt ? "yes" : "NO");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
