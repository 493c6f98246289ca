/// \file timestep.cpp
/// \brief Amortized setup cost under time-stepping — the incremental
/// repair path (ROADMAP item 3) against the full-rebuild baseline.
///
/// A core::TimeStepper advects a churn-controlled fraction of the
/// points through a swirl velocity field each step and calls
/// ParallelFmm::update_points. With --incremental (default) the tree
/// and LET are repaired in place, so per-step setup cost tracks the
/// churn; the baseline (FmmOptions::incremental_setup = off) re-runs
/// the whole setup pipeline every step. Both paths produce bitwise
/// identical potentials (tests/test_incremental.cpp), so the CPU-
/// seconds-per-step ratio printed here is pure setup amortization.
///
/// CI runs this under the distinct bench key "timestep" with
/// --history-out, so tools/pkifmm_trend gates the amortized
/// cost-per-step trajectory separately from the evaluation benches.
///
/// `--health --eval=1` additionally runs the numerical-health layer
/// (DESIGN.md §5g) every evaluation: the TimeStepper then diffs the
/// sampled accuracy step-over-step and raises health.drift.* warnings
/// when the error grows past FmmOptions::health_drift_ratio times the
/// early-step baseline.

#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "core/timestep.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

/// Comma-separated churn fractions, each parsed whole (the rule of
/// Cli::get_double) and checked to lie in [0, 1].
std::vector<double> parse_churns(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    double v = 0.0;
    PKIFMM_CHECK_MSG(util::parse_double(tok, v) && v >= 0.0 && v <= 1.0,
                     "--churn expects a number in [0, 1], got '" << tok
                                                                << "'");
    out.push_back(v);
  }
  return out;
}

}  // namespace

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "timestep");
  const int p = cli.get_int_as<int>("p", 4, 1);
  const auto n = cli.get_int_as<std::uint64_t>("n", 20000);
  const int steps = cli.get_int_as<int>("steps", 4);
  PKIFMM_CHECK_MSG(steps >= 1, "--steps must be at least 1, got " << steps);
  const bool do_eval = cli.get_bool("eval", false);
  const auto dist =
      octree::distribution_from_name(cli.get("dist", "ellipsoid"));
  const auto churns = parse_churns(cli.get("churn", "0.001,0.01,0.1,0.5"));

  print_header("Time-stepping setup amortization",
               "incremental tree/LET repair vs full rebuild per step");

  const core::Tables& base = tables_for("laplace", core::FmmOptions{});
  core::FmmOptions opts = base.options();
  opts.max_points_per_leaf = cli.get_int_as<int>("q", 60);
  apply_flow_flags(opts);

  // The swirl: rotation about the vertical axis through the cube
  // center plus a z-dependent drift, so points cross leaf boundaries
  // at every depth.
  const core::VelocityFn swirl = [](std::uint64_t, const std::array<double, 3>& x,
                                    double) {
    return std::array<double, 3>{-(x[1] - 0.5), x[0] - 0.5,
                                 0.3 * (x[0] - 0.5)};
  };

  Table table({"churn", "mode", "setup0 cpu (s)", "step setup cpu (s)",
               "moved/step", "speedup"});
  bool ok_3x = true;
  for (const double churn : churns) {
    double per_step[2] = {0.0, 0.0};  // [0]=full, [1]=incremental
    for (const int incremental : {0, 1}) {
      core::FmmOptions o = opts;
      o.incremental_setup = incremental != 0;
      const core::Tables tables = base.with_options(o);

      std::vector<double> setup_cpu(p, 0.0);
      std::vector<double> steps_cpu(p, 0.0);  // all update_points calls
      std::vector<std::size_t> moved(p, 0);
      const auto reports = comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
        auto pts = octree::generate_points(dist, n, ctx.rank(), p, 1, 77);
        core::ParallelFmm fmm(ctx, tables);
        {
          const double t0 = thread_cpu_seconds();
          fmm.setup(std::move(pts));
          setup_cpu[ctx.rank()] = thread_cpu_seconds() - t0;
        }
        core::TimeStepOptions ts_opts;
        ts_opts.dt = 0.02;
        ts_opts.move_fraction = churn;
        core::TimeStepper ts(fmm, swirl, ts_opts);
        for (int s = 0; s < steps; ++s) {
          const double t0 = thread_cpu_seconds();
          moved[ctx.rank()] += ts.step();
          steps_cpu[ctx.rank()] += thread_cpu_seconds() - t0;
          if (do_eval) (void)fmm.evaluate();
        }
      });

      ExperimentConfig cfg;
      cfg.p = p;
      cfg.dist = dist;
      cfg.n_points = n;
      cfg.seed = 77;
      cfg.opts = o;
      record_run("fmm", cfg, "laplace", reports, comm::CostModel{});

      const Summary s0 = Summary::of(setup_cpu);
      const Summary ss = Summary::of(steps_cpu);
      std::uint64_t moved_total = 0;
      for (const std::size_t m : moved) moved_total += m;
      per_step[incremental] = ss.max / steps;
      table.add_row({fixed(100.0 * churn, 1) + "%",
                     incremental ? "incremental" : "full rebuild",
                     sci(s0.max), sci(per_step[incremental]),
                     std::to_string(moved_total / steps),
                     incremental ? fixed(per_step[0] / per_step[1], 1) + "x"
                                 : "1.0x"});
    }
    if (churn <= 0.01 && per_step[1] > 0.0 &&
        per_step[0] / per_step[1] < 3.0)
      ok_3x = false;
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Per-step setup cost: the incremental path repairs only dirty\n"
      "leaves and their LET neighborhoods, the baseline re-runs the\n"
      "full sample-sort + tree + LET pipeline. Both produce bitwise\n"
      "identical potentials.\n");
  std::printf("amortization at <=1%% churn: %s (target >= 3x)\n",
              ok_3x ? "ok" : "BELOW TARGET");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
