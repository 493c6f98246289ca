/// \file timestep.cpp
/// \brief Amortized setup cost under time-stepping — the incremental
/// repair (ParallelFmm::update_points) against a from-scratch setup().
///
/// A core::TimeStepper advects a churn-controlled fraction of the
/// points through a swirl velocity field each step and calls
/// ParallelFmm::update_points, which repairs the tree and LET in place
/// so per-step setup cost tracks the churn. The baseline, timed each
/// step inside the same rank run, is a from-scratch ParallelFmm::setup()
/// of the cloud that step produced (each rank's owned points after the
/// repair) on a second ParallelFmm. The repair is bitwise identical to
/// that setup (tests/test_incremental.cpp), so the CPU-seconds-per-step
/// ratio printed here is pure setup amortization.
///
/// CI runs this under the distinct bench key "timestep" with
/// --history-out, so tools/pkifmm_trend gates the amortized
/// cost-per-step trajectory separately from the evaluation benches.
///
/// `--health --eval=1` additionally runs the numerical-health layer
/// (DESIGN.md §5g) every evaluation: the TimeStepper then diffs the
/// sampled accuracy step-over-step and raises health.drift.* warnings
/// when the error grows past obs::kDriftRatio (10) times the early-step
/// baseline.

#include <cstdio>
#include <sstream>

#include "common.hpp"
#include "core/timestep.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

/// This rank's owned points as the repaired LET holds them.
std::vector<octree::PointRec> owned_points(const core::ParallelFmm& fmm) {
  std::vector<octree::PointRec> out;
  for (const octree::LetNode& node : fmm.let().nodes)
    if (node.owned && node.global_leaf) {
      const auto pts = fmm.let().points_of(node);
      out.insert(out.end(), pts.begin(), pts.end());
    }
  return out;
}

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
               "incremental tree/LET repair vs from-scratch setup() per step");

  const core::Tables& base = tables_for("laplace", core::FmmOptions{});
  core::FmmOptions opts = base.options();
  opts.max_points_per_leaf = cli.get_int_as<int>("q", 60);
  apply_flow_flags(opts);
  const core::Tables tables = base.with_options(opts);

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
  for (const double churn : churns) {
    std::vector<double> setup_cpu(p, 0.0);
    std::vector<double> incr_cpu(p, 0.0);     // all update_points calls
    std::vector<double> rebuild_cpu(p, 0.0);  // all baseline setup()s
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
      // One baseline object for all steps: a fresh one per step frees
      // and re-allocates a whole set-up between two repairs, which
      // raised the repair's own step CPU by ~20% at the CI config.
      core::ParallelFmm rebuild(ctx, tables);
      for (int s = 0; s < steps; ++s) {
        double t0 = thread_cpu_seconds();
        moved[ctx.rank()] += ts.step();
        incr_cpu[ctx.rank()] += thread_cpu_seconds() - t0;

        auto cloud = owned_points(fmm);
        t0 = thread_cpu_seconds();
        rebuild.setup(std::move(cloud));
        rebuild_cpu[ctx.rank()] += thread_cpu_seconds() - t0;

        if (do_eval) (void)fmm.evaluate();
      }
    });

    ExperimentConfig cfg;
    cfg.p = p;
    cfg.dist = dist;
    cfg.n_points = n;
    cfg.seed = 77;
    cfg.opts = opts;
    record_run("fmm", cfg, "laplace", reports, comm::CostModel{});

    const std::string setup0 = sci(Summary::of(setup_cpu).max);
    std::uint64_t moved_total = 0;
    for (const std::size_t m : moved) moved_total += m;
    const std::string moved_per_step = std::to_string(moved_total / steps);
    const double full = Summary::of(rebuild_cpu).max / steps;
    const double incr = Summary::of(incr_cpu).max / steps;
    const std::string pct = fixed(100.0 * churn, 1) + "%";
    table.add_row({pct, "full rebuild", setup0, sci(full), moved_per_step,
                   "1.0x"});
    table.add_row({pct, "incremental", setup0, sci(incr), moved_per_step,
                   fixed(full / incr, 1) + "x"});
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Per-step setup cost: update_points repairs only dirty leaves and\n"
      "their LET neighborhoods; the baseline runs setup() (sample sort,\n"
      "tree, LET) from scratch on the same stepped cloud. Both produce\n"
      "bitwise identical potentials.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
