/// \file repeat_eval.cpp
/// \brief Setup amortization over repeated evaluations — the paper's
/// target applications (fluid mechanics time-steppers) call the
/// evaluation every step on a slowly changing particle set, which is
/// why the setup/evaluation split of Figs. 3-4 matters. This bench
/// times one setup plus a sequence of evaluations with refreshed
/// densities (exercising the ghost-density exchange, the paper's first
/// evaluation-phase communication step).
///
/// `--threads=K` enables the intra-rank task pool (K threads per rank,
/// util::TaskPool); wall-clock columns show the speedup. CPU-seconds
/// columns stay roughly constant — the same arithmetic runs, spread
/// over workers — which is itself a useful sanity check. `--clamp=0`
/// bypasses the oversubscription guard (for measuring on boxes whose
/// core count is below p * K).
///
/// `--health` enables the numerical-health layer (DESIGN.md §5g);
/// `--health-overhead-check` measures its cost: the bench runs the
/// same workload twice — health off, then health on at the requested
/// (or default) sample rate — prints the evaluate-wall overhead
/// percentage, and exits nonzero when it exceeds
/// `--max-overhead-pct` (default 2). Only the health-ON run is fed to
/// --metrics-out/--summary-out so the recorded summary carries the
/// health section the check is about.

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

/// One full bench pass: setup + `steps` evaluations with refreshed
/// densities under the given options.
struct PassResult {
  std::vector<double> setup_cpu;
  std::vector<std::vector<double>> step_cpu;
  std::vector<std::vector<double>> step_wall;
  double setup_rss = 0.0;           ///< rank-0 VmHWM after setup
  std::vector<double> step_rss;     ///< rank-0 VmHWM after each step
  std::vector<comm::RankReport> reports;

  /// Mean across steps of the max-across-ranks evaluate wall.
  double mean_eval_wall() const {
    double sum = 0.0;
    for (const auto& w : step_wall) sum += Summary::of(w).max;
    return step_wall.empty() ? 0.0 : sum / double(step_wall.size());
  }
};

PassResult run_pass(const core::Tables& tables, int p, int threads,
                    bool clamp, octree::Distribution dist, std::uint64_t n,
                    int steps) {
  PassResult r;
  r.setup_cpu.assign(p, 0.0);
  r.step_cpu.assign(steps, std::vector<double>(p));
  r.step_wall.assign(steps, std::vector<double>(p));
  r.step_rss.assign(steps, 0.0);
  r.reports = comm::Runtime::run(p, threads, clamp, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(dist, n, ctx.rank(), p, 1, 77);
    core::ParallelFmm fmm(ctx, tables);
    {
      const double t0 = thread_cpu_seconds();
      fmm.setup(std::move(pts));
      r.setup_cpu[ctx.rank()] = thread_cpu_seconds() - t0;
      if (ctx.rank() == 0)
        r.setup_rss = static_cast<double>(obs::peak_rss_bytes());
    }

    std::vector<std::uint64_t> gids;
    for (const auto& node : fmm.let().nodes) {
      if (!node.owned) continue;
      for (const auto& pt : fmm.let().points_of(node)) gids.push_back(pt.gid);
    }
    Rng rng(5, ctx.rank());
    for (int s = 0; s < steps; ++s) {
      // New densities each "time step".
      std::vector<double> den(gids.size());
      for (auto& v : den) v = rng.uniform(-1, 1);
      fmm.set_densities(gids, den);
      const double t0 = thread_cpu_seconds();
      const double w0 = obs::wall_seconds();
      (void)fmm.evaluate();
      r.step_cpu[s][ctx.rank()] = thread_cpu_seconds() - t0;
      r.step_wall[s][ctx.rank()] = obs::wall_seconds() - w0;
      if (ctx.rank() == 0)
        r.step_rss[s] = static_cast<double>(obs::peak_rss_bytes());
    }
  });
  return r;
}

}  // namespace

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "repeat_eval");
  const int p = cli.get_int_as<int>("p", 4, 1);
  const auto n = cli.get_int_as<std::uint64_t>("n", 20000);
  const int steps = cli.get_int_as<int>("steps", 5);
  PKIFMM_CHECK_MSG(steps >= 1, "--steps must be at least 1, got " << steps);
  const int threads = cli.get_int_as<int>("threads", 1);
  const bool clamp = cli.get_bool("clamp", true);
  const bool overhead_check = cli.has("health-overhead-check");
  const double max_overhead_pct =
      cli.get_double("max-overhead-pct", 2.0);
  const auto dist =
      octree::distribution_from_name(cli.get("dist", "ellipsoid"));

  print_header("Repeated evaluation",
               "setup amortization over time-stepper-style calls");

  const core::Tables& base = tables_for("laplace", core::FmmOptions{});
  core::FmmOptions opts = base.options();
  opts.max_points_per_leaf = cli.get_int_as<int>("q", 60);
  opts.threads_per_rank = threads;
  opts.clamp_threads = clamp;
  apply_flow_flags(opts);  // drives Runtime directly, not via run_fmm
  if (overhead_check) opts.health = true;  // the thing being measured
  const core::Tables tables = base.with_options(opts);

  // Baseline pass for the overhead check: identical options with the
  // health layer off.
  double off_wall = 0.0;
  if (overhead_check) {
    core::FmmOptions off_opts = opts;
    off_opts.health = false;
    off_opts.health_fatal = false;
    const core::Tables off_tables = base.with_options(off_opts);
    off_wall = run_pass(off_tables, p, threads, clamp, dist, n, steps)
                   .mean_eval_wall();
  }

  const PassResult r = run_pass(tables, p, threads, clamp, dist, n, steps);

  // Feed --metrics-out/--summary-out/--history-out: this bench drives
  // the Runtime directly, so it must hand its reports to the log.
  ExperimentConfig cfg;
  cfg.p = p;
  cfg.dist = dist;
  cfg.n_points = n;
  cfg.seed = 77;
  cfg.opts = opts;
  record_run("fmm", cfg, "laplace", r.reports, comm::CostModel{});

  std::printf("threads per rank: %d (clamp %s)\n\n", threads,
              clamp ? "on" : "off");
  Table table({"phase", "max cpu (s)", "avg cpu (s)", "max wall (s)",
               "peak RSS (MiB)"});
  const auto mib = [](double b) { return fixed(b / (1024.0 * 1024.0), 1); };
  const Summary s0 = Summary::of(r.setup_cpu);
  table.add_row({"setup (once)", sci(s0.max), sci(s0.avg), "-",
                 mib(r.setup_rss)});
  double eval_sum = 0.0, wall_sum = 0.0;
  for (int s = 0; s < steps; ++s) {
    const Summary ss = Summary::of(r.step_cpu[s]);
    const Summary sw = Summary::of(r.step_wall[s]);
    table.add_row({"evaluate step " + std::to_string(s + 1), sci(ss.max),
                   sci(ss.avg), sci(sw.max), mib(r.step_rss[s])});
    eval_sum += ss.max;
    wall_sum += sw.max;
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Setup is %.1f%% of one evaluation; amortized over %d steps it is\n"
      "%.1f%% of total time. Evaluations after the first cost the same\n"
      "(the tree, LET and lists are reused; only densities move).\n",
      100.0 * s0.max / (eval_sum / steps), steps,
      100.0 * s0.max / (s0.max + eval_sum));
  std::printf("Mean evaluate wall: %.3e s/step over %d step(s).\n",
              wall_sum / steps, steps);

  if (overhead_check) {
    const double on_wall = r.mean_eval_wall();
    const double overhead_pct =
        off_wall > 0.0 ? 100.0 * (on_wall - off_wall) / off_wall : 0.0;
    std::printf(
        "\nHealth overhead: off %.3e s/step, on %.3e s/step "
        "(rate %.2e) -> %+.2f%% (limit %.1f%%)\n",
        off_wall, on_wall, opts.health_sample_rate, overhead_pct,
        max_overhead_pct);
    if (overhead_pct > max_overhead_pct) {
      std::fprintf(stderr,
                   "repeat_eval: health overhead %.2f%% exceeds limit "
                   "%.1f%%\n",
                   overhead_pct, max_overhead_pct);
      return 1;
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
