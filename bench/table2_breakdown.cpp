/// \file table2_breakdown.cpp
/// \brief Reproduces paper Table II: per-phase timing/flops of the
/// evaluation phase for the nonuniform distribution.
///
/// Paper setup: 65,536 processes, 150K points/process, Stokes kernel
/// (30B unknowns), tree spanning levels 2..27. Rows: Total eval,
/// Upward, Comm, U-list, V-list, W-list, X-list, Downward, Comp, each
/// with Max./Avg. wall time and Max./Avg. flops; plus setup and sort
/// times in the caption. Here the same table is produced at simulator
/// scale (default p = 16, 1500 points/rank).

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "table2_breakdown");
  const int p = cli.get_int_as<int>("p", 16, 1);
  const auto per_rank = cli.get_int_as<std::uint64_t>("per-rank", 1500);

  print_header("Table II", "evaluation-phase breakdown, nonuniform, Stokes");

  ExperimentConfig cfg;
  cfg.p = p;
  cfg.dist = octree::Distribution::kEllipsoid;
  cfg.n_points = per_rank * p;
  cfg.opts.surface_n = 4;
  cfg.opts.max_points_per_leaf = 40;
  // Intra-rank task pool (0 extra workers by default, so the
  // BENCH_history.jsonl trajectory stays a serial-evaluator record).
  cfg.opts.threads_per_rank = cli.get_int_as<int>("threads", 1);
  cfg.opts.clamp_threads = cli.get_bool("clamp", true);
  Experiment exp = run_fmm(cfg, "stokes");

  Table table({"Event", "Max. Time", "Avg. Time", "Max. Flops", "Avg. Flops",
               "Max RSSd"});
  auto row = [&](const char* name, std::initializer_list<const char*> prefixes) {
    // Per-rank sums over the listed phases, then Max/Avg across ranks.
    // The RSS column is the max across ranks of the process peak-RSS
    // advance while the phase was open (mem.<phase>.peak_rss_delta_bytes
    // is keyed by EXACT span name — "eval." means the inclusive "eval"
    // root span, not a sum over children).
    std::vector<double> t(p, 0.0), f(p, 0.0), rss(p, 0.0);
    for (const char* pre : prefixes) {
      const auto pt = exp.phase_times(pre);
      const auto pf = exp.phase_flops(pre);
      std::string span = pre;
      if (!span.empty() && span.back() == '.') span.pop_back();
      const auto pr = exp.obs_counter("mem." + span + ".peak_rss_delta_bytes");
      for (int r = 0; r < p; ++r) {
        t[r] += pt[r];
        f[r] += pf[r];
        rss[r] += pr[r];
      }
    }
    const Summary st = Summary::of(t), sf = Summary::of(f),
                  sr = Summary::of(rss);
    table.add_row({name, sci(st.max), sci(st.avg), sci(sf.max), sci(sf.avg),
                   sci(sr.max)});
  };

  row("Total eval", {"eval."});
  row("Upward", {"eval.s2u", "eval.u2u"});
  row("Comm.", {"eval.comm"});
  row("U-list", {"eval.uli"});
  row("V-list", {"eval.vli"});
  row("W-list", {"eval.wli"});
  row("X-list", {"eval.xli"});
  row("Downward", {"eval.down", "eval.d2t"});
  // "Comp" = total evaluation minus communication.
  {
    const auto te = exp.phase_times("eval.");
    const auto tc = exp.phase_times("eval.comm");
    const auto fe = exp.phase_flops("eval.");
    std::vector<double> t(p);
    for (int r = 0; r < p; ++r) t[r] = te[r] - tc[r];
    const Summary st = Summary::of(t), sf = Summary::of(fe);
    table.add_row({"Comp", sci(st.max), sci(st.avg), sci(sf.max), sci(sf.avg),
                   "-"});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("Process peak RSS: %.1f MiB (RSSd = peak-RSS advance while the\n"
              "phase was open; ranks share one address space, so deltas are\n"
              "attributed to whichever rank's phase the advance landed in).\n\n",
              static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0));

  const Summary setup = exp.time_summary("setup.");
  const Summary tree = exp.time_summary("setup.tree");
  std::printf(
      "Setup took %s s (max across ranks), of which %s s in the tree\n"
      "construction incl. the particle sort. p = %d, %llu points/rank,\n"
      "3 unknowns/point (Stokes): %s unknowns total.\n",
      sci(setup.max).c_str(), sci(tree.max).c_str(), p,
      static_cast<unsigned long long>(per_rank),
      with_commas(3 * cfg.n_points).c_str());
  std::printf(
      "\nPaper reference (65,536 cores, 30B unknowns): eval max 1.37e+02 s,\n"
      "avg 1.20e+02 s; U- and V-lists dominate and are comparable; W/X are\n"
      "~4x smaller; comm is a small fraction of total eval.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
