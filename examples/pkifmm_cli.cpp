/// \file pkifmm_cli.cpp
/// \brief Command-line driver exposing the full pkifmm configuration
/// surface — the entry point a downstream user scripts against.
///
///   ./pkifmm_cli --n=50000 --kernel=stokes --dist=nonuniform
///                --ranks=8 --q=60 --accuracy=4 --reduce=hypercube
///                --m2l=fft --gradient --check=100
///
/// (one command line, wrapped here).
///
/// Prints tree statistics, the per-phase Max/Avg breakdown (Table II
/// layout), and an optional accuracy check against direct summation on
/// a sample of points.

#include <cstdio>
#include <unordered_map>

#include "comm/comm.hpp"
#include "core/direct.hpp"
#include "core/fmm.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace pkifmm;

static int example_main(int argc, char** argv) {
  Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf(
        "pkifmm_cli options:\n"
        "  --n=N            global point count (default 20000)\n"
        "  --ranks=P        simulated ranks (default 4)\n"
        "  --kernel=K       laplace | stokes | yukawa (default laplace)\n"
        "  --dist=D         uniform | nonuniform | cluster (default uniform)\n"
        "  --q=Q            max points per leaf (default 100)\n"
        "  --accuracy=N     surface order 4|6|8 (default 6)\n"
        "  --m2l=M          fft | dense (default fft)\n"
        "  --reduce=R       hypercube | owner (default hypercube)\n"
        "  --no-load-balance  disable work-weighted repartitioning\n"
        "  --gradient       also evaluate grad(potential)\n"
        "  --check=S        verify S sample points against direct sum\n"
        "  --seed=X         point-generation seed (default 42)\n");
    return 0;
  }

  const std::int64_t n_arg = cli.get_int("n", 20000);
  PKIFMM_CHECK_MSG(n_arg >= 1, "--n must be at least 1, got " << n_arg);
  const auto n = static_cast<std::uint64_t>(n_arg);
  const int p = cli.get_int_as<int>("ranks", 4, 1);
  const std::string kernel_name = cli.get("kernel", "laplace");
  const auto dist = octree::distribution_from_name(cli.get("dist", "uniform"));
  const bool gradient = cli.get_bool("gradient", false);
  const std::int64_t check_arg = cli.get_int("check", 0);
  PKIFMM_CHECK_MSG(check_arg >= 0,
                   "--check must be at least 0, got " << check_arg);
  const auto check = static_cast<std::size_t>(check_arg);
  const auto seed = cli.get_int_as<std::uint64_t>("seed", 42);

  auto kernel = kernels::make_kernel(kernel_name);
  core::FmmOptions opts;
  opts.surface_n = cli.get_int_as<int>("accuracy", 6);
  opts.max_points_per_leaf = cli.get_int_as<int>("q", 100);
  const std::string m2l = cli.get("m2l", "fft");
  PKIFMM_CHECK_MSG(m2l == "fft" || m2l == "dense",
                   "unknown --m2l '" << m2l << "' (fft | dense)");
  opts.m2l = m2l == "dense" ? core::M2lMode::kDense : core::M2lMode::kFft;
  const std::string reduce = cli.get("reduce", "hypercube");
  PKIFMM_CHECK_MSG(reduce == "hypercube" || reduce == "owner",
                   "unknown --reduce '" << reduce << "' (hypercube | owner)");
  opts.reduce = reduce == "owner" ? core::ReduceMode::kOwner
                                  : core::ReduceMode::kHypercube;
  opts.load_balance = !cli.get_bool("no-load-balance", false);
  PKIFMM_CHECK_MSG(!gradient || kernel->gradient() != nullptr,
                   "kernel '" << kernel_name << "' has no gradient");

  std::printf("pkifmm: N=%llu kernel=%s ranks=%d q=%d accuracy=%d\n",
              static_cast<unsigned long long>(n), kernel_name.c_str(), p,
              opts.max_points_per_leaf, opts.surface_n);

  Timer build_timer;
  const core::Tables tables(*kernel, opts);
  std::printf("translation tables built in %.2f s\n", build_timer.seconds());

  auto reports = comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(dist, n, ctx.rank(), ctx.size(),
                                       kernel->source_dim(), seed);
    const auto mine = pts;
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    if (ctx.rank() == 0) {
      const auto& let = fmm.let();
      std::printf("rank 0: LET %zu octants, leaf levels %d..%d\n",
                  let.nodes.size(), let.min_leaf_level(),
                  let.max_leaf_level());
    }
    auto result = fmm.evaluate(gradient);

    if (check > 0) {
      const std::size_t s = std::min(check, mine.size());
      std::vector<octree::PointRec> sample;
      for (const auto& pt : mine) {
        if (!pt.is_target()) continue;
        sample.push_back(pt);
        if (sample.size() == s) break;
      }
      auto all = ctx.comm.allgatherv_concat(
          std::span<const octree::PointRec>(mine));
      const auto exact = core::direct_local(*kernel, sample, all);

      struct GP {
        std::uint64_t gid;
        double v[3];
      };
      const int td = kernel->target_dim();
      std::vector<GP> out(result.gids.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].gid = result.gids[i];
        for (int c = 0; c < td; ++c)
          out[i].v[c] = result.potentials[i * td + c];
      }
      auto gathered = ctx.comm.allgatherv_concat(std::span<const GP>(out));
      std::unordered_map<std::uint64_t, const GP*> by_gid;
      for (const auto& g : gathered) by_gid.emplace(g.gid, &g);
      std::vector<double> approx(exact.size());
      for (std::size_t i = 0; i < sample.size(); ++i)
        for (int c = 0; c < td; ++c)
          approx[i * td + c] = by_gid.at(sample[i].gid)->v[c];
      if (ctx.rank() == 0)
        std::printf("accuracy vs direct sum (%zu samples): rel L2 = %s\n", s,
                    sci(rel_l2_error(approx, exact)).c_str());
    }
  });

  // Table II-style breakdown (thread-CPU work; see DESIGN.md).
  Table table({"Event", "Max. CPU", "Avg. CPU", "Max. Flops", "Avg. Flops"});
  auto row = [&](const char* name, const char* prefix) {
    std::vector<double> t, f;
    for (const auto& rep : reports) {
      t.push_back(rep.sum(std::string("time.") + prefix, ".cpu"));
      f.push_back(rep.sum(std::string("flops.") + prefix));
    }
    const Summary st = Summary::of(t), sf = Summary::of(f);
    table.add_row({name, sci(st.max), sci(st.avg), sci(sf.max), sci(sf.avg)});
  };
  row("Setup", "setup.");
  row("Total eval", "eval.");
  row("Upward", "eval.s2u");
  row("U-list", "eval.uli");
  row("V-list", "eval.vli");
  row("W-list", "eval.wli");
  row("X-list", "eval.xli");
  row("Downward", "eval.down");
  if (gradient) row("Gradient", "grad.");
  std::printf("\n%s", table.str().c_str());
  return 0;
}

int main(int argc, char** argv) {
  return util::guarded_main(argc, argv, example_main);
}
