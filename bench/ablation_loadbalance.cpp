/// \file ablation_loadbalance.cpp
/// \brief Ablation D: leaf partitioning strategies (paper §III-B).
///
/// "Assigning each process an equal chunk of leaves may lead to a
/// substantial load imbalance during the interaction evaluation for
/// nonuniform octrees." Three strategies on the same nonuniform tree:
///   equal-leaves  — each rank gets the same number of leaves (the
///                   naive baseline the paper warns about),
///   equal-points  — each rank gets the same number of points (what
///                   the Morton sort produces),
///   work-weighted — the paper's scheme: leaves weighted by their
///                   U/V/W/X interaction work.
/// Reported: per-rank evaluation flops (max/avg/imbalance).

#include <cstdio>

#include "common.hpp"

using namespace pkifmm;
using namespace pkifmm::bench;

namespace {

enum class Strategy { kEqualLeaves, kEqualPoints, kWorkWeighted };

Summary run_strategy(Strategy strat, int p, std::uint64_t per_rank, int q) {
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = q;
  const core::Tables& base = tables_for("stokes", opts);
  const core::Tables tables = base.with_options(opts);

  auto reports = comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    octree::BuildParams bp;
    bp.max_points_per_leaf = q;
    auto pts = octree::generate_points(octree::Distribution::kCluster,
                                       per_rank * p, ctx.rank(), p,
                                       tables.sdim(), 5);
    auto tree = octree::build_distributed_tree(ctx.comm, std::move(pts), bp);

    if (strat == Strategy::kEqualLeaves) {
      std::vector<double> w(tree.leaves.size(), 1.0);
      tree = octree::load_balance(ctx.comm, std::move(tree), w);
    } else if (strat == Strategy::kWorkWeighted) {
      octree::Let let = octree::build_let(ctx.comm, tree);
      octree::build_interaction_lists(let);
      const auto w = core::leaf_work_estimates(tables, let);
      tree = octree::load_balance(ctx.comm, std::move(tree), w);
    }

    octree::Let let = octree::build_let(ctx.comm, tree);
    octree::build_interaction_lists(let);
    core::Evaluator eval(tables, let, ctx);
    eval.run();
  });

  std::vector<double> flops;
  for (const auto& rep : reports) flops.push_back(rep.sum("flops.eval."));
  return Summary::of(flops);
}

}  // namespace

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  metrics_init(cli, "ablation_loadbalance");
  const int p = cli.get_int_as<int>("p", 16, 1);
  const auto per_rank = cli.get_int_as<std::uint64_t>("per-rank", 1200);
  const int q = cli.get_int_as<int>("q", 30);

  print_header("Ablation D",
               "leaf partitioning strategies, clustered nonuniform tree");
  Table table({"partitioning", "flops max", "flops avg", "imbalance"});

  const struct {
    Strategy strat;
    const char* name;
  } cases[] = {{Strategy::kEqualLeaves, "equal-leaves"},
               {Strategy::kEqualPoints, "equal-points"},
               {Strategy::kWorkWeighted, "work-weighted"}};
  for (const auto& c : cases) {
    const Summary s = run_strategy(c.strat, p, per_rank, q);
    table.add_row({c.name, sci(s.max), sci(s.avg), fixed(s.imbalance(), 2)});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape: both naive partitions are substantially imbalanced\n"
      "on the clustered tree (leaf populations and list sizes vary\n"
      "wildly); the paper's work-weighted partitioning brings max/avg\n"
      "close to 1, matching the tight max-vs-avg dots of its Fig. 3.\n");
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
