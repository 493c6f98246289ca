#pragma once
/// \file fmm.hpp
/// \brief The public entry point: distributed adaptive kernel-
/// independent FMM (the paper's full system).
///
/// Usage (SPMD, inside comm::Runtime::run):
///
///   core::FmmOptions opts;
///   core::Tables tables(kernel, opts);        // shared, build once
///   core::ParallelFmm fmm(ctx, tables);
///   fmm.setup(std::move(my_points));          // tree + LET + balance
///   auto result = fmm.evaluate();             // potentials by gid
///
/// setup() performs the paper's setup phase: Morton sample-sort and
/// distributed tree construction (§III-A), LET + interaction lists
/// (Algorithm 2), and optional work-weighted repartitioning followed by
/// an LET rebuild (§III-B). evaluate() runs Algorithm 1 with the
/// hypercube reduce-scatter (Algorithm 3) and can be called repeatedly
/// with updated densities (set_densities). For time stepping,
/// update_points() moves points and repairs the tree, the LET and the
/// lists in place, bitwise equal to a from-scratch setup() of the moved
/// cloud (octree/update.hpp, core/timestep.hpp).

#include <memory>
#include <vector>

#include "core/evaluator.hpp"
#include "core/tables.hpp"
#include "octree/partition.hpp"
#include "octree/update.hpp"

namespace pkifmm::core {

class ParallelFmm {
 public:
  /// With options().flow_trace, turns on the flow ring of the rank's
  /// recorder (obs/flow.hpp), and with options().health the payload-
  /// transit digests of the cost tracker; both stay on for the rest of
  /// the rank run, so the object may end anywhere in the rank function
  /// and its traffic still shows in the rank's report.
  ParallelFmm(comm::RankCtx& ctx, const Tables& tables);
  ParallelFmm(const ParallelFmm&) = delete;
  ParallelFmm& operator=(const ParallelFmm&) = delete;

  /// Builds the distributed tree, the LET and the interaction lists;
  /// repartitions by work if options().load_balance. Points carry their
  /// initial densities.
  void setup(std::vector<octree::PointRec> points);

  /// Updates the densities of owned points (matched by gid; the map
  /// must cover every owned point). Ghost copies are refreshed lazily
  /// at the next evaluate().
  void set_densities(const std::vector<std::uint64_t>& gids,
                     const std::vector<double>& densities);

  /// Potentials for the points owned by this rank, keyed by gid.
  struct Result {
    std::vector<std::uint64_t> gids;
    std::vector<double> potentials;  ///< tdim values per gid
    std::vector<double> gradients;   ///< 3 values per gid (if requested)
  };

  /// Runs the evaluation phase (Algorithm 1 + Algorithm 3). With
  /// with_gradient, also returns grad(potential) per point — requires a
  /// kernel with a gradient companion (Laplace, Yukawa).
  Result evaluate(bool with_gradient = false);

  /// Moves owned points (each gid must be owned by this rank and
  /// listed once, each new position must lie in [0, 1)^3) and repairs
  /// the tree, the LET and the interaction lists in place — the
  /// per-step cost is proportional to churn, not N. With load_balance,
  /// leaves then migrate to their canonical work-weighted destinations
  /// whenever those moved. Collective: every rank calls it each step,
  /// with possibly empty moves. The resulting state is bitwise identical
  /// to a from-scratch setup() on the union of all ranks' updated
  /// points at any rank count (tests/test_incremental.cpp), so there is
  /// no rebuild mode: setup() is the rebuild. Densities are preserved;
  /// ghost copies refresh at the next evaluate().
  void update_points(const std::vector<octree::PointMove>& moves);

  /// What the last update_points() did (churn, repair extent,
  /// traffic) — the per-call view of the `setup.incr.*` counters.
  struct UpdateStats {
    bool repartitioned = false;  ///< canonical destinations moved leaves
    std::size_t moved_points = 0;
    std::size_t migrated_points = 0;  ///< points that changed rank
    std::size_t dirty_leaves = 0;     ///< leaves re-bucketed by the repair
    std::size_t kept_leaves = 0;      ///< leaves reused untouched
    std::size_t leaf_migrations = 0;  ///< leaves repartitioned away
    std::size_t ghost_octants_sent = 0;
    std::size_t ghost_ranks = 0;      ///< ranks receiving a LET delta
    std::size_t lists_rebuilt = 0;    ///< targets with recomputed lists
    std::size_t lists_kept = 0;       ///< targets with remapped lists
  };
  const UpdateStats& last_update_stats() const { return update_stats_; }

  const octree::Let& let() const { return *let_; }
  const Tables& tables() const { return tables_; }

  /// Cross-rank running sums of the accuracy sample (FmmOptions::health
  /// with a positive health_sample_rate) over every evaluate() so far:
  /// sampled targets, Σ (fmm − direct)² and Σ direct². Each evaluate()
  /// allreduces its own sample, so the sums are identical on every
  /// rank and decisions taken from them (core::TimeStepper's drift
  /// monitor) are collectively consistent. Zero before the first
  /// sampled evaluate().
  struct SampleTotals {
    double count = 0.0;
    double err2 = 0.0;
    double ref2 = 0.0;
  };
  const SampleTotals& sample_totals() const { return sample_totals_; }

  /// The per-rank recorder the FMM reports into — for callers layering
  /// their own health/diagnostic counters on top (core::TimeStepper's
  /// drift monitor). evaluate() sends only FMM traffic; a caller that
  /// wants the cross-rank summary builds it from this recorder with
  /// comm::snapshot_with_counters, obs::gather_metrics and
  /// obs::summarize_metrics (obs/aggregate.hpp).
  obs::Recorder& recorder() const { return ctx_.rec; }

 private:
  /// Delta-syncs the LET against tree_ (`dirty_leaves`: owned leaves
  /// whose buckets changed), repairs the interaction lists and adds
  /// the traffic and list counts to update_stats_. Collective.
  void repair_let(std::span<const morton::Key> dirty_leaves);
  void set_let_gauges();

  /// Health layer (FmmOptions::health, DESIGN.md §5g): the ghost
  /// density transit digests (owner-side per subscription vs
  /// consumer-side per ghost leaf — globally equal sums in a clean
  /// run), and the online accuracy sample (deterministic gid-hash
  /// subset of owned targets re-evaluated against all sources via
  /// Kernel::direct — the same dispatched kernel as the U-list, whose
  /// own accuracy the SimdTest cross-tier tests bound — folded into
  /// health.sample.* counters and, allreduced, into sample_totals_).
  void health_ghost_checks();
  void health_sample(const Result& out);

  comm::RankCtx& ctx_;
  const Tables& tables_;
  std::unique_ptr<octree::Let> let_;
  /// Retained across calls for update_points: the owned tree
  /// (repaired in place) and the LET staging diffed against on each
  /// delta exchange.
  octree::OwnedTree tree_;
  octree::LetSync let_sync_;
  UpdateStats update_stats_;
  SampleTotals sample_totals_;
  bool densities_dirty_ = false;
  /// evaluate() ordinal that varies the accuracy-sample selection per
  /// step (health layer).
  std::uint64_t eval_count_ = 0;
};

}  // namespace pkifmm::core
