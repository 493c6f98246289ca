#include "core/fmm.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <utility>

#include "obs/health.hpp"

namespace pkifmm::core {

ParallelFmm::ParallelFmm(comm::RankCtx& ctx, const Tables& tables)
    : ctx_(ctx), tables_(tables) {
  const FmmOptions& opts = tables_.options();
  // Both stay on for the rest of the rank run, in the rank's recorder;
  // a later ParallelFmm on the same rank finds them on already.
  if (opts.flow_trace)
    ctx_.comm.cost().enable_flow(static_cast<std::size_t>(opts.flow_capacity));
  if (opts.health) ctx_.comm.cost().enable_payload_digests();
}

void ParallelFmm::set_let_gauges() {
  // Memory telemetry: what Algorithm 2's ghost exchange replicated on
  // this rank versus the whole LET (the current one — setup and each
  // incremental repair both refresh these).
  ctx_.rec.gauge_set("mem.let.ghost_bytes",
                     static_cast<double>(let_->ghost_bytes()));
  ctx_.rec.gauge_set("mem.let.total_bytes",
                     static_cast<double>(let_->total_bytes()));
}

void ParallelFmm::setup(std::vector<octree::PointRec> points) {
  const FmmOptions& opts = tables_.options();
  octree::BuildParams bp;
  bp.max_points_per_leaf = opts.max_points_per_leaf;
  bp.max_level = opts.max_level;

  // Root span only: the flat phase map keeps leaf phases disjoint so
  // prefix sums ("setup.") never double-count.
  auto root = ctx_.rec.span("setup");

  ctx_.comm.cost().set_phase("setup.tree");
  {
    auto t = ctx_.timer.scope("setup.tree");
    tree_ = octree::build_distributed_tree(ctx_.comm, std::move(points), bp);
  }

  // update_points()'s pipeline from an empty state: every octant is new
  // to the empty staging and every target's lists are computed against
  // the empty prior, so a second setup() on this object starts clean.
  let_sync_ = octree::LetSync{};
  let_ = std::make_unique<octree::Let>();
  ctx_.comm.cost().set_phase("setup.let");
  {
    auto t = ctx_.timer.scope("setup.let");
    repair_let({});
  }
  rebalance("setup.balance");

  update_stats_ = {};
  set_let_gauges();
}

void ParallelFmm::set_densities(const std::vector<std::uint64_t>& gids,
                                const std::vector<double>& densities) {
  PKIFMM_CHECK(let_ != nullptr);
  const int sd = tables_.sdim();
  PKIFMM_CHECK(densities.size() == gids.size() * static_cast<std::size_t>(sd));
  std::unordered_map<std::uint64_t, std::size_t> by_gid;
  by_gid.reserve(gids.size());
  for (std::size_t i = 0; i < gids.size(); ++i) {
    const bool inserted = by_gid.emplace(gids[i], i).second;
    PKIFMM_CHECK_MSG(inserted, "set_densities: duplicate gid " << gids[i]);
  }

  std::size_t matched = 0;
  for (octree::LetNode& node : let_->nodes) {
    if (!node.owned) continue;
    for (octree::PointRec& pt : let_->points_of(node)) {
      auto it = by_gid.find(pt.gid);
      PKIFMM_CHECK_MSG(it != by_gid.end(),
                       "set_densities missing gid " << pt.gid);
      for (int c = 0; c < sd; ++c)
        pt.den[c] = densities[it->second * sd + c];
      ++matched;
    }
  }
  // Every owned point consumed one distinct map entry, so a surplus
  // entry is a gid this rank does not own.
  PKIFMM_CHECK_MSG(matched == by_gid.size(),
                   "set_densities: " << (by_gid.size() - matched)
                                     << " gid(s) not owned by this rank");

  // The retained tree is density-authoritative for update_points:
  // repair and the LET delta exchange re-ship leaf buckets from
  // tree_.points, so the current densities must live there too.
  for (octree::PointRec& pt : tree_.points) {
    auto it = by_gid.find(pt.gid);
    PKIFMM_CHECK_MSG(it != by_gid.end(),
                     "set_densities missing gid " << pt.gid);
    for (int c = 0; c < sd; ++c)
      pt.den[c] = densities[it->second * sd + c];
  }
  densities_dirty_ = true;
}

void ParallelFmm::repair_let(std::span<const morton::Key> dirty_leaves) {
  octree::LetSyncStats ls;
  octree::ListRepairStats lr;
  auto next = std::make_unique<octree::Let>(
      let_sync_.update(ctx_.comm, tree_, dirty_leaves, &ls));
  octree::repair_interaction_lists(*let_, *next, &lr);
  let_ = std::move(next);
  update_stats_.ghost_octants_sent += ls.octants_sent + ls.removes_sent;
  update_stats_.ghost_ranks += ls.ranks_touched;
  update_stats_.lists_rebuilt += lr.rebuilt_targets;
  update_stats_.lists_kept += lr.kept_targets;
}

void ParallelFmm::rebalance(const std::string& phase) {
  if (!tables_.options().load_balance || ctx_.comm.size() == 1) return;
  ctx_.comm.cost().set_phase(phase);
  auto t = ctx_.timer.scope(phase);
  const auto weights = leaf_work_estimates(tables_, *let_);
  const auto d = octree::weighted_destinations(ctx_.comm, weights);
  if (!d.moved) return;
  update_stats_.repartitioned = true;
  update_stats_.leaf_migrations = static_cast<std::size_t>(
      std::count_if(d.dest.begin(), d.dest.end(),
                    [&](int r) { return r != ctx_.comm.rank(); }));
  tree_ = octree::migrate_leaves(ctx_.comm, std::move(tree_), d.dest);
  // Migration changes ownership, not bucket content: the LetSync diff
  // of the new own-key set against the retained staging is the whole
  // delta, so no leaves are dirty.
  repair_let({});
}

void ParallelFmm::update_points(const std::vector<octree::PointMove>& moves) {
  PKIFMM_CHECK_MSG(let_ != nullptr, "setup() must run before update_points()");
  const FmmOptions& opts = tables_.options();
  octree::BuildParams bp;
  bp.max_points_per_leaf = opts.max_points_per_leaf;
  bp.max_level = opts.max_level;

  update_stats_ = {};
  update_stats_.moved_points = moves.size();

  auto root = ctx_.rec.span("setup");

  ctx_.comm.cost().set_phase("setup.incr.tree");
  octree::RepairResult rep;
  {
    auto t = ctx_.timer.scope("setup.incr.tree");
    rep = octree::repair_tree(ctx_.comm, tree_,
                              std::span<const octree::PointMove>(moves), bp);
  }
  update_stats_.migrated_points = rep.stats.migrated_points;
  update_stats_.dirty_leaves = rep.stats.dirty_leaves;
  update_stats_.kept_leaves = rep.stats.kept_leaves;

  if (rep.global_moves == 0) {
    // No rank moved a point: the tree, the LET, the lists, the ghost
    // densities and the work-weighted destinations are all what they
    // were, so keep them.
    update_stats_.lists_kept = static_cast<std::size_t>(
        std::count_if(let_->nodes.begin(), let_->nodes.end(),
                      [](const octree::LetNode& n) { return n.target; }));
  } else {
    {
      ctx_.comm.cost().set_phase("setup.incr.let");
      auto t = ctx_.timer.scope("setup.incr.let");
      repair_let(rep.dirty_leaves);
    }
    rebalance("setup.incr.balance");
    set_let_gauges();
    // The delta assembly restores unchanged ghosts from staging
    // captured at SET time; the refresh at the next evaluate() re-ships
    // current densities, restoring exact agreement with a from-scratch
    // build.
    densities_dirty_ = true;
  }

  ctx_.rec.counter_add("setup.incr.steps", 1.0);
  ctx_.rec.counter_add("setup.incr.moved_points",
                       static_cast<double>(update_stats_.moved_points));
  ctx_.rec.counter_add("setup.incr.migrated_points",
                       static_cast<double>(update_stats_.migrated_points));
  ctx_.rec.counter_add("setup.incr.dirty_leaves",
                       static_cast<double>(update_stats_.dirty_leaves));
  ctx_.rec.counter_add("setup.incr.kept_leaves",
                       static_cast<double>(update_stats_.kept_leaves));
  ctx_.rec.counter_add("setup.incr.ghost_octants",
                       static_cast<double>(update_stats_.ghost_octants_sent));
  ctx_.rec.counter_add("setup.incr.ghost_ranks",
                       static_cast<double>(update_stats_.ghost_ranks));
  ctx_.rec.counter_add("setup.incr.lists_rebuilt",
                       static_cast<double>(update_stats_.lists_rebuilt));
  ctx_.rec.counter_add("setup.incr.lists_kept",
                       static_cast<double>(update_stats_.lists_kept));
  ctx_.rec.counter_add("setup.incr.leaf_migrations",
                       static_cast<double>(update_stats_.leaf_migrations));
  if (update_stats_.repartitioned)
    ctx_.rec.counter_add("setup.incr.repartitions", 1.0);
}

ParallelFmm::Result ParallelFmm::evaluate(bool with_gradient) {
  PKIFMM_CHECK_MSG(let_ != nullptr, "setup() must run before evaluate()");
  const FmmOptions& opts = tables_.options();
  if (opts.health) {
    ++eval_count_;
    ctx_.rec.counter_add("health.steps");
  }
  Result out;
  auto root = ctx_.rec.span("eval");
  {
    ctx_.comm.cost().set_phase("eval.comm");
    if (densities_dirty_) {
      auto t = ctx_.timer.scope("eval.comm");
      octree::refresh_ghost_densities(ctx_.comm, *let_);
      densities_dirty_ = false;
    }
    if (opts.health) health_ghost_checks();

    std::optional<Evaluator> eval;
    {
      auto t = ctx_.timer.scope("eval.init");
      eval.emplace(tables_, *let_, ctx_);
    }
    eval->run();

    std::vector<double> grad;
    if (with_gradient) {
      auto t = ctx_.timer.scope("eval.grad");
      grad = eval->target_gradient();
    }

    // Harvesting the owned targets' potentials and releasing the
    // evaluator's buffers.
    auto t = ctx_.timer.scope("eval.result");
    const int td = tables_.tdim();
    const auto f = eval->potential();
    for (const octree::LetNode& node : let_->nodes) {
      if (!(node.owned && node.global_leaf)) continue;
      const auto pts = let_->points_of(node);
      // Potentials exist only for the leading target points of each
      // leaf.
      for (std::size_t k = 0; k < node.target_count; ++k) {
        out.gids.push_back(pts[k].gid);
        const std::size_t base = (node.point_begin + k) * td;
        for (int c = 0; c < td; ++c) out.potentials.push_back(f[base + c]);
        if (with_gradient) {
          const std::size_t gbase = (node.point_begin + k) * 3;
          for (int c = 0; c < 3; ++c)
            out.gradients.push_back(grad[gbase + c]);
        }
      }
    }
    eval.reset();
  }
  root.close();

  // Accuracy sampling runs outside the "eval" span so a health-enabled
  // run's eval.* phase times stay comparable to a health-off run; the
  // sample's collectives and flops get their own health.sample phase.
  if (opts.health && opts.health_sample_rate > 0.0) health_sample(out);
  return out;
}

void ParallelFmm::health_ghost_checks() {
  auto t = ctx_.timer.scope("health.check");
  obs::Recorder& rec = ctx_.rec;

  // Consumer side: one digest per non-owned global leaf with points —
  // exactly the ghost copies this rank received. Injection corrupts
  // the first ghost's density copy *before* digesting, so the fault is
  // both visible to this digest and consumed by the evaluation.
  bool injected = false;
  double ghost_digest = 0.0;
  for (octree::LetNode& node : let_->nodes) {
    if (node.owned || !node.global_leaf || node.point_count == 0) continue;
    auto pts = let_->points_of(node);
    if (!injected) {
      std::span<double> first_den(pts[0].den, octree::kMaxDensityDim);
      if (obs::maybe_inject(obs::InjectPhase::kGhost, ctx_.rank(),
                            first_den)) {
        injected = true;
        rec.counter_add("health.injected");
      }
    }
    obs::ChunkDigest d(morton::KeyHash{}(node.key));
    for (const octree::PointRec& pt : pts)
      for (int c = 0; c < octree::kMaxDensityDim; ++c) d.add(pt.den[c]);
    ghost_digest += d.finish();
  }

  // Owner side: one digest per ghost subscription, over the exact
  // payload refresh_ghost_densities ships (every point's den array in
  // bucket order) — a leaf consumed by two ranks contributes twice.
  // Cross-rank, Σ health.digest.den == Σ health.digest.ghost in a
  // clean run; the summary compares the two sums.
  double den_digest = 0.0;
  for (const auto& [ni, dest] : let_->ghost_subscriptions) {
    const octree::LetNode& node = let_->nodes[ni];
    obs::ChunkDigest d(morton::KeyHash{}(node.key));
    for (const octree::PointRec& pt : let_->points_of(node))
      for (int c = 0; c < octree::kMaxDensityDim; ++c) d.add(pt.den[c]);
    den_digest += d.finish();
  }
  rec.counter_add("health.digest.den", den_digest);
  rec.counter_add("health.digest.ghost", ghost_digest);
}

void ParallelFmm::health_sample(const Result& out) {
  const FmmOptions& opts = tables_.options();
  ctx_.comm.cost().set_phase("health.sample");
  auto t = ctx_.timer.scope("health.sample");
  obs::Recorder& rec = ctx_.rec;
  const int sd = tables_.sdim();
  const int td = tables_.tdim();

  // Sampled owned targets: positions plus the FMM potentials, walked
  // in the same leaf/point order evaluate() harvested Result in, so
  // `idx` indexes out.potentials directly. Membership depends only on
  // (gid, seed, step) — identical for any rank/thread count.
  std::vector<double> my_pos, my_fmm;
  double gid_digest = 0.0;
  std::size_t idx = 0;
  for (const octree::LetNode& node : let_->nodes) {
    if (!(node.owned && node.global_leaf)) continue;
    const auto pts = let_->points_of(node);
    for (std::size_t k = 0; k < node.target_count; ++k, ++idx) {
      const octree::PointRec& pt = pts[k];
      if (!obs::health_sampled(static_cast<std::int64_t>(pt.gid),
                               obs::kHealthSeed, eval_count_,
                               opts.health_sample_rate))
        continue;
      my_pos.insert(my_pos.end(), pt.pos, pt.pos + 3);
      for (int c = 0; c < td; ++c)
        my_fmm.push_back(out.potentials[idx * td + c]);
      gid_digest += static_cast<double>(splitmix64(pt.gid) >> 32);
    }
  }

  // Everyone learns every sampled position; each rank adds its own
  // sources' contribution to every one of them; an elementwise
  // sum-reduce then yields the exact all-source direct reference.
  const auto per_rank =
      ctx_.comm.allgatherv(std::span<const double>(my_pos));
  std::vector<std::size_t> offset(per_rank.size() + 1, 0);
  std::vector<double> all_pos;
  for (std::size_t r = 0; r < per_rank.size(); ++r) {
    offset[r + 1] = offset[r] + per_rank[r].size();
    all_pos.insert(all_pos.end(), per_rank[r].begin(), per_rank[r].end());
  }

  // This rank's owned sources, flattened (cold path — the sample runs
  // once per evaluate at a small rate, so allocation is fine here).
  std::vector<double> src_pos, src_den;
  for (const octree::LetNode& node : let_->nodes) {
    if (!(node.owned && node.global_leaf)) continue;
    for (const octree::PointRec& pt : let_->points_of(node)) {
      if (!pt.is_source()) continue;
      src_pos.insert(src_pos.end(), pt.pos, pt.pos + 3);
      src_den.insert(src_den.end(), pt.den, pt.den + sd);
    }
  }

  std::vector<double> ref((all_pos.size() / 3) * td, 0.0);
  ctx_.flops.add("health.sample",
                 tables_.kernel().direct(all_pos, src_pos, src_den, ref));
  const std::vector<double> ref_sum = ctx_.comm.allreduce(
      std::span<const double>(ref),
      [](double a, double b) { return a + b; });

  // Compare this rank's slice of the reduced reference against its FMM
  // values. err2/ref2 sum across ranks, so sqrt(Σerr2 / Σref2) is the
  // exact sampled relative L2 error.
  const std::size_t base = offset[static_cast<std::size_t>(ctx_.rank())] / 3 *
                           static_cast<std::size_t>(td);
  double err2 = 0.0, ref2 = 0.0;
  for (std::size_t j = 0; j < my_fmm.size(); ++j) {
    const double r = ref_sum[base + j];
    const double diff = my_fmm[j] - r;
    err2 += diff * diff;
    ref2 += r * r;
  }
  const double count = static_cast<double>(my_pos.size() / 3);
  rec.counter_add("health.sample.count", count);
  rec.counter_add("health.sample.err2", err2);
  rec.counter_add("health.sample.ref2", ref2);
  rec.counter_add("health.sample.gid_digest", gid_digest);

  const double mine[3] = {count, err2, ref2};
  const std::vector<double> total = ctx_.comm.allreduce(
      std::span<const double>(mine),
      [](double a, double b) { return a + b; });
  sample_totals_.count += total[0];
  sample_totals_.err2 += total[1];
  sample_totals_.ref2 += total[2];
}

}  // namespace pkifmm::core
