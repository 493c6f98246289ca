#include "core/evaluator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <tuple>
#include <unordered_map>

namespace pkifmm::core {

using morton::Key;
using octree::LetNode;

Evaluator::Evaluator(const Tables& tables, const octree::Let& let,
                     comm::RankCtx& ctx)
    : tables_(tables), let_(let), ctx_(ctx), surf_(tables.n()) {
  const std::size_t nn = let_.nodes.size();
  u_.assign(nn * tables_.eq_len(), 0.0);
  checkpot_.assign(nn * tables_.check_len(), 0.0);
  d_.assign(nn * tables_.eq_len(), 0.0);

  const int sd = tables_.sdim();
  const int td = tables_.tdim();
  f_.assign(let_.points.size() * td, 0.0);
  pos_.resize(let_.points.size() * 3);
  for (std::size_t i = 0; i < let_.points.size(); ++i)
    for (int c = 0; c < 3; ++c) pos_[3 * i + c] = let_.points[i].pos[c];

  // Per-node source extraction (targets and sources may be disjoint
  // subsets of a leaf's points; see octree::PointRec::kind).
  src_offset_.assign(let_.nodes.size() + 1, 0);
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    src_offset_[i] = src_pos_.size() / 3;
    for (const octree::PointRec& pt : let_.points_of(let_.nodes[i])) {
      if (!pt.is_source()) continue;
      src_pos_.insert(src_pos_.end(), pt.pos, pt.pos + 3);
      src_den_.insert(src_den_.end(), pt.den, pt.den + sd);
    }
  }
  src_offset_[let_.nodes.size()] = src_pos_.size() / 3;

  surf_scratch_.resize(std::size_t(3) * surf_.count());

  // Level index for the batched phases (node order within a level).
  if (!let_.nodes.empty()) {
    min_level_ = morton::kMaxDepth + 1;
    max_level_ = -1;
    for (const LetNode& n : let_.nodes) {
      min_level_ = std::min(min_level_, static_cast<int>(n.key.level));
      max_level_ = std::max(max_level_, static_cast<int>(n.key.level));
    }
    level_nodes_.resize(max_level_ + 1);
    for (std::size_t i = 0; i < nn; ++i)
      level_nodes_[let_.nodes[i].key.level].push_back(
          static_cast<std::int32_t>(i));
  }

  // Worker pool: prefer the Runtime-provided per-rank pool; otherwise
  // own one sized from the options (0 workers when threads_per_rank is
  // 1 — an inline executor with no thread or synchronization cost).
  if (ctx.pool != nullptr) {
    pool_ = ctx.pool;
  } else {
    const FmmOptions& opts = tables_.options();
    owned_pool_ = std::make_unique<util::TaskPool>(
        util::recommended_workers(opts.threads_per_rank, ctx.size(),
                                  opts.clamp_threads) -
        1);
    pool_ = owned_pool_.get();
  }
  lane_surf_.resize(std::size_t(pool_->lanes()) * 3 * surf_.count());
}

Evaluator::~Evaluator() {
  if (uli_started_) {
    try {
      pool_->wait(uli_group_);
    } catch (...) {
      // Unwinding already; the wait only exists so no task outlives us.
    }
  }
}

std::span<const double> Evaluator::leaf_source_positions(
    std::size_t node) const {
  return {src_pos_.data() + src_offset_[node] * 3,
          (src_offset_[node + 1] - src_offset_[node]) * 3};
}

std::span<const double> Evaluator::leaf_source_densities(
    std::size_t node) const {
  const std::size_t sd = tables_.sdim();
  return {src_den_.data() + src_offset_[node] * sd,
          (src_offset_[node + 1] - src_offset_[node]) * sd};
}

std::span<const double> Evaluator::leaf_target_positions(
    const LetNode& n) const {
  return {pos_.data() + std::size_t(n.point_begin) * 3,
          std::size_t(n.target_count) * 3};
}

std::span<double> Evaluator::leaf_target_potential(const LetNode& n) {
  const int td = tables_.tdim();
  return {f_.data() + std::size_t(n.point_begin) * td,
          std::size_t(n.target_count) * td};
}

std::span<const double> Evaluator::box_surf(double radius_scale,
                                            const Key& k) {
  const auto g = morton::box_geometry(k);
  surf_.materialize(radius_scale, g.center, g.half_width, surf_scratch_);
  return surf_scratch_;
}

std::span<const double> Evaluator::box_surf(double radius_scale, const Key& k,
                                            int lane) {
  const auto g = morton::box_geometry(k);
  const std::size_t len = std::size_t(3) * surf_.count();
  std::span<double> out(lane_surf_.data() + std::size_t(lane) * len, len);
  surf_.materialize(radius_scale, g.center, g.half_width, out);
  return out;
}

void Evaluator::gemm_batched(const la::Matrix& m, std::size_t ncols,
                             double scale, const char* phase) {
  pool_->parallel_for(
      ncols, kColGrain,
      [&](std::size_t c0, std::size_t c1, int) {
        la::gemm_acc_cols(m, batch_in_, batch_out_, ncols, c0, c1, scale);
      },
      phase);
  ctx_.flops.add(phase, la::gemm_flops(m, ncols));
}

int Evaluator::pair_offset_index(const LetNode& tnode,
                                 const LetNode& snode) const {
  const auto ta = morton::anchor(tnode.key);
  const auto sa = morton::anchor(snode.key);
  const auto side = morton::cell_side(tnode.key);
  const int dx = (static_cast<std::int64_t>(ta[0]) - sa[0]) / side;
  const int dy = (static_cast<std::int64_t>(ta[1]) - sa[1]) / side;
  const int dz = (static_cast<std::int64_t>(ta[2]) - sa[2]) / side;
  return offset_index(dx, dy, dz);
}

void Evaluator::run() {
  // Data-driven execution replaces the whole bulk-synchronous pipeline
  // below (scalar mode has no chunk decomposition to schedule, so it
  // always runs bulk-synchronously).
  if (tables_.options().exec_mode == ExecMode::kDag && batched()) {
    run_dag();
    return;
  }
  // ULI ‖ {S2U, U2U, comm, VLI, XLI, down, WLI, D2T}: the direct
  // interactions depend on nothing upstream, so they start now and the
  // workers execute them whenever no far-field chunk is runnable —
  // including while the rank thread blocks in the reduce-scatter.
  uli_start();
  {
    auto t = ctx_.timer.scope("eval.s2u");
    s2u();
  }
  health_post_s2u();
  {
    auto t = ctx_.timer.scope("eval.u2u");
    u2u();
  }
  {
    auto t = ctx_.timer.scope("eval.comm");
    comm_reduce();
  }
  health_post_reduce();
  {
    auto t = ctx_.timer.scope("eval.vli");
    vli();
  }
  {
    auto t = ctx_.timer.scope("eval.xli");
    xli();
  }
  {
    auto t = ctx_.timer.scope("eval.down");
    downward();
  }
  {
    auto t = ctx_.timer.scope("eval.wli");
    wli();
  }
  {
    auto t = ctx_.timer.scope("eval.d2t");
    d2t();
  }
  {
    auto t = ctx_.timer.scope("eval.uli");
    uli_join();
  }
  health_post_run();
  pool_->fold_stats(ctx_.rec);
  publish_mem_gauges();
}

/// The DAG executor. Same arithmetic as the bulk-synchronous batched
/// engine — every task below is exactly one of its chunks (per-leaf
/// kernel chunks, GEMM column windows, frequency-chunk MACs, FFT slot
/// chunks), every accumulation order is preserved by edges — so the
/// potentials are bitwise identical and the model-flop totals exact.
/// What changes is WHEN chunks run: a chunk starts the moment its
/// inputs are final instead of at a phase barrier, ULI/XLI/WLI chunks
/// fill worker idle time, and the reduce-scatter's per-node write-back
/// callback releases ghost-gated V-list work level by level while the
/// communication is still in flight.
///
/// Timer phases: eval.dag.build (graph construction + launch),
/// eval.dag.up (rank thread helping until local upward densities are
/// final), eval.comm (the reduce, as in bulk mode), eval.dag.run
/// (helping until the graph drains). Flops are folded into the
/// canonical eval.* phases, so flop-based comparisons work across
/// exec modes.
void Evaluator::run_dag() {
  using util::TaskGraph;
  using NodeId = util::TaskGraph::NodeId;
  constexpr NodeId kNoNode = TaskGraph::kNone;

  const auto& kern = tables_.kernel();
  const FmmOptions& opts = tables_.options();
  const bool use_fft = opts.m2l == M2lMode::kFft;
  const std::size_t elen = tables_.eq_len();
  const std::size_t clen = tables_.check_len();
  const std::size_t nn = let_.nodes.size();

  // Model flops per phase: GEMM and V-list amounts are known while
  // building ("planned"); kernel-direct amounts are summed by the chunk
  // tasks ("counted"). Folded into ctx_.flops once the graph drained,
  // in the bulk engine's phase order — totals match exactly because
  // both modes sum the same per-chunk integers.
  enum Ph : std::size_t {
    kPhS2u,
    kPhU2u,
    kPhVli,
    kPhXli,
    kPhDown,
    kPhWli,
    kPhD2t,
    kNumPh
  };
  struct PhaseFlops {
    const char* name;
    std::uint64_t planned = 0;
    std::atomic<std::uint64_t> counted{0};
  };
  std::array<PhaseFlops, kNumPh> phf{{{"eval.s2u"},
                                      {"eval.u2u"},
                                      {"eval.vli"},
                                      {"eval.xli"},
                                      {"eval.down"},
                                      {"eval.wli"},
                                      {"eval.d2t"}}};

  // Per-level graph handles and buffers. Everything a task lambda
  // touches lives here or in the Evaluator, so it outlives every task
  // (all tasks complete before run_dag returns).
  struct LevelDag {
    NodeId s2u_done = TaskGraph::kNone;
    NodeId up_final = TaskGraph::kNone;    ///< u_ rows at level locally final
    NodeId ghost_done = TaskGraph::kNone;  ///< + reduce write-backs arrived
    NodeId vli_done = TaskGraph::kNone;
    NodeId xli_done = TaskGraph::kNone;
    NodeId down_done = TaskGraph::kNone;
    int ghost_expected = 0;
    int ghost_signaled = 0;  ///< rank thread only
    std::vector<std::int32_t> s2u_slots, s2u_iota;
    std::vector<double> s2u_tmp;
    std::vector<double> gin, gout;     ///< level-local gather/GEMM buffers
    std::vector<std::int32_t> xnodes;  ///< targets with X-work
    VliLevel vli;  ///< FFT V-list state, as in vli_fft_batched
  };
  std::vector<LevelDag> lv(static_cast<std::size_t>(std::max(max_level_, -1) + 1));

  // Shared-node predicate: the reduce write-back only ever touches
  // is_shared() nodes, so chunks reading only non-shared u_ rows never
  // race the communication and need no ghost gating.
  std::vector<char> shared_node(nn, 0);
  if (ctx_.size() > 1)
    for (std::size_t i = 0; i < nn; ++i)
      if (is_shared(let_.nodes[i].key, let_.splitters, ctx_.rank()))
        shared_node[i] = 1;

  util::TaskGraph graph(*pool_, "eval.dag");

  // A gather -> column-windowed GEMM -> scatter stage, the DAG form of
  // gemm_batched(). Deque keeps stage addresses stable for the lambdas.
  // Stages sharing a bin/bout buffer pair MUST be chained by edges.
  struct GemmStage {
    const la::Matrix* mat;
    double scale;
    std::vector<std::int32_t> in_slots, out_slots;
    const std::vector<double>* src;
    std::vector<double>* dst;
    std::size_t in_len, out_len;
    std::vector<double>* bin;
    std::vector<double>* bout;
  };
  std::deque<GemmStage> stages;
  auto gemm_stage = [&](NodeId entry, Ph ph, const char* phase,
                        const la::Matrix& mat, double scale,
                        std::vector<std::int32_t> in_slots,
                        const std::vector<double>* src, std::size_t in_len,
                        std::vector<std::int32_t> out_slots,
                        std::vector<double>* dst, std::size_t out_len,
                        std::vector<double>* bin,
                        std::vector<double>* bout) -> NodeId {
    stages.push_back(GemmStage{&mat, scale, std::move(in_slots),
                               std::move(out_slots), src, dst, in_len, out_len,
                               bin, bout});
    GemmStage* s = &stages.back();
    const std::size_t nb = s->in_slots.size();
    const NodeId gather = graph.node(phase, [s, nb](int) {
      s->bin->resize(s->in_len * nb);
      la::gather_columns(*s->src, s->in_slots, s->in_len, *s->bin);
      s->bout->assign(s->out_len * nb, 0.0);
    });
    if (entry != TaskGraph::kNone) graph.edge(entry, gather);
    const NodeId scatter = graph.node(phase, [s](int) {
      la::scatter_columns_acc(*s->bout, s->out_slots, s->out_len, *s->dst);
    });
    for (std::size_t c0 = 0; c0 < nb; c0 += kColGrain) {
      const std::size_t c1 = std::min(nb, c0 + kColGrain);
      const NodeId w = graph.node(phase, [s, nb, c0, c1](int) {
        la::gemm_acc_cols(*s->mat, *s->bin, *s->bout, nb, c0, c1, s->scale);
      });
      graph.edge(gather, w);
      graph.edge(w, scatter);
    }
    phf[ph].planned += la::gemm_flops(mat, nb);
    return scatter;
  };

  // Chain buffers for the strictly-sequential u2u and downward stages.
  std::vector<double> uwin, uwout, dwin, dwout;
  double scratch_bytes = 0;  // planned DAG scratch, published as a gauge

  NodeId upward_all = kNoNode;
  NodeId ghosts_all = kNoNode;
  {
    auto bt = ctx_.timer.scope("eval.dag.build");

    // Ghost-arrival latches: one event per level, released by the
    // reduce's write-back callback (or the post-reduce flush) once per
    // shared node of that level. With one rank every count is zero and
    // the latches fire at launch.
    ghosts_all = graph.event("eval.ghost");
    for (int level = min_level_; level <= max_level_; ++level) {
      LevelDag& L = lv[level];
      for (auto i : level_nodes_[level])
        if (shared_node[i]) ++L.ghost_expected;
      L.ghost_done = graph.event("eval.ghost");
      graph.external(L.ghost_done, L.ghost_expected);
      graph.edge(L.ghost_done, ghosts_all);
    }

    // --- S2U: per-leaf check potentials, then one uc2ue stage/level ---
    for (int level = min_level_; level <= max_level_; ++level) {
      LevelDag& L = lv[level];
      for (auto i : level_nodes_[level]) {
        const LetNode& node = let_.nodes[i];
        if (!(node.owned && node.global_leaf)) continue;
        if (leaf_source_positions(i).empty()) continue;
        L.s2u_slots.push_back(i);
      }
      if (L.s2u_slots.empty()) continue;
      const std::size_t nb = L.s2u_slots.size();
      L.s2u_tmp.assign(nb * clen, 0.0);
      L.s2u_iota.resize(nb);
      std::iota(L.s2u_iota.begin(), L.s2u_iota.end(), 0);
      LevelDag* Lp = &L;
      const NodeId directs = graph.event("eval.s2u");
      for (std::size_t b = 0; b < nb; b += kNodeGrain) {
        const std::size_t e = std::min(nb, b + kNodeGrain);
        const NodeId t = graph.node(
            "eval.s2u", [this, Lp, b, e, clen, &kern, &phf](int lane) {
              std::uint64_t local = 0;
              for (std::size_t j = b; j < e; ++j) {
                const std::int32_t i = Lp->s2u_slots[j];
                const auto uc = box_surf(tables_.options().upward_check_radius,
                                         let_.nodes[i].key, lane);
                local += kern.direct(
                    uc, leaf_source_positions(i), leaf_source_densities(i),
                    std::span<double>(Lp->s2u_tmp.data() + j * clen, clen));
              }
              phf[kPhS2u].counted.fetch_add(local, std::memory_order_relaxed);
            });
        graph.edge(t, directs);
      }
      const LevelOps ops = tables_.at(level);
      L.s2u_done =
          gemm_stage(directs, kPhS2u, "eval.s2u", *ops.uc2ue, ops.uc2ue_scale,
                     L.s2u_iota, &L.s2u_tmp, clen, L.s2u_slots, &u_, elen,
                     &L.gin, &L.gout);
    }

    // --- U2U: deepest level first, child indices 7..0, each stage
    // chained (shared uwin/uwout and the same add-order into parents as
    // the bulk engine). up_final[l] = "u_ rows at level l are locally
    // final" — it gates this level's V-list forward work.
    {
      NodeId chain = kNoNode;
      for (int level = max_level_; level >= min_level_; --level) {
        LevelDag& L = lv[level];
        const NodeId fin = graph.event("eval.u2u");
        if (L.s2u_done != kNoNode) graph.edge(L.s2u_done, fin);
        if (chain != kNoNode) graph.edge(chain, fin);
        L.up_final = fin;
        chain = fin;
        if (level > min_level_ && !level_nodes_[level].empty()) {
          const LevelOps ops = tables_.at(level - 1);
          NodeId prev = fin;
          for (int ci = 7; ci >= 0; --ci) {
            std::vector<std::int32_t> children, parents;
            for (auto i : level_nodes_[level]) {
              const LetNode& node = let_.nodes[i];
              if (!node.target || node.parent < 0) continue;
              if (!let_.nodes[node.parent].target) continue;
              if (morton::child_index(node.key) != ci) continue;
              children.push_back(i);
              parents.push_back(node.parent);
            }
            if (children.empty()) continue;
            prev = gemm_stage(prev, kPhU2u, "eval.u2u", (*ops.m2m)[ci], 1.0,
                              std::move(children), &u_, elen,
                              std::move(parents), &u_, elen, &uwin, &uwout);
          }
          chain = prev;
        }
      }
      upward_all = graph.event("eval.u2u");
      if (chain != kNoNode) graph.edge(chain, upward_all);
    }

    // --- V-list ---
    if (use_fft) {
      const std::size_t nchunks = tables_.spectrum_len() / Tables::kFreqChunk;
      vli_lane_scratch();
      slot_of_.assign(nn, -1);
      for (int level = min_level_; level <= max_level_; ++level) {
        LevelDag& L = lv[level];
        VliLevel& V = L.vli;
        vli_collect(level, V);
        if (V.tgt.empty()) continue;
        // Local (never ghost-written) slots first so the ghost-gated
        // forward chunks cover a contiguous tail.
        const std::size_t n_local = static_cast<std::size_t>(
            std::stable_partition(
                V.src.begin(), V.src.end(),
                [&](std::int32_t si) { return !shared_node[si]; }) -
            V.src.begin());
        // Operator fetches happen here, sequentially at build time.
        phf[kPhVli].planned += vli_plan(level, V);
        scratch_bytes += static_cast<double>(V.spectra.size() + V.acc.size()) *
                         sizeof(fft::Complex);
        VliLevel* Vp = &V;

        // Forward transforms: chunks of local slots release on up_final
        // alone; chunks touching shared slots additionally wait for the
        // level's ghost latch — the incremental release that lets local
        // V-work start while the reduction is in flight.
        const NodeId fwd_done = graph.event("eval.vli");
        for (std::size_t b = 0; b < V.src.size(); b += kFftSlotGrain) {
          const std::size_t e = std::min(V.src.size(), b + kFftSlotGrain);
          const NodeId t = graph.node("eval.vli", [this, Vp, b, e](int lane) {
            vli_forward(*Vp, b, e, lane);
          });
          graph.edge(L.up_final, t);
          if (e > n_local) graph.edge(L.ghost_done, t);
          graph.edge(t, fwd_done);
        }

        // Frequency-chunk MACs, then per-target inverse transforms.
        const NodeId mac_done = graph.event("eval.vli");
        for (std::size_t cb = 0; cb < nchunks; cb += kFreqChunkGrain) {
          const std::size_t ce = std::min(nchunks, cb + kFreqChunkGrain);
          const NodeId t = graph.node(
              "eval.vli", [this, Vp, cb, ce](int) { vli_mac(*Vp, cb, ce); });
          graph.edge(fwd_done, t);
          graph.edge(t, mac_done);
        }

        const double m2l_scale = tables_.at(level).m2l_scale;
        const NodeId extract_done = graph.event("eval.vli");
        for (std::size_t b = 0; b < V.tgt.size(); b += kFftSlotGrain) {
          const std::size_t e = std::min(V.tgt.size(), b + kFftSlotGrain);
          const NodeId t = graph.node(
              "eval.vli", [this, Vp, b, e, m2l_scale](int lane) {
                vli_inverse(*Vp, b, e, m2l_scale, lane);
              });
          graph.edge(mac_done, t);
          graph.edge(t, extract_done);
        }
        // Free the level's spectra once consumed: per-level footprints
        // decay geometrically with depth, but releasing early keeps
        // several levels in flight cheap.
        const NodeId freed = graph.node("eval.vli", [Vp](int) {
          std::vector<fft::Complex>().swap(Vp->spectra);
          std::vector<fft::Complex>().swap(Vp->acc);
        });
        graph.edge(extract_done, freed);
        L.vli_done = extract_done;
      }
    } else {
      // Dense M2L: one chained gemm_stage per (level, offset) run,
      // entered once the level's upward densities AND ghosts landed.
      std::vector<std::tuple<int, std::int32_t, std::int32_t>> pairs;
      for (int level = min_level_; level <= max_level_; ++level) {
        LevelDag& L = lv[level];
        pairs.clear();
        for (auto i : level_nodes_[level]) {
          const LetNode& node = let_.nodes[i];
          if (!node.target) continue;
          for (auto si : let_.v.of(i))
            pairs.emplace_back(pair_offset_index(node, let_.nodes[si]), i, si);
        }
        if (pairs.empty()) continue;
        std::sort(pairs.begin(), pairs.end());
        const NodeId entry = graph.event("eval.vli");
        graph.edge(L.up_final, entry);
        graph.edge(L.ghost_done, entry);
        const LevelOps ops = tables_.at(level);
        NodeId prev = entry;
        for (std::size_t r0 = 0; r0 < pairs.size();) {
          const int off = std::get<0>(pairs[r0]);
          std::size_t r1 = r0;
          std::vector<std::int32_t> srcs, tgts;
          for (; r1 < pairs.size() && std::get<0>(pairs[r1]) == off; ++r1) {
            tgts.push_back(std::get<1>(pairs[r1]));
            srcs.push_back(std::get<2>(pairs[r1]));
          }
          prev = gemm_stage(prev, kPhVli, "eval.vli",
                            tables_.m2l_dense(level, off), ops.m2l_scale,
                            std::move(srcs), &u_, elen, std::move(tgts),
                            &checkpot_, clen, &L.gin, &L.gout);
          r0 = r1;
        }
        L.vli_done = prev;
      }
    }

    // --- X-list: per-level chunks, after the level's V-work so each
    // checkpot_ row accumulates V then X exactly as in bulk mode.
    for (int level = min_level_; level <= max_level_; ++level) {
      LevelDag& L = lv[level];
      for (auto i : level_nodes_[level])
        if (let_.nodes[i].target && !let_.x.of(i).empty())
          L.xnodes.push_back(i);
      if (L.xnodes.empty()) continue;
      LevelDag* Lp = &L;
      const NodeId done = graph.event("eval.xli");
      for (std::size_t b = 0; b < L.xnodes.size(); b += kNodeGrain) {
        const std::size_t e = std::min(L.xnodes.size(), b + kNodeGrain);
        const NodeId t = graph.node(
            "eval.xli", [this, Lp, b, e, clen, &kern, &phf](int lane) {
              std::uint64_t local = 0;
              for (std::size_t j = b; j < e; ++j) {
                const std::int32_t i = Lp->xnodes[j];
                const auto dc = box_surf(tables_.options().down_check_radius,
                                         let_.nodes[i].key, lane);
                std::span<double> out(
                    checkpot_.data() + std::size_t(i) * clen, clen);
                for (auto si : let_.x.of(i))
                  local += kern.direct(dc, leaf_source_positions(si),
                                       leaf_source_densities(si), out);
              }
              phf[kPhXli].counted.fetch_add(local, std::memory_order_relaxed);
            });
        if (L.vli_done != kNoNode) graph.edge(L.vli_done, t);
        graph.edge(t, done);
      }
      L.xli_done = done;
    }

    // --- Downward: coarsest level first; L2L child indices 0..7 then
    // the level's dc2de, all chained (shared dwin/dwout; the chain is
    // the bulk engine's own level order).
    {
      NodeId down_prev = kNoNode;
      for (int level = min_level_; level <= max_level_; ++level) {
        LevelDag& L = lv[level];
        if (level_nodes_[level].empty()) {
          L.down_done = down_prev;
          continue;
        }
        const NodeId entry = graph.event("eval.down");
        if (down_prev != kNoNode) graph.edge(down_prev, entry);
        if (L.vli_done != kNoNode) graph.edge(L.vli_done, entry);
        if (L.xli_done != kNoNode) graph.edge(L.xli_done, entry);
        NodeId prev = entry;
        if (level > min_level_) {
          const LevelOps pair_ops = tables_.at(level - 1);
          for (int ci = 0; ci < 8; ++ci) {
            std::vector<std::int32_t> parents, children;
            for (auto i : level_nodes_[level]) {
              const LetNode& node = let_.nodes[i];
              if (!node.target || node.parent < 0) continue;
              if (!let_.nodes[node.parent].target) continue;
              if (morton::child_index(node.key) != ci) continue;
              parents.push_back(node.parent);
              children.push_back(i);
            }
            if (parents.empty()) continue;
            prev = gemm_stage(prev, kPhDown, "eval.down", (*pair_ops.l2l)[ci],
                              pair_ops.l2l_scale, std::move(parents), &d_,
                              elen, std::move(children), &checkpot_, clen,
                              &dwin, &dwout);
          }
        }
        std::vector<std::int32_t> tgts;
        for (auto i : level_nodes_[level])
          if (let_.nodes[i].target) tgts.push_back(i);
        if (!tgts.empty()) {
          const LevelOps ops = tables_.at(level);
          prev = gemm_stage(prev, kPhDown, "eval.down", *ops.dc2de,
                            ops.dc2de_scale, tgts, &checkpot_, clen, tgts,
                            &d_, elen, &dwin, &dwout);
        }
        L.down_done = prev;
        down_prev = prev;
      }
    }

    // --- W-list then D2T, the bulk engine's global node chunks. A
    // chunk's W task needs every source density (upward + ghosts); its
    // D2T task additionally needs the downward chain to have finalized
    // d_ at each level its leaves live on, and runs after the W task so
    // each leaf's f_ row accumulates W then D2T as in bulk mode.
    for (std::size_t b = 0; b < nn; b += kNodeGrain) {
      const std::size_t e = std::min(nn, b + kNodeGrain);
      bool has_leaf = false, has_w = false;
      std::vector<int> levels;
      for (std::size_t i = b; i < e; ++i) {
        const LetNode& node = let_.nodes[i];
        if (!(node.owned && node.global_leaf) || node.target_count == 0)
          continue;
        has_leaf = true;
        if (!let_.w.of(i).empty()) has_w = true;
        const int l = node.key.level;
        if (std::find(levels.begin(), levels.end(), l) == levels.end())
          levels.push_back(l);
      }
      if (!has_leaf) continue;
      NodeId wt = kNoNode;
      if (has_w) {
        wt = graph.node(
            "eval.wli", [this, b, e, elen, &kern, &phf](int lane) {
              std::uint64_t local = 0;
              for (std::size_t i = b; i < e; ++i) {
                const LetNode& node = let_.nodes[i];
                if (!(node.owned && node.global_leaf) ||
                    node.target_count == 0)
                  continue;
                const auto list = let_.w.of(i);
                if (list.empty()) continue;
                const auto trg = leaf_target_positions(node);
                auto out = leaf_target_potential(node);
                for (auto si : list) {
                  const auto ue =
                      box_surf(tables_.options().upward_equiv_radius,
                               let_.nodes[si].key, lane);
                  local += kern.direct(
                      trg, ue,
                      std::span<const double>(
                          u_.data() + std::size_t(si) * elen, elen),
                      out);
                }
              }
              phf[kPhWli].counted.fetch_add(local, std::memory_order_relaxed);
            });
        graph.edge(upward_all, wt);
        graph.edge(ghosts_all, wt);
      }
      const NodeId dt = graph.node(
          "eval.d2t", [this, b, e, elen, &kern, &phf](int lane) {
            std::uint64_t local = 0;
            for (std::size_t i = b; i < e; ++i) {
              const LetNode& node = let_.nodes[i];
              if (!(node.owned && node.global_leaf) || node.target_count == 0)
                continue;
              const auto de = box_surf(tables_.options().down_equiv_radius,
                                       node.key, lane);
              local += kern.direct(
                  leaf_target_positions(node), de,
                  std::span<const double>(d_.data() + i * elen, elen),
                  leaf_target_potential(node));
            }
            phf[kPhD2t].counted.fetch_add(local, std::memory_order_relaxed);
          });
      if (wt != kNoNode) graph.edge(wt, dt);
      for (int l : levels)
        if (lv[l].down_done != kNoNode) graph.edge(lv[l].down_done, dt);
    }

    // --- ULI: dependency-free roots — just another set of DAG nodes
    // that fill worker idle time anywhere in the schedule. Merged into
    // f_ after the graph drains, exactly as uli_join() does.
    f_uli_.assign(f_.size(), 0.0);
    uli_flops_.store(0, std::memory_order_relaxed);
    uli_w0_ = obs::wall_seconds();
    for (std::size_t b = 0; b < nn; b += kNodeGrain) {
      const std::size_t e = std::min(nn, b + kNodeGrain);
      graph.node("eval.uli",
                 [this, b, e](int lane) { uli_chunk(b, e, lane); });
    }

    graph.launch();
  }

  // Help the workers until the local upward pass is done — the reduce
  // below needs every shared node's partial density final.
  {
    auto ut = ctx_.timer.scope("eval.dag.up");
    graph.wait_node(upward_all);
  }

  // The reduce, with the per-node write-back callback forwarding each
  // arrival to its level's latch. Predicted-but-unreached shared nodes
  // are flushed afterwards — including on the exception path, where the
  // graph must still be able to drain for safe unwinding.
  {
    auto ct = ctx_.timer.scope("eval.comm");
    ctx_.comm.cost().set_phase("eval.comm");
    NodeFinalFn on_final;
    if (ctx_.size() > 1)
      on_final = [this, &lv, &graph](std::int32_t ni) {
        LevelDag& L = lv[let_.nodes[static_cast<std::size_t>(ni)].key.level];
        if (L.ghost_signaled < L.ghost_expected) {
          ++L.ghost_signaled;
          graph.signal(L.ghost_done);
        }
      };
    auto flush_ghosts = [&lv, &graph] {
      for (LevelDag& L : lv)
        while (L.ghost_signaled < L.ghost_expected) {
          ++L.ghost_signaled;
          graph.signal(L.ghost_done);
        }
    };
    try {
      reduce_upward_densities(ctx_.comm, let_, tables_.eq_len(), u_,
                              opts.reduce, on_final);
    } catch (...) {
      flush_ghosts();
      throw;
    }
    flush_ghosts();
  }

  // Drain the rest of the graph, then fold flops (bulk phase order) and
  // merge the ULI buffer (still last, so f_'s summation order matches
  // uli_join()).
  {
    auto rt = ctx_.timer.scope("eval.dag.run");
    graph.wait();
    for (const PhaseFlops& pf : phf)
      ctx_.flops.add(pf.name,
                     pf.planned + pf.counted.load(std::memory_order_relaxed));
    ctx_.flops.add("eval.uli", uli_flops_.load(std::memory_order_relaxed));
    for (std::size_t k = 0; k < f_.size(); ++k) f_[k] += f_uli_[k];
  }

  // No phase boundaries exist in DAG mode, so the health sentinels run
  // back to back after the drain (see evaluator.hpp).
  health_post_s2u();
  health_post_reduce();
  health_post_run();

  // ULI overlap accounting: there is no join window in DAG mode — every
  // ULI burst executes interleaved with the rest of the graph, so
  // overlap == busy by construction. Must precede fold_stats (which
  // resets the burst log).
  const double inf = std::numeric_limits<double>::infinity();
  const double uli_busy = pool_->busy_overlap("eval.uli", uli_w0_, inf);
  ctx_.rec.counter_add("sched.uli.busy_seconds", uli_busy);
  ctx_.rec.counter_add("sched.uli.overlap_seconds", uli_busy);

  graph.fold_stats(ctx_.rec);
  pool_->fold_stats(ctx_.rec);
  publish_mem_gauges();
  auto cap = [](const auto& v) {
    return static_cast<double>(
        v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  scratch_bytes += cap(uwin) + cap(uwout) + cap(dwin) + cap(dwout);
  for (const LevelDag& L : lv)
    scratch_bytes += cap(L.gin) + cap(L.gout) + cap(L.s2u_tmp) +
                     cap(L.vli.fidx) + cap(L.vli.aidx);
  ctx_.rec.gauge_set("mem.eval.dag_scratch_bytes", scratch_bytes);
}

/// Publishes the evaluator's scratch footprint as `mem.eval.*` byte
/// gauges. Capacities only grow across phases, so sampling once after
/// the pipeline captures each buffer's high-water mark for this run.
void Evaluator::publish_mem_gauges() {
  auto cap = [](const auto& v) {
    return static_cast<double>(
        v.capacity() *
        sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  obs::Recorder& rec = ctx_.rec;
  rec.gauge_set("mem.eval.state_bytes",
                cap(u_) + cap(checkpot_) + cap(d_) + cap(f_) + cap(f_uli_) +
                    cap(pos_) + cap(src_pos_) + cap(src_den_) +
                    cap(src_offset_));
  rec.gauge_set("mem.eval.surface_bytes",
                static_cast<double>(surf_.bytes()) + cap(surf_scratch_));
  rec.gauge_set("mem.eval.lane_scratch_bytes",
                cap(lane_surf_) + cap(lane_cube_) + cap(lane_half_));
  rec.gauge_set("mem.eval.batch_bytes",
                cap(batch_in_) + cap(batch_out_) + cap(batch_tmp_) +
                    cap(slots_a_) + cap(slots_b_) + cap(slot_of_) +
                    cap(vli_.tgt) + cap(vli_.src) + cap(vli_.fidx) +
                    cap(vli_.aidx));
  rec.gauge_set("mem.eval.fft_chunk_bytes",
                cap(vli_.spectra) + cap(vli_.acc));
}

namespace {

/// Moment-invariant tolerance: the upward equivalent density's total
/// "charge" matches the leaf's summed source densities only to the
/// surface discretization accuracy, which is loose at surface_n = 3-4
/// (the invariant is a corruption tripwire, not an accuracy bound —
/// corruption flips sign bits or exponents and misses by orders of
/// magnitude). Clean-run sweeps across kernels x distributions pin
/// this headroom in tests/test_health.cpp.
constexpr double kMomentTol = 0.05;

}  // namespace

void Evaluator::health_post_s2u() {
  const FmmOptions& opts = tables_.options();
  if (!opts.health) return;
  auto t = ctx_.timer.scope("health.check");
  obs::Recorder& rec = ctx_.rec;
  const std::size_t elen = tables_.eq_len();
  const int sd = tables_.sdim();
  const auto& kern = tables_.kernel();
  // The monopole term of a 1/r-class kernel is the total source
  // density, so the equivalent density must conserve it per component.
  const bool moment =
      kern.homogeneous() && kern.homogeneity_degree() == -1.0;

  double digest = 0.0;
  double moment_max = 0.0;
  std::size_t bad = 0, violations = 0;
  bool injected = false;
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!(node.owned && node.global_leaf)) continue;
    std::span<double> chunk(u_.data() + i * elen, elen);
    // Corrupt the FIRST owned leaf (not the root: a top-level chunk can
    // have no V/W consumers, leaving outputs untouched) so the fault
    // both lands in this digest and propagates downstream.
    if (!injected &&
        obs::maybe_inject(obs::InjectPhase::kS2u, ctx_.rank(), chunk)) {
      injected = true;
      rec.counter_add("health.injected");
    }
    digest += obs::chunk_digest(chunk, morton::KeyHash{}(node.key));
    bad += obs::nonfinite_count(chunk);
    if (moment && !leaf_source_densities(i).empty()) {
      const std::span<const double> den = leaf_source_densities(i);
      double diff = 0.0, ref = 0.0;
      const std::size_t npts = elen / sd;
      const std::size_t nsrc = den.size() / sd;
      for (int c = 0; c < sd; ++c) {
        double su = 0.0, sq = 0.0;
        for (std::size_t pt = 0; pt < npts; ++pt) su += chunk[pt * sd + c];
        for (std::size_t s = 0; s < nsrc; ++s) sq += den[s * sd + c];
        diff += std::abs(su - sq);
        ref += std::abs(sq);
      }
      const double rel = diff / std::max(ref, 1e-300);
      moment_max = std::max(moment_max, rel);
      if (rel > kMomentTol) ++violations;
    }
  }
  rec.counter_add("health.digest.u", digest);
  if (bad > 0)
    rec.counter_add("health.s2u.nonfinite", static_cast<double>(bad));
  if (violations > 0)
    rec.counter_add("health.moment.violations",
                    static_cast<double>(violations));
  // Running max as a counter (only counters cross the summary).
  rec.counter_add("health.moment.max_rel",
                  std::max(0.0, moment_max - rec.counter("health.moment.max_rel")));
  PKIFMM_CHECK_MSG(!opts.health_fatal || bad == 0,
                   "health: non-finite upward densities after S2U");
  PKIFMM_CHECK_MSG(!opts.health_fatal || violations == 0,
                   "health: moment invariant violated after S2U");
}

void Evaluator::health_post_reduce() {
  const FmmOptions& opts = tables_.options();
  if (!opts.health) return;
  auto t = ctx_.timer.scope("health.check");
  obs::Recorder& rec = ctx_.rec;
  const std::size_t elen = tables_.eq_len();

  double digest = 0.0;
  std::size_t bad = 0;
  bool injected = false;
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!node.owned) continue;
    std::span<double> chunk(u_.data() + i * elen, elen);
    if (!injected && node.global_leaf &&
        obs::maybe_inject(obs::InjectPhase::kReduce, ctx_.rank(), chunk)) {
      injected = true;
      rec.counter_add("health.injected");
    }
    digest += obs::chunk_digest(chunk, morton::KeyHash{}(node.key));
    bad += obs::nonfinite_count(chunk);
  }
  rec.counter_add("health.digest.reduce", digest);
  if (bad > 0)
    rec.counter_add("health.reduce.nonfinite", static_cast<double>(bad));
  PKIFMM_CHECK_MSG(!opts.health_fatal || bad == 0,
                   "health: non-finite upward densities after reduce");
}

void Evaluator::health_post_run() {
  const FmmOptions& opts = tables_.options();
  if (!opts.health) return;
  auto t = ctx_.timer.scope("health.check");
  obs::Recorder& rec = ctx_.rec;

  double digest = 0.0;
  std::size_t bad = 0;
  bool injected = false;
  for (const LetNode& node : let_.nodes) {
    if (!(node.owned && node.global_leaf) || node.target_count == 0) continue;
    std::span<double> chunk = leaf_target_potential(node);
    if (!injected &&
        obs::maybe_inject(obs::InjectPhase::kD2t, ctx_.rank(), chunk)) {
      injected = true;
      rec.counter_add("health.injected");
    }
    digest += obs::chunk_digest(chunk, morton::KeyHash{}(node.key));
    bad += obs::nonfinite_count(chunk);
  }
  rec.counter_add("health.digest.pot", digest);
  if (bad > 0)
    rec.counter_add("health.d2t.nonfinite", static_cast<double>(bad));
  PKIFMM_CHECK_MSG(!opts.health_fatal || bad == 0,
                   "health: non-finite potentials after D2T");
}

void Evaluator::s2u() { batched() ? s2u_batched() : s2u_scalar(); }

void Evaluator::s2u_scalar() {
  const auto& kern = tables_.kernel();
  std::vector<double> check(tables_.check_len());
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!(node.owned && node.global_leaf)) continue;
    if (leaf_source_positions(i).empty()) continue;
    const auto uc =
        box_surf(tables_.options().upward_check_radius, node.key);
    std::fill(check.begin(), check.end(), 0.0);
    ctx_.flops.add("eval.s2u", kern.direct(uc, leaf_source_positions(i),
                                           leaf_source_densities(i), check));
    const LevelOps ops = tables_.at(node.key.level);
    la::gemv_acc(*ops.uc2ue, check,
                 std::span<double>(u_.data() + i * tables_.eq_len(),
                                   tables_.eq_len()),
                 ops.uc2ue_scale);
    ctx_.flops.add("eval.s2u", la::gemv_flops(*ops.uc2ue));
  }
}

void Evaluator::s2u_batched() {
  const auto& kern = tables_.kernel();
  const std::size_t clen = tables_.check_len();
  const std::size_t elen = tables_.eq_len();
  for (int level = min_level_; level <= max_level_; ++level) {
    // Contributing leaves at this level.
    slots_a_.clear();
    for (auto i : level_nodes_[level]) {
      const LetNode& node = let_.nodes[i];
      if (!(node.owned && node.global_leaf)) continue;
      if (leaf_source_positions(i).empty()) continue;
      slots_a_.push_back(i);
    }
    if (slots_a_.empty()) continue;
    const std::size_t nb = slots_a_.size();

    // Per-leaf upward-check potentials into node-major scratch, chunks
    // writing disjoint rows...
    batch_tmp_.assign(nb * clen, 0.0);
    std::atomic<std::uint64_t> flops{0};
    pool_->parallel_for(
        nb, kNodeGrain,
        [&](std::size_t b, std::size_t e, int lane) {
          std::uint64_t local = 0;
          for (std::size_t j = b; j < e; ++j) {
            const std::int32_t i = slots_a_[j];
            const auto uc = box_surf(tables_.options().upward_check_radius,
                                     let_.nodes[i].key, lane);
            local += kern.direct(
                uc, leaf_source_positions(i), leaf_source_densities(i),
                std::span<double>(batch_tmp_.data() + j * clen, clen));
          }
          flops.fetch_add(local, std::memory_order_relaxed);
        },
        "eval.s2u");
    ctx_.flops.add("eval.s2u", flops.load(std::memory_order_relaxed));

    // ...transposed to batch columns, then ONE uc2ue application for
    // the whole level (column-windowed over the pool).
    slots_b_.resize(nb);
    std::iota(slots_b_.begin(), slots_b_.end(), 0);
    batch_in_.resize(clen * nb);
    la::gather_columns(batch_tmp_, slots_b_, clen, batch_in_);
    const LevelOps ops = tables_.at(level);
    batch_out_.assign(elen * nb, 0.0);
    gemm_batched(*ops.uc2ue, nb, ops.uc2ue_scale, "eval.s2u");
    la::scatter_columns_acc(batch_out_, slots_a_, elen, u_);
  }
}

void Evaluator::u2u() { batched() ? u2u_batched() : u2u_scalar(); }

void Evaluator::u2u_scalar() {
  // Reverse preorder = children before parents.
  for (std::size_t ri = let_.nodes.size(); ri-- > 0;) {
    const LetNode& node = let_.nodes[ri];
    if (!node.target || node.parent < 0) continue;
    if (!let_.nodes[node.parent].target) continue;
    const LevelOps ops = tables_.at(node.key.level - 1);
    const la::Matrix& m = (*ops.m2m)[morton::child_index(node.key)];
    la::gemv_acc(m,
                 std::span<const double>(u_.data() + ri * tables_.eq_len(),
                                         tables_.eq_len()),
                 std::span<double>(u_.data() +
                                       std::size_t(node.parent) *
                                           tables_.eq_len(),
                                   tables_.eq_len()));
    ctx_.flops.add("eval.u2u", la::gemv_flops(m));
  }
}

void Evaluator::u2u_batched() {
  // Deepest level first so every child's density is final before it is
  // lifted; within a level, one GEMM per child index (the eight M2M
  // operators of the paper's Table I). Child indices run high-to-low
  // to add into each parent in the same order as the scalar engine's
  // reverse-preorder sweep, so u2u rounds identically in both modes.
  const std::size_t elen = tables_.eq_len();
  for (int level = max_level_; level > min_level_; --level) {
    if (level_nodes_[level].empty()) continue;
    const LevelOps ops = tables_.at(level - 1);
    for (int ci = 7; ci >= 0; --ci) {
      slots_a_.clear();  // children
      slots_b_.clear();  // parents
      for (auto i : level_nodes_[level]) {
        const LetNode& node = let_.nodes[i];
        if (!node.target || node.parent < 0) continue;
        if (!let_.nodes[node.parent].target) continue;
        if (morton::child_index(node.key) != ci) continue;
        slots_a_.push_back(i);
        slots_b_.push_back(node.parent);
      }
      if (slots_a_.empty()) continue;
      const std::size_t nb = slots_a_.size();
      const la::Matrix& m = (*ops.m2m)[ci];
      batch_in_.resize(elen * nb);
      la::gather_columns(u_, slots_a_, elen, batch_in_);
      batch_out_.assign(elen * nb, 0.0);
      gemm_batched(m, nb, 1.0, "eval.u2u");
      la::scatter_columns_acc(batch_out_, slots_b_, elen, u_);
    }
  }
}

void Evaluator::comm_reduce() {
  ctx_.comm.cost().set_phase("eval.comm");
  reduce_upward_densities(ctx_.comm, let_, tables_.eq_len(), u_,
                          tables_.options().reduce);
}

void Evaluator::vli() {
  if (tables_.options().m2l == M2lMode::kDense) {
    batched() ? vli_dense_batched() : vli_dense_scalar();
  } else {
    batched() ? vli_fft_batched() : vli_fft_scalar();
  }
}

void Evaluator::vli_dense_scalar() {
  // Dense baseline: one gemv per (target, source) pair.
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!node.target) continue;
    const auto list = let_.v.of(i);
    if (list.empty()) continue;
    const LevelOps ops = tables_.at(node.key.level);
    for (auto si : list) {
      const la::Matrix& m = tables_.m2l_dense(
          node.key.level, pair_offset_index(node, let_.nodes[si]));
      la::gemv_acc(m,
                   std::span<const double>(
                       u_.data() + std::size_t(si) * tables_.eq_len(),
                       tables_.eq_len()),
                   std::span<double>(
                       checkpot_.data() + i * tables_.check_len(),
                       tables_.check_len()),
                   ops.m2l_scale);
      ctx_.flops.add("eval.vli", la::gemv_flops(m));
    }
  }
}

void Evaluator::vli_dense_batched() {
  // Pairs sorted by translation offset: one GEMM per (level, offset).
  const std::size_t elen = tables_.eq_len();
  const std::size_t clen = tables_.check_len();
  std::vector<std::tuple<int, std::int32_t, std::int32_t>> pairs;
  for (int level = min_level_; level <= max_level_; ++level) {
    pairs.clear();
    for (auto i : level_nodes_[level]) {
      const LetNode& node = let_.nodes[i];
      if (!node.target) continue;
      for (auto si : let_.v.of(i))
        pairs.emplace_back(pair_offset_index(node, let_.nodes[si]), i, si);
    }
    if (pairs.empty()) continue;
    std::sort(pairs.begin(), pairs.end());
    const LevelOps ops = tables_.at(level);
    for (std::size_t r0 = 0; r0 < pairs.size();) {
      const int off = std::get<0>(pairs[r0]);
      std::size_t r1 = r0;
      slots_a_.clear();  // sources
      slots_b_.clear();  // targets
      for (; r1 < pairs.size() && std::get<0>(pairs[r1]) == off; ++r1) {
        slots_b_.push_back(std::get<1>(pairs[r1]));
        slots_a_.push_back(std::get<2>(pairs[r1]));
      }
      const std::size_t nb = r1 - r0;
      const la::Matrix& m = tables_.m2l_dense(level, off);
      batch_in_.resize(elen * nb);
      la::gather_columns(u_, slots_a_, elen, batch_in_);
      batch_out_.assign(clen * nb, 0.0);
      gemm_batched(m, nb, ops.m2l_scale, "eval.vli");
      la::scatter_columns_acc(batch_out_, slots_b_, clen, checkpot_);
      r0 = r1;
    }
  }
}

void Evaluator::vli_fft_scalar() {
  // FFT-diagonal translation, batched by level so per-octant half
  // spectra are kept only for the level being processed.
  const int sd = tables_.sdim();
  const int td = tables_.tdim();
  const std::size_t n = static_cast<std::size_t>(tables_.n());
  const std::size_t len = tables_.spectrum_len();
  const std::size_t hv = tables_.fft().half_volume();
  const auto& embed = tables_.embed_index();
  const int m = tables_.m();
  const Tables::VliFlops& fl = tables_.vli_flops();

  std::vector<double> cube(n * n * n);
  std::vector<fft::Complex> acc(static_cast<std::size_t>(td) * len);
  std::vector<std::pair<int, std::int32_t>> offsets;
  for (int level = min_level_; level <= max_level_; ++level) {
    // Sources used by some target's V-list at this level.
    std::unordered_map<std::int32_t, std::vector<fft::Complex>> spectra;
    for (auto i : level_nodes_[level]) {
      if (!let_.nodes[i].target) continue;
      for (auto si : let_.v.of(i)) spectra.try_emplace(si);
    }
    if (spectra.empty()) continue;

    // Per-octant r2c transforms of the embedded equivalent densities.
    for (auto& [si, spec] : spectra) {
      spec.assign(static_cast<std::size_t>(sd) * len, fft::Complex(0, 0));
      const double* usrc = u_.data() + std::size_t(si) * tables_.eq_len();
      for (int c = 0; c < sd; ++c) {
        std::fill(cube.begin(), cube.end(), 0.0);
        for (int k = 0; k < m; ++k) cube[embed[k]] = usrc[k * sd + c];
        tables_.fft().forward_r2c(
            cube, n, std::span<fft::Complex>(spec.data() + c * len, hv));
      }
      ctx_.flops.add("eval.vli", fl.fwd_per_source);
    }

    // Diagonal translation + c2r transform per target.
    const LevelOps ops = tables_.at(level);
    for (auto i : level_nodes_[level]) {
      const LetNode& node = let_.nodes[i];
      if (!node.target) continue;
      const auto list = let_.v.of(i);
      if (list.empty()) continue;

      // Sources in offset order, the batched sweep's accumulation order.
      offsets.clear();
      for (auto si : list)
        offsets.emplace_back(pair_offset_index(node, let_.nodes[si]), si);
      std::sort(offsets.begin(), offsets.end());
      std::fill(acc.begin(), acc.end(), fft::Complex(0, 0));
      for (const auto& [off, si] : offsets) {
        const auto g = tables_.m2l_spectra(level, off);
        const auto& spec = spectra.at(si);
        for (int ti = 0; ti < td; ++ti)
          for (int sc = 0; sc < sd; ++sc)
            fft::pointwise_mac(
                g.subspan(std::size_t(ti * sd + sc) * len, len),
                std::span<const fft::Complex>(spec.data() + sc * len, len),
                std::span<fft::Complex>(acc.data() + ti * len, len));
        ctx_.flops.add("eval.vli", fl.mac_per_pair);
      }
      double* out = checkpot_.data() + std::size_t(i) * tables_.check_len();
      for (int ti = 0; ti < td; ++ti) {
        tables_.fft().inverse_c2r(
            std::span<fft::Complex>(acc.data() + ti * len, hv), n, cube);
        for (int k = 0; k < m; ++k)
          out[k * td + ti] += ops.m2l_scale * cube[embed[k]];
      }
      ctx_.flops.add("eval.vli", fl.inv_per_target);
    }
  }
}

// The batched FFT V-list, shared by vli_fft_batched (bulk) and run_dag.
// Relative to the scalar path:
//  - half spectra live in ONE flat buffer indexed by level slots
//    (slot_of_) instead of an unordered_map of vectors,
//  - (target, source) pairs are sorted by translation-offset index so
//    each m2l_spectra operator is fetched once per run,
//  - spectra and accumulators are stored CHUNK-MAJOR (all slots'
//    values for one kFreqChunk-frequency chunk contiguous) and the
//    diagonal multiply sweeps the frequency axis in the outer loop:
//    each chunk's working set (one chunk of every live slot) fits L2,
//    so the MAC is compute-bound instead of re-streaming whole spectra
//    from memory for every pair. Value (slot_comp, q) lives at
//    buf[(q / kFreqChunk) * ncomp * kFreqChunk + slot_comp * kFreqChunk
//        + q % kFreqChunk].
// Flops follow Tables::vli_flops() exactly as in the scalar path.

void Evaluator::vli_collect(int level, VliLevel& V) {
  V.tgt.clear();
  V.src.clear();
  for (auto i : level_nodes_[level]) {
    if (!let_.nodes[i].target) continue;
    const auto list = let_.v.of(i);
    if (list.empty()) continue;
    V.tgt.push_back(i);
    for (auto si : list)
      if (slot_of_[si] < 0) {
        slot_of_[si] = 0;  // seen; vli_plan numbers the slots
        V.src.push_back(si);
      }
  }
}

std::uint64_t Evaluator::vli_plan(int level, VliLevel& V) {
  const int sd = tables_.sdim();
  const int td = tables_.tdim();
  const std::size_t len = tables_.spectrum_len();
  for (std::size_t sl = 0; sl < V.src.size(); ++sl)
    slot_of_[V.src[sl]] = static_cast<std::int32_t>(sl);

  // All (target, source) pairs of the level, sorted by offset index.
  // (offset, target) is unique per pair, so the order of the MACs into
  // any accumulator does not depend on how the slots were numbered.
  std::vector<std::tuple<int, std::int32_t, std::int32_t>> pairs;
  for (std::size_t bj = 0; bj < V.tgt.size(); ++bj) {
    const LetNode& node = let_.nodes[V.tgt[bj]];
    for (auto si : let_.v.of(V.tgt[bj]))
      pairs.emplace_back(pair_offset_index(node, let_.nodes[si]),
                         static_cast<std::int32_t>(bj), slot_of_[si]);
  }
  std::sort(pairs.begin(), pairs.end());

  // One operator fetch per offset run; each td x sd component of a run
  // becomes an entry group sharing one spectrum component.
  V.groups.clear();
  V.fidx.clear();
  V.aidx.clear();
  for (std::size_t r0 = 0; r0 < pairs.size();) {
    const int off = std::get<0>(pairs[r0]);
    std::size_t r1 = r0;
    while (r1 < pairs.size() && std::get<0>(pairs[r1]) == off) ++r1;
    const auto g = tables_.m2l_spectra(level, off);
    for (int ti = 0; ti < td; ++ti)
      for (int sc = 0; sc < sd; ++sc) {
        const std::size_t e0 = V.fidx.size();
        for (std::size_t p = r0; p < r1; ++p) {
          V.fidx.push_back(std::get<2>(pairs[p]) * sd + sc);
          V.aidx.push_back(std::get<1>(pairs[p]) * td + ti);
        }
        V.groups.push_back(
            {g.data() + std::size_t(ti * sd + sc) * len, e0, V.fidx.size()});
      }
    r0 = r1;
  }
  for (auto si : V.src) slot_of_[si] = -1;  // reset for the next level

  // vli_forward writes every spectra value; the MAC accumulates.
  V.spectra.resize(V.src.size() * sd * len);
  V.acc.assign(V.tgt.size() * td * len, fft::Complex(0, 0));
  const Tables::VliFlops& fl = tables_.vli_flops();
  return V.src.size() * fl.fwd_per_source + pairs.size() * fl.mac_per_pair +
         V.tgt.size() * fl.inv_per_target;
}

void Evaluator::vli_lane_scratch() {
  const std::size_t n = static_cast<std::size_t>(tables_.n());
  const std::size_t lanes = static_cast<std::size_t>(pool_->lanes());
  lane_cube_.assign(lanes * n * n * n, 0.0);
  lane_half_.assign(lanes * tables_.spectrum_len(), fft::Complex(0, 0));
}

void Evaluator::vli_forward(VliLevel& V, std::size_t b, std::size_t e,
                            int lane) {
  const int sd = tables_.sdim();
  const int m = tables_.m();
  const auto& embed = tables_.embed_index();
  const std::size_t n = static_cast<std::size_t>(tables_.n());
  const std::size_t len = tables_.spectrum_len();
  const std::size_t hv = tables_.fft().half_volume();
  const std::size_t nsc = V.src.size() * sd;
  const std::span<double> cube(lane_cube_.data() + lane * n * n * n,
                               n * n * n);
  fft::Complex* half = lane_half_.data() + lane * len;
  std::fill(half + hv, half + len, fft::Complex(0, 0));
  for (std::size_t sl = b; sl < e; ++sl) {
    const double* usrc = u_.data() + std::size_t(V.src[sl]) * tables_.eq_len();
    for (int c = 0; c < sd; ++c) {
      std::fill(cube.begin(), cube.end(), 0.0);
      for (int k = 0; k < m; ++k) cube[embed[k]] = usrc[k * sd + c];
      tables_.fft().forward_r2c(cube, n, std::span<fft::Complex>(half, hv));
      const std::size_t comp = sl * sd + c;
      for (std::size_t q0 = 0; q0 < len; q0 += Tables::kFreqChunk)
        std::copy(half + q0, half + q0 + Tables::kFreqChunk,
                  V.spectra.data() + q0 * nsc + comp * Tables::kFreqChunk);
    }
  }
}

void Evaluator::vli_mac(VliLevel& V, std::size_t cb, std::size_t ce) {
  constexpr std::size_t kc = Tables::kFreqChunk;
  const std::size_t nsc = V.src.size() * tables_.sdim();
  const std::size_t ntc = V.tgt.size() * tables_.tdim();
  const std::span<const std::int32_t> fidx(V.fidx), aidx(V.aidx);
  for (std::size_t ci = cb; ci < ce; ++ci) {
    const fft::Complex* fb = V.spectra.data() + ci * nsc * kc;
    fft::Complex* ab = V.acc.data() + ci * ntc * kc;
    for (const VliLevel::Group& grp : V.groups)
      fft::pointwise_mac_chunked(grp.g + ci * kc, kc, fb, ab,
                                 fidx.subspan(grp.e0, grp.e1 - grp.e0),
                                 aidx.subspan(grp.e0, grp.e1 - grp.e0));
  }
}

void Evaluator::vli_inverse(VliLevel& V, std::size_t b, std::size_t e,
                            double scale, int lane) {
  const int td = tables_.tdim();
  const int m = tables_.m();
  const auto& embed = tables_.embed_index();
  const std::size_t n = static_cast<std::size_t>(tables_.n());
  const std::size_t len = tables_.spectrum_len();
  const std::size_t hv = tables_.fft().half_volume();
  const std::size_t clen = tables_.check_len();
  const std::size_t ntc = V.tgt.size() * td;
  const std::span<double> cube(lane_cube_.data() + lane * n * n * n,
                               n * n * n);
  fft::Complex* half = lane_half_.data() + lane * len;
  for (std::size_t bj = b; bj < e; ++bj) {
    double* out = checkpot_.data() + std::size_t(V.tgt[bj]) * clen;
    for (int ti = 0; ti < td; ++ti) {
      const std::size_t comp = bj * td + ti;
      for (std::size_t q0 = 0; q0 < hv; q0 += Tables::kFreqChunk) {
        const fft::Complex* src =
            V.acc.data() + q0 * ntc + comp * Tables::kFreqChunk;
        std::copy(src, src + std::min(Tables::kFreqChunk, hv - q0), half + q0);
      }
      tables_.fft().inverse_c2r(std::span<fft::Complex>(half, hv), n, cube);
      for (int k = 0; k < m; ++k) out[k * td + ti] += scale * cube[embed[k]];
    }
  }
}

void Evaluator::vli_fft_batched() {
  const std::size_t nchunks = tables_.spectrum_len() / Tables::kFreqChunk;
  slot_of_.assign(let_.nodes.size(), -1);
  vli_lane_scratch();
  for (int level = min_level_; level <= max_level_; ++level) {
    vli_collect(level, vli_);
    if (vli_.tgt.empty()) continue;
    ctx_.flops.add("eval.vli", vli_plan(level, vli_));

    // Each chunk of source slots owns disjoint spectra components,
    // each frequency chunk disjoint accumulator windows, each chunk of
    // targets disjoint checkpot_ rows.
    pool_->parallel_for(
        vli_.src.size(), kFftSlotGrain,
        [&](std::size_t b, std::size_t e, int lane) {
          vli_forward(vli_, b, e, lane);
        },
        "eval.vli");
    pool_->parallel_for(
        nchunks, kFreqChunkGrain,
        [&](std::size_t cb, std::size_t ce, int) { vli_mac(vli_, cb, ce); },
        "eval.vli");
    const double scale = tables_.at(level).m2l_scale;
    pool_->parallel_for(
        vli_.tgt.size(), kFftSlotGrain,
        [&](std::size_t b, std::size_t e, int lane) {
          vli_inverse(vli_, b, e, scale, lane);
        },
        "eval.vli");
  }
}

void Evaluator::xli(bool include_leaves) {
  const auto& kern = tables_.kernel();
  const std::size_t clen = tables_.check_len();
  std::atomic<std::uint64_t> flops{0};
  pool_->parallel_for(
      let_.nodes.size(), kNodeGrain,
      [&](std::size_t b, std::size_t e, int lane) {
        std::uint64_t local = 0;
        for (std::size_t i = b; i < e; ++i) {
          const LetNode& node = let_.nodes[i];
          if (!node.target) continue;
          if (!include_leaves && node.global_leaf) continue;
          const auto list = let_.x.of(i);
          if (list.empty()) continue;
          const auto dc =
              box_surf(tables_.options().down_check_radius, node.key, lane);
          std::span<double> out(checkpot_.data() + i * clen, clen);
          for (auto si : list)
            local += kern.direct(dc, leaf_source_positions(si),
                                 leaf_source_densities(si), out);
        }
        flops.fetch_add(local, std::memory_order_relaxed);
      },
      "eval.xli");
  ctx_.flops.add("eval.xli", flops.load(std::memory_order_relaxed));
}

void Evaluator::downward() { batched() ? downward_batched() : downward_scalar(); }

void Evaluator::downward_scalar() {
  // Preorder: parents are finalized before their children read them.
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!node.target) continue;
    std::span<double> check(checkpot_.data() + i * tables_.check_len(),
                            tables_.check_len());
    if (node.parent >= 0 && let_.nodes[node.parent].target) {
      const LevelOps pair_ops = tables_.at(node.key.level - 1);
      const la::Matrix& l2l = (*pair_ops.l2l)[morton::child_index(node.key)];
      la::gemv_acc(l2l,
                   std::span<const double>(
                       d_.data() + std::size_t(node.parent) * tables_.eq_len(),
                       tables_.eq_len()),
                   check, pair_ops.l2l_scale);
      ctx_.flops.add("eval.down", la::gemv_flops(l2l));
    }
    const LevelOps ops = tables_.at(node.key.level);
    la::gemv_acc(*ops.dc2de, check,
                 std::span<double>(d_.data() + i * tables_.eq_len(),
                                   tables_.eq_len()),
                 ops.dc2de_scale);
    ctx_.flops.add("eval.down", la::gemv_flops(*ops.dc2de));
  }
}

void Evaluator::downward_batched() {
  // Coarsest level first: a level's check potentials receive L2L from
  // already-finalized parent densities (one GEMM per child index), then
  // ONE dc2de conversion finalizes the level's own densities.
  const std::size_t elen = tables_.eq_len();
  const std::size_t clen = tables_.check_len();
  for (int level = min_level_; level <= max_level_; ++level) {
    if (level_nodes_[level].empty()) continue;
    if (level > min_level_) {
      const LevelOps pair_ops = tables_.at(level - 1);
      for (int ci = 0; ci < 8; ++ci) {
        slots_a_.clear();  // parents
        slots_b_.clear();  // children
        for (auto i : level_nodes_[level]) {
          const LetNode& node = let_.nodes[i];
          if (!node.target || node.parent < 0) continue;
          if (!let_.nodes[node.parent].target) continue;
          if (morton::child_index(node.key) != ci) continue;
          slots_a_.push_back(node.parent);
          slots_b_.push_back(i);
        }
        if (slots_a_.empty()) continue;
        const std::size_t nb = slots_a_.size();
        const la::Matrix& l2l = (*pair_ops.l2l)[ci];
        batch_in_.resize(elen * nb);
        la::gather_columns(d_, slots_a_, elen, batch_in_);
        batch_out_.assign(clen * nb, 0.0);
        gemm_batched(l2l, nb, pair_ops.l2l_scale, "eval.down");
        la::scatter_columns_acc(batch_out_, slots_b_, clen, checkpot_);
      }
    }

    slots_a_.clear();
    for (auto i : level_nodes_[level])
      if (let_.nodes[i].target) slots_a_.push_back(i);
    if (slots_a_.empty()) continue;
    const std::size_t nb = slots_a_.size();
    const LevelOps ops = tables_.at(level);
    batch_in_.resize(clen * nb);
    la::gather_columns(checkpot_, slots_a_, clen, batch_in_);
    batch_out_.assign(elen * nb, 0.0);
    gemm_batched(*ops.dc2de, nb, ops.dc2de_scale, "eval.down");
    la::scatter_columns_acc(batch_out_, slots_a_, elen, d_);
  }
}

void Evaluator::wli() {
  const auto& kern = tables_.kernel();
  const std::size_t elen = tables_.eq_len();
  std::atomic<std::uint64_t> flops{0};
  pool_->parallel_for(
      let_.nodes.size(), kNodeGrain,
      [&](std::size_t b, std::size_t e, int lane) {
        std::uint64_t local = 0;
        for (std::size_t i = b; i < e; ++i) {
          const LetNode& node = let_.nodes[i];
          if (!(node.owned && node.global_leaf) || node.target_count == 0)
            continue;
          const auto list = let_.w.of(i);
          if (list.empty()) continue;
          const auto trg = leaf_target_positions(node);
          auto out = leaf_target_potential(node);
          for (auto si : list) {
            const auto ue = box_surf(tables_.options().upward_equiv_radius,
                                     let_.nodes[si].key, lane);
            local += kern.direct(
                trg, ue,
                std::span<const double>(u_.data() + std::size_t(si) * elen,
                                        elen),
                out);
          }
        }
        flops.fetch_add(local, std::memory_order_relaxed);
      },
      "eval.wli");
  ctx_.flops.add("eval.wli", flops.load(std::memory_order_relaxed));
}

void Evaluator::d2t() {
  const auto& kern = tables_.kernel();
  const std::size_t elen = tables_.eq_len();
  std::atomic<std::uint64_t> flops{0};
  pool_->parallel_for(
      let_.nodes.size(), kNodeGrain,
      [&](std::size_t b, std::size_t e, int lane) {
        std::uint64_t local = 0;
        for (std::size_t i = b; i < e; ++i) {
          const LetNode& node = let_.nodes[i];
          if (!(node.owned && node.global_leaf) || node.target_count == 0)
            continue;
          const auto de =
              box_surf(tables_.options().down_equiv_radius, node.key, lane);
          local += kern.direct(
              leaf_target_positions(node), de,
              std::span<const double>(d_.data() + i * elen, elen),
              leaf_target_potential(node));
        }
        flops.fetch_add(local, std::memory_order_relaxed);
      },
      "eval.d2t");
  ctx_.flops.add("eval.d2t", flops.load(std::memory_order_relaxed));
}

void Evaluator::uli() {
  if (!uli_started_) uli_start();
  uli_join();
}

void Evaluator::uli_start() {
  PKIFMM_CHECK(!uli_started_);
  uli_started_ = true;
  f_uli_.assign(f_.size(), 0.0);
  uli_flops_.store(0, std::memory_order_relaxed);
  uli_w0_ = obs::wall_seconds();
  const std::size_t n = let_.nodes.size();
  for (std::size_t b = 0; b < n; b += kNodeGrain) {
    const std::size_t e = std::min(n, b + kNodeGrain);
    pool_->submit(uli_group_, "eval.uli",
                  [this, b, e](int lane) { uli_chunk(b, e, lane); });
  }
}

void Evaluator::uli_chunk(std::size_t b, std::size_t e, int /*lane*/) {
  const auto& kern = tables_.kernel();
  const int td = tables_.tdim();
  std::uint64_t local = 0;
  for (std::size_t i = b; i < e; ++i) {
    const LetNode& node = let_.nodes[i];
    if (!(node.owned && node.global_leaf) || node.target_count == 0) continue;
    const auto trg = leaf_target_positions(node);
    std::span<double> out(f_uli_.data() + std::size_t(node.point_begin) * td,
                          std::size_t(node.target_count) * td);
    for (auto si : let_.u.of(i))
      local += kern.direct(trg, leaf_source_positions(si),
                           leaf_source_densities(si), out);
  }
  uli_flops_.fetch_add(local, std::memory_order_relaxed);
}

void Evaluator::uli_join() {
  PKIFMM_CHECK(uli_started_);
  const double join0 = obs::wall_seconds();
  pool_->wait(uli_group_);
  uli_started_ = false;
  ctx_.flops.add("eval.uli", uli_flops_.load(std::memory_order_relaxed));
  // Deterministic merge: ULI contributions were summed per target in
  // the serial per-node order inside f_uli_ regardless of which lane
  // ran which chunk, so f_ is identical for any worker count.
  for (std::size_t k = 0; k < f_.size(); ++k) f_[k] += f_uli_[k];
  // Overlap accounting: busy = total ULI execution time on any lane
  // since submission; overlap = the part that ran before the join
  // started, i.e. concurrently with the far-field pipeline.
  const double inf = std::numeric_limits<double>::infinity();
  const double busy = pool_->busy_overlap("eval.uli", uli_w0_, inf);
  const double overlap = pool_->busy_overlap("eval.uli", uli_w0_, join0);
  ctx_.rec.counter_add("sched.uli.busy_seconds", busy);
  ctx_.rec.counter_add("sched.uli.overlap_seconds", overlap);
}

std::vector<double> Evaluator::target_gradient() {
  const auto grad = tables_.kernel().gradient();
  PKIFMM_CHECK_MSG(grad != nullptr,
                   "kernel '" << tables_.kernel().name()
                              << "' has no gradient companion");
  const int gd = grad->target_dim();
  std::vector<double> g(let_.points.size() * gd, 0.0);

  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!(node.owned && node.global_leaf) || node.target_count == 0) continue;
    const auto trg = leaf_target_positions(node);
    std::span<double> out(g.data() + std::size_t(node.point_begin) * gd,
                          std::size_t(node.target_count) * gd);

    // Direct (U-list) gradients.
    for (auto si : let_.u.of(i)) {
      ctx_.flops.add("grad.uli",
                     grad->direct(trg, leaf_source_positions(si),
                                  leaf_source_densities(si), out));
    }
    // W-list: gradients of the members' upward equivalent fields.
    for (auto si : let_.w.of(i)) {
      const auto ue = box_surf(tables_.options().upward_equiv_radius,
                               let_.nodes[si].key);
      ctx_.flops.add(
          "grad.wli",
          grad->direct(trg, ue,
                       std::span<const double>(
                           u_.data() + std::size_t(si) * tables_.eq_len(),
                           tables_.eq_len()),
                       out));
    }
    // Far field (V + X + coarser levels) through the box's downward
    // equivalent density.
    const auto de =
        box_surf(tables_.options().down_equiv_radius, node.key);
    ctx_.flops.add(
        "grad.d2t",
        grad->direct(trg, de,
                     std::span<const double>(d_.data() + i * tables_.eq_len(),
                                             tables_.eq_len()),
                     out));
  }
  return g;
}

std::vector<double> leaf_work_estimates(const Tables& tables,
                                        const octree::Let& let) {
  const std::uint64_t kflops = tables.kernel().flops_per_interaction();
  const int m = tables.m();
  const Tables::VliFlops& vf = tables.vli_flops();

  // Source counts per node (targets and sources may differ per point).
  std::vector<double> nsrc(let.nodes.size(), 0.0);
  for (std::size_t i = 0; i < let.nodes.size(); ++i)
    for (const octree::PointRec& pt : let.points_of(let.nodes[i]))
      if (pt.is_source()) nsrc[i] += 1.0;

  std::vector<double> weights;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    const octree::LetNode& node = let.nodes[i];
    if (!(node.owned && node.global_leaf)) continue;
    const double ntrg = node.target_count;
    double w = 0.0;
    for (auto si : let.u.of(i)) w += ntrg * nsrc[si] * kflops;
    // V (Tables::vli_flops): per-pair diagonal multiply over the half
    // spectrum, plus the target side's c2r and the source side's r2c
    // transforms. The forward charge is deliberately a function of the
    // leaf alone (not of how many targets consume its spectrum): the
    // weights must be identical no matter which rank currently owns
    // which leaf, so that the weighted partition is a pure function of
    // the global tree — the incremental setup path maintains that
    // partition step by step and relies on reproducing it exactly.
    const auto vlist = let.v.of(i);
    w += double(vlist.size()) * double(vf.mac_per_pair);
    if (!vlist.empty())
      w += double(vf.fwd_per_source) + double(vf.inv_per_target);
    w += double(let.w.of(i).size()) * ntrg * m * kflops;
    for (auto si : let.x.of(i)) w += nsrc[si] * m * kflops;
    // S2U + D2T per-leaf work.
    w += (nsrc[i] + ntrg) * m * kflops;
    weights.push_back(w);
  }
  return weights;
}

}  // namespace pkifmm::core
