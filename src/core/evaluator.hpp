#pragma once
/// \file evaluator.hpp
/// \brief The per-rank FMM evaluation engine (paper Algorithm 1 over
/// the local essential tree).
///
/// Pipeline (dependencies as in §II-A of the paper):
///   S2U -> U2U -> [reduce/scatter comm] -> {VLI, XLI} -> D2D+convert
///   -> {WLI, D2T};  ULI (direct interactions) is independent.
///
/// State vectors, all node-major and point-major within a node:
///   u        — upward equivalent densities   (nodes x m*sdim)
///   checkpot — downward check potentials     (nodes x m*tdim)
///   d        — downward equivalent densities (nodes x m*sdim)
///   f        — target potentials, aligned with Let::points
///              (points x tdim; valid for owned leaves)
///
/// One engine (see DESIGN.md "Batched evaluation engine") runs every
/// translation as a level- and operator-blocked batch applied in place
/// to the boxes' rows (la::gemm_rows, no gather or scatter): U2U/L2L as
/// one batch per (level, child index), uc2ue/dc2de as one per level,
/// dense M2L as one per (level, offset). Its oracles, the EvalOracle
/// tests, are per-box la::gemm of each operator and analytic flop
/// counts from the LET's lists.
///
/// The V-list translation is either FFT-diagonal (the paper's scheme)
/// or dense (ablation baseline). The FFT V-list runs per level:
/// real-to-complex FFTs of the source densities, a sibling-blocked
/// diagonal MAC over the Hermitian half spectrum that loops over
/// (target parent, parent colleague) pairs and keeps a parent's
/// children's accumulators in registers per 8-frequency block
/// (simd::Ops::vli_mac_block), and a complex-to-real FFT per target.
///
/// Intra-rank parallelism (paper §V's per-node concurrency, on CPU
/// workers): every batched hot loop — per-leaf kernel evaluations,
/// translation node windows, per-frequency-block V-list MACs, per-node
/// direct phases (ULI/XLI/WLI/D2T) — runs as util::TaskPool chunks over
/// pre-assigned disjoint output ranges, so results are identical for
/// any FmmOptions::threads_per_rank (see the pool's determinism
/// contract and tests/test_eval_threads.cpp). run() additionally
/// exploits Algorithm 1's phase independence: the U-list direct
/// interactions start as background tasks before S2U and execute on
/// the workers concurrently with the whole far-field pipeline —
/// including the reduce-scatter's communication wait — accumulating
/// into a private buffer that is merged into f right before the run
/// ends ("eval.uli" then measures only the plan, join and merge). A
/// pair of owned leaves runs one Kernel::direct_mutual tile for both
/// directions (uli_plan).

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "comm/comm.hpp"
#include "core/reduce.hpp"
#include "core/surface.hpp"
#include "core/tables.hpp"
#include "octree/let.hpp"
#include "util/task_pool.hpp"

namespace pkifmm::core {

class Evaluator {
 public:
  Evaluator(const Tables& tables, const octree::Let& let, comm::RankCtx& ctx);
  /// Joins any still-pending background ULI tasks (exception unwind
  /// path) so no task outlives the buffers it writes.
  ~Evaluator();

  /// Runs the full pipeline with per-phase timing/flop accounting.
  void run();

  /// Target potentials aligned with Let::points (tdim per point).
  std::span<const double> potential() const { return f_; }

  /// Gradient of the potential at the owned targets (3 values per
  /// point, aligned with Let::points), evaluated AFTER run() by
  /// re-applying the direct-type operators with the kernel's gradient
  /// companion: grad f = sum_U grad-K s + sum_W grad-K u + grad-K(de) d.
  /// The V/X far-field contributions are already folded into d. Only
  /// kernels with a gradient() companion support this (Laplace,
  /// Yukawa). This is an extension beyond the paper, which evaluates
  /// potentials only.
  std::vector<double> target_gradient();

  // Individual phases, public for focused tests, for the wall-clock
  // benchmark's traced evaluate, and for the GPU engine which
  // substitutes some of them.
  void s2u();
  void u2u();
  void comm_reduce();
  void vli();
  /// X-list accumulation. include_leaves=false restricts to non-leaf
  /// targets (used by the GPU engine, which handles leaf targets on the
  /// device).
  void xli(bool include_leaves = true);
  void downward();
  void wli();
  void d2t();
  void uli();

  std::span<const double> u() const { return u_; }
  std::span<double> u_mutable() { return u_; }
  std::span<const double> checkpot() const { return checkpot_; }
  std::span<double> checkpot_mutable() { return checkpot_; }
  std::span<const double> d() const { return d_; }
  std::span<double> potential_mutable() { return f_; }

 private:
  /// Source points/densities of a node (points with the kSource role).
  std::span<const double> leaf_source_positions(std::size_t node) const;
  std::span<const double> leaf_source_densities(std::size_t node) const;
  /// Target points of a node (the leading target_count points).
  std::span<const double> leaf_target_positions(const octree::LetNode& n) const;
  std::span<double> leaf_target_potential(const octree::LetNode& n);

  /// Materializes the surface of radius_scale around node's box into
  /// lane-private scratch (invalidated by the lane's next call), so
  /// concurrent TaskPool chunks never share a surface buffer.
  std::span<const double> box_surf(double radius_scale, const morton::Key& k,
                                   int lane);

  /// The FFT V-list, vli()'s default branch.
  void vli_fft();

  /// One level's FFT V-list: target and source node per slot, the
  /// sibling-blocked MAC's plan (target parents and their colleague
  /// entries), and the source spectra and target accumulators in
  /// block-major split re/im blocks (simd::Ops::vli_mac_block's layout;
  /// all slots of frequency block b are contiguous).
  struct VliLevel {
    std::vector<std::int32_t> tgt, src;
    std::vector<simd::VliParent> parents;
    std::vector<simd::VliColleague> colleagues;
    AlignedBuffer spectra, acc;
  };
  // The FFT V-list's steps.
  /// Collects the level's V-list targets, their parents in first-target
  /// order, and each parent's colleagues with their V-list child pairs;
  /// numbers the source children as slots in plan order, sizes the
  /// buffers, and returns the level's V-list model flops.
  std::uint64_t vli_plan(int level, VliLevel& V);
  /// Source slots [b, e): embed -> r2c of every slot into lane scratch,
  /// then each frequency block's run of the chunk's slots at once.
  void vli_forward(VliLevel& V, std::size_t b, std::size_t e, int lane);
  /// Frequency blocks [b, e) of the sibling-blocked MAC.
  void vli_mac(VliLevel& V, const std::vector<AlignedBuffer>& g,
               std::size_t b, std::size_t e);
  /// Target slots [b, e): each frequency block's run of the chunk's
  /// accumulators into lane scratch, then c2r -> extract into checkpot_.
  void vli_inverse(VliLevel& V, std::size_t b, std::size_t e, double scale,
                   int lane);
  /// Doubles of lane_spec_ per lane: kFftSlotGrain slots of
  /// max(sd, td) split spectra (spectrum_len() reals, then imaginaries).
  std::size_t vli_lane_spec_len() const;

  // ULI ‖ far-field overlap: uli_start() plans the mutual tiles and
  // submits the per-node-range U-list chunks as background pool tasks
  // writing f_uli_ and uli_far_; uli_join() waits, folds the flops,
  // folds uli_far_ into f_uli_ in chunk order, merges f_ += f_uli_, and
  // records the overlap metrics. The public uli() is start-then-join
  // (inline when the pool has no workers).
  void uli_start();
  void uli_join();
  void uli_chunk(std::size_t b, std::size_t e, int lane);
  /// Fills uli_act_, uli_fold_ and sizes uli_far_. A pair of distinct
  /// owned leaves whose points are all both targets and sources is
  /// evaluated once, by one Kernel::direct_mutual tile run from the
  /// lower node index; the higher index skips its mirror entry. Partner
  /// B's side lands in f_uli_ directly when B is in the same kNodeGrain
  /// chunk, else in the chunk's own rows of uli_far_.
  void uli_plan();

  /// One batched translation in place: dst row out[j] (at.cols()
  /// values) += scale A (src row in[j], at.rows() values) for every j,
  /// with the operator A given as its transpose `at` (la::gemm_rows).
  /// The batch runs as kColGrain-node windows over the pool; each
  /// output element is one chain in ascending k, so the windows give
  /// the unsplit call's bits. Row contract (PKIFMM_DCHECK): the out
  /// rows are distinct, and when src and dst are one array no in row is
  /// an out row, so no window reads or writes a row another one writes.
  /// Adds the model flops to `phase`.
  void gemm_batched(const la::Matrix& at, double scale,
                    std::span<const double> src,
                    std::span<const std::int32_t> in, std::span<double> dst,
                    std::span<const std::int32_t> out, const char* phase);

  /// The children of one (level, child index) batch of U2U and L2L and
  /// their parents, aligned.
  struct ChildBatch {
    std::span<const std::int32_t> child, parent;
  };
  ChildBatch child_batch(int level, int ci) const;

  /// Publishes scratch-buffer capacities as `mem.eval.*` byte gauges
  /// (run() calls this after the pipeline; see DESIGN.md §5b).
  void publish_mem_gauges();

  // Health-layer phase-boundary sentinels (FmmOptions::health,
  // DESIGN.md §5g): NaN/Inf scans, the moment invariant, and
  // order-independent state digests, recorded as `health.*` counters
  // (hard failures under health_fatal). No-ops when health is off.
  // run() calls each at its phase boundary.
  void health_post_s2u();    ///< owned-leaf upward densities
  void health_post_reduce(); ///< reduced upward densities (all owned)
  void health_post_run();    ///< final potentials (owned leaf targets)

  const Tables& tables_;
  const octree::Let& let_;
  comm::RankCtx& ctx_;

  std::vector<double> u_, checkpot_, d_, f_;
  std::vector<double> pos_;                 ///< flattened Let::points coords
  std::vector<double> src_pos_, src_den_;   ///< per-node filtered sources
  std::vector<std::size_t> src_offset_;     ///< nodes+1, into src_pos_/3

  SurfaceCache surf_;                       ///< unit surface template

  /// Node indices grouped by octree level (node order within a level),
  /// the grouping key of every batched phase.
  int min_level_ = 0, max_level_ = -1;
  std::vector<std::vector<std::int32_t>> level_nodes_;
  /// U2U's and L2L's (child, parent) pairs: target nodes whose parent is
  /// a target, bucketed by level and child index in one pass, node
  /// order within a bucket. Bucket (level, ci) is [child_off_[8 level +
  /// ci], child_off_[8 level + ci + 1]) of child_ and parent_.
  std::vector<std::int32_t> child_, parent_;
  std::vector<std::size_t> child_off_;

  // Batch scratch, reused across phases/levels (kept allocated).
  std::vector<double> batch_tmp_;
  std::vector<std::int32_t> slots_a_, slots_b_;
  VliLevel vli_;                            ///< FFT V-list level
  std::vector<std::int32_t> slot_of_;       ///< node -> level source slot
  std::vector<std::int32_t> tgt_slot_of_;   ///< node -> level target slot

  // Intra-rank scheduling. pool_ is ctx.pool when the Runtime provided
  // one, else owned_pool_ sized from FmmOptions::threads_per_rank.
  // Chunk grains are constants so the chunk decomposition — and with it
  // the output — never depends on the worker count.
  static constexpr std::size_t kNodeGrain = 16;  ///< nodes per direct chunk
  static constexpr std::size_t kColGrain = 64;   ///< translation nodes per chunk
  static constexpr std::size_t kFftSlotGrain = 16;  ///< fwd/inv slots per chunk
  static constexpr std::size_t kFreqBlockGrain = 4; ///< V-list blocks per task
  std::unique_ptr<util::TaskPool> owned_pool_;
  util::TaskPool* pool_ = nullptr;
  std::vector<double> lane_surf_;        ///< lanes x 3*surf count
  std::vector<double> lane_cube_;        ///< lanes x n^3 lattice cube
  std::vector<double> lane_spec_;        ///< lanes x vli_lane_spec_len()

  // Background-ULI state (see uli_start/uli_join).
  std::vector<double> f_uli_;            ///< ULI-only potentials
  /// Per let_.u entry: kUliOneWay, kUliSkip, kUliNear, or the first
  /// uli_far_ row of the partner's side of a mutual tile.
  std::vector<std::int32_t> uli_act_;
  static constexpr std::int32_t kUliOneWay = -1;  ///< direct(A <- B)
  static constexpr std::int32_t kUliSkip = -2;    ///< B's tile covers it
  static constexpr std::int32_t kUliNear = -3;    ///< B's side into f_uli_
  /// Out-of-chunk partner sides, tdim per target row, each chunk's rows
  /// contiguous and in first-touch order.
  std::vector<double> uli_far_;
  /// (partner node, first uli_far_ row) in chunk and first-touch order:
  /// the order uli_join folds uli_far_ into f_uli_.
  std::vector<std::pair<std::int32_t, std::int32_t>> uli_fold_;
  util::TaskPool::Group uli_group_;
  std::atomic<std::uint64_t> uli_flops_{0};
  bool uli_started_ = false;
  double uli_w0_ = 0.0;                  ///< overlap window start
};

/// Per-owned-leaf work estimates in model flops (paper §III-B: weights
/// from the U/V/W/X lists), aligned with the Morton order of owned
/// leaves. Used to drive load_balance().
std::vector<double> leaf_work_estimates(const Tables& tables,
                                        const octree::Let& let);

}  // namespace pkifmm::core
