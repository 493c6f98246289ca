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
/// Each translation phase exists in two executions selected by
/// FmmOptions::eval_mode (see DESIGN.md "Batched evaluation engine"):
///   kScalar  — one gemv / pointwise_mac per octant or pair (reference)
///   kBatched — level- and operator-blocked batches: U2U/L2L as one GEMM
///              per (level, child index), uc2ue/dc2de as one GEMM per
///              level, dense M2L as one GEMM per (level, offset), and
///              the FFT V-list with flat level-sorted source half
///              spectra and (target, source) pairs sorted by translation
///              offset so each operator spectrum is streamed over a
///              contiguous run.
/// Both modes account identical model flops into the same eval.* phases
/// and agree on the outputs to rounding.
///
/// The V-list translation is either FFT-diagonal (per-octant
/// real-to-complex FFTs batched by level, pointwise multiply per pair
/// over the Hermitian half spectrum, complex-to-real FFT per target —
/// the paper's scheme) or dense (ablation baseline).
///
/// Intra-rank parallelism (paper §V's per-node concurrency, on CPU
/// workers): every batched hot loop — per-leaf kernel evaluations,
/// batch-GEMM column windows, per-frequency-chunk V-list MACs, per-node
/// direct phases (ULI/XLI/WLI/D2T) — runs as util::TaskPool chunks over
/// pre-assigned disjoint output ranges, so results are identical for
/// any FmmOptions::threads_per_rank (see the pool's determinism
/// contract and tests/test_eval_threads.cpp). run() additionally
/// exploits Algorithm 1's phase independence: the U-list direct
/// interactions start as background tasks before S2U and execute on
/// the workers concurrently with the whole far-field pipeline —
/// including the reduce-scatter's communication wait — accumulating
/// into a private buffer that is merged into f right before the run
/// ends ("eval.uli" then measures only join + merge).

#include <atomic>
#include <cstdint>
#include <memory>
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
  /// Dispatches on FmmOptions::exec_mode: kBulkSync executes the
  /// phases in sequence with a barrier between each; kDag (with the
  /// batched engine) executes them as one dependency-counted
  /// util::TaskGraph via run_dag(). Both produce bitwise-identical
  /// potentials and exact flop equality for any thread count.
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

  // Individual phases, public for focused tests and for the GPU engine
  // which substitutes some of them. Each dispatches on eval_mode.
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
  /// surf_scratch_ (invalidated by the next call) — the allocation-free
  /// replacement for building a surface vector per kernel call.
  std::span<const double> box_surf(double radius_scale, const morton::Key& k);
  /// Same, into lane-private scratch — the variant every TaskPool chunk
  /// uses so concurrent chunks never share a surface buffer.
  std::span<const double> box_surf(double radius_scale, const morton::Key& k,
                                   int lane);

  /// V-list translation offset index of a (target, source) node pair.
  int pair_offset_index(const octree::LetNode& tnode,
                        const octree::LetNode& snode) const;

  bool batched() const {
    return tables_.options().eval_mode == EvalMode::kBatched;
  }

  // Per-octant reference implementations.
  void s2u_scalar();
  void u2u_scalar();
  void vli_dense_scalar();
  void vli_fft_scalar();
  void downward_scalar();

  // Level/operator-blocked implementations (identical flop accounting).
  void s2u_batched();
  void u2u_batched();
  void vli_dense_batched();
  void vli_fft_batched();
  void downward_batched();

  /// One level's batched FFT V-list: target and source node per slot,
  /// chunk-major half spectra and accumulators, and the offset-sorted
  /// MAC entries, grouped per operator component.
  struct VliLevel {
    /// One operator component applied to entries [e0, e1) of fidx/aidx.
    struct Group {
      const fft::Complex* g;
      std::size_t e0, e1;
    };
    std::vector<std::int32_t> tgt, src;
    std::vector<fft::Complex> spectra, acc;
    std::vector<Group> groups;
    std::vector<std::int32_t> fidx, aidx;
  };
  // The batched V-list's steps, shared by vli_fft_batched and run_dag.
  /// Collects the level's V-list targets and unique sources, in
  /// first-reference order (slot_of_ marks the sources seen).
  void vli_collect(int level, VliLevel& V);
  /// Numbers the source slots in V.src order, builds the offset-sorted
  /// MAC entries, sizes the buffers, resets slot_of_, and returns the
  /// level's V-list model flops.
  std::uint64_t vli_plan(int level, VliLevel& V);
  /// Sizes the per-lane transform scratch.
  void vli_lane_scratch();
  /// Source slots [b, e): embed -> r2c -> scatter chunk-major.
  void vli_forward(VliLevel& V, std::size_t b, std::size_t e, int lane);
  /// Frequency chunks [cb, ce) of the diagonal MAC.
  void vli_mac(VliLevel& V, std::size_t cb, std::size_t ce);
  /// Target slots [b, e): gather -> c2r -> extract into checkpot_.
  void vli_inverse(VliLevel& V, std::size_t b, std::size_t e, double scale,
                   int lane);

  /// Data-driven execution of the whole batched pipeline as one
  /// util::TaskGraph (FmmOptions::exec_mode = kDag): the bulk engine's
  /// chunks become DAG nodes, edges exist only where a chunk reads
  /// another chunk's output, and the Algorithm 3 reduce releases
  /// ghost-gated V-list work incrementally per level as complete
  /// densities arrive. See DESIGN.md "DAG executor".
  void run_dag();

  // ULI ‖ far-field overlap: uli_start() submits the per-node-range
  // U-list chunks as background pool tasks writing f_uli_; uli_join()
  // waits, folds the flops, merges f_ += f_uli_, and records the
  // overlap metrics. The public uli() is start-then-join (inline when
  // the pool has no workers).
  void uli_start();
  void uli_join();
  void uli_chunk(std::size_t b, std::size_t e, int lane);

  /// One gemm_acc over `ncols` batch columns, split into disjoint
  /// column windows over the pool (bitwise identical to the unsplit
  /// call; see la::gemm_acc_cols).
  void gemm_batched(const la::Matrix& m, std::size_t ncols, double scale,
                    const char* phase);

  /// Publishes scratch-buffer capacities as `mem.eval.*` byte gauges
  /// (run() calls this after the pipeline; see DESIGN.md §5b).
  void publish_mem_gauges();

  // Health-layer phase-boundary sentinels (FmmOptions::health,
  // DESIGN.md §5g): NaN/Inf scans, the moment invariant, and
  // order-independent state digests, recorded as `health.*` counters
  // (hard failures under health_fatal). No-ops when health is off. In
  // bulk-sync mode each runs at its phase boundary; run_dag has no
  // boundaries, so all three run post-drain (injected corruption is
  // still caught by the digests, just not mid-pipeline).
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
  std::vector<double> surf_scratch_;        ///< one materialized surface

  /// Node indices grouped by octree level (node order within a level),
  /// the grouping key of every batched phase.
  int min_level_ = 0, max_level_ = -1;
  std::vector<std::vector<std::int32_t>> level_nodes_;

  // Batch scratch, reused across phases/levels (kept allocated).
  std::vector<double> batch_in_, batch_out_, batch_tmp_;
  std::vector<std::int32_t> slots_a_, slots_b_;
  VliLevel vli_;                            ///< bulk FFT V-list level
  std::vector<std::int32_t> slot_of_;       ///< node -> level source slot

  // Intra-rank scheduling. pool_ is ctx.pool when the Runtime provided
  // one, else owned_pool_ sized from FmmOptions::threads_per_rank.
  // Chunk grains are constants so the chunk decomposition — and with it
  // the output — never depends on the worker count.
  static constexpr std::size_t kNodeGrain = 16;  ///< nodes per direct chunk
  static constexpr std::size_t kColGrain = 64;   ///< GEMM columns per chunk
  static constexpr std::size_t kFftSlotGrain = 4;   ///< fwd/inv FFTs per chunk
  static constexpr std::size_t kFreqChunkGrain = 2; ///< V-list chunks per task
  std::unique_ptr<util::TaskPool> owned_pool_;
  util::TaskPool* pool_ = nullptr;
  std::vector<double> lane_surf_;        ///< lanes x 3*surf count
  std::vector<double> lane_cube_;        ///< lanes x n^3 lattice cube
  std::vector<fft::Complex> lane_half_;  ///< lanes x spectrum_len

  // Background-ULI state (see uli_start/uli_join).
  std::vector<double> f_uli_;            ///< ULI-only potentials
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
