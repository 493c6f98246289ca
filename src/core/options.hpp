#pragma once
/// \file options.hpp
/// \brief User-facing configuration of the parallel KIFMM.

#include <cstdint>

#include "morton/key.hpp"

namespace pkifmm::core {

/// How the V-list (M2L) translation is applied.
enum class M2lMode {
  kFft,    ///< FFT-diagonal translation (the paper's scheme, §IV)
  kDense,  ///< precomputed dense matrices (baseline for the ablation)
};

/// How complete upward densities are assembled across ranks.
enum class ReduceMode {
  kHypercube,  ///< paper Algorithm 3 (requires power-of-two ranks)
  kOwner,      ///< per-octant owner reduction (the paper's *old* scheme)
};

struct FmmOptions {
  /// Surface lattice parameter n: equivalent/check surfaces carry
  /// n^3 - (n-2)^3 points. 4 = low accuracy, 6 = medium, 8 = high.
  int surface_n = 6;

  /// q — maximum points per leaf octant.
  int max_points_per_leaf = 100;

  /// Refinement cap (duplicate-point safety net).
  int max_level = morton::kMaxDepth;

  M2lMode m2l = M2lMode::kFft;
  ReduceMode reduce = ReduceMode::kHypercube;

  /// Intra-rank worker threads for the batched evaluation phases
  /// (paper §V's per-node parallelism, on CPU workers). 1 = serial
  /// (no pool threads, zero synchronization cost). Results are
  /// identical for any value — see util/task_pool.hpp's determinism
  /// contract and tests/test_eval_threads.cpp.
  int threads_per_rank = 1;

  /// Clamp threads_per_rank so threads_per_rank * nranks stays within
  /// hardware_concurrency() (simulated-rank threads and pool workers
  /// would otherwise thrash each other). Tests that need real
  /// interleaving on small CI boxes set this to false.
  bool clamp_threads = true;

  /// Work-weighted leaf repartitioning after the first LET build
  /// (paper §III-B); update_points() keeps the partition canonical.
  /// Disable for the ablation bench.
  bool load_balance = true;

  /// Surface radii relative to the box half-width (Ying et al. 2004).
  double upward_equiv_radius = 1.05;
  double upward_check_radius = 2.95;
  double down_equiv_radius = 2.95;
  double down_check_radius = 1.05;

  /// Relative singular-value cutoff for the equivalent-density solves.
  double pinv_cutoff = 1e-12;

  /// Per-message flow tracing (obs/flow.hpp): every point-to-point
  /// message gets (src, dst, tag, phase, seq) + timestamps, blocked
  /// receives become first-class `wait.<phase>.*` metrics, and the
  /// summary gains the cross-rank wait/critical-path analysis. Off by
  /// default: the hot path then has zero flow overhead and no `wait.*`
  /// counters exist at all.
  bool flow_trace = false;

  /// Flow ring capacity per rank (events beyond it are dropped and
  /// counted in `flow.dropped`); at least 1. Preallocated by the first
  /// ParallelFmm of the rank run when flow_trace is on.
  int flow_capacity = 1 << 15;

  /// Runtime numerical-health layer (obs/health.hpp, DESIGN.md §5g):
  /// online accuracy sampling against Kernel::direct, NaN/Inf and
  /// moment sentinels at phase boundaries, order-independent state
  /// digests of equivalent densities / ghost buffers / potentials, and
  /// comm payload-transit digests — all folded into `health.*`
  /// counters and a `health` section of summary.json. Off by default:
  /// evaluate() then runs exactly as before (zero health overhead).
  bool health = false;

  /// Fraction of targets re-evaluated by direct summation per
  /// evaluate() when `health` is on (deterministic gid-hash sample,
  /// identical for any rank/thread count). 0 disables sampling while
  /// keeping sentinels and digests. The default keeps sampling cost
  /// well under the 2% wall-overhead budget on N=100K-class runs.
  double health_sample_rate = 1e-4;

  /// Escalates health sentinel hits (non-finite values, ghost/moment
  /// invariant violations) from counters to hard failures
  /// (util::CheckFailure). Requires `health`.
  bool health_fatal = false;
};

}  // namespace pkifmm::core
