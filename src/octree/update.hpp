#pragma once
/// \file update.hpp
/// \brief Incremental repair of the distributed octree for
/// time-stepping workloads (ROADMAP item 3).
///
/// A full build_distributed_tree re-runs the sample sort, the straddler
/// census and the top-down refinement from scratch — O(N) work and
/// several collective exchanges regardless of how little the points
/// moved. repair_tree instead takes the previous step's OwnedTree and a
/// set of point moves and produces the *identical* canonical tree (the
/// global leaf set is a pure function of the global point multiset —
/// split an octant iff its global count exceeds q) while touching only
/// the octants whose counts actually changed:
///
///  1. the moves are checked (each gid owned and listed once, each
///     coordinate finite and in [0, 1)), written in place and the moved
///     points re-keyed; points whose Morton id left this rank's
///     ownership interval migrate to the interval owner (one alltoallv);
///  2. refine_tree (build.hpp) runs against the previous tree: the
///     census of the splitter-straddling ancestors refreshes the global
///     counts that local information cannot provide, and the top-down
///     visit recomputes the decomposition only where a "dirty" Morton
///     cell (the old or new cell of a moved point) or a straddler lies
///     underneath; clean subtrees copy the previous leaves through.
///
/// A from-scratch build is the same refinement against an empty prior,
/// so the repaired tree is bitwise identical — leaves, point order and
/// splitters — to what build_distributed_tree would return on the
/// union of every rank's updated points (tests/test_incremental.cpp
/// pins this across churn rates, distributions and rank counts).

#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "morton/key.hpp"
#include "octree/build.hpp"
#include "octree/points.hpp"

namespace pkifmm::octree {

/// One point relocation: the point identified by gid (which must be
/// owned by the calling rank) moves to pos. Densities are unaffected
/// (use ParallelFmm::set_densities).
struct PointMove {
  std::uint64_t gid;
  double pos[3];
};

/// What one repair_tree call did (feeds the `setup.incr.*` metrics).
struct RepairStats {
  std::size_t migrated_points = 0;  ///< points sent to another rank
  std::size_t dirty_leaves = 0;     ///< leaves rebuilt (content changed)
  std::size_t kept_leaves = 0;      ///< leaves copied through untouched
};

struct RepairResult {
  /// Keys of leaves in the repaired tree whose point bucket differs
  /// from the previous tree (new leaves, re-bucketed leaves). Leaves of
  /// the previous tree that no longer exist are *not* listed — the
  /// caller diffs its own retained key set for removals.
  std::vector<morton::Key> dirty_leaves;
  RepairStats stats;
  /// Moves summed over all ranks; 0 means the tree was left as it was
  /// on every rank.
  std::uint64_t global_moves = 0;
};

/// Applies `moves` to `tree` (in place) and repairs the leaf set, the
/// point array, the CSR and the splitters to the canonical tree of the
/// updated global point multiset. A gid listed twice or not owned here,
/// or a coordinate outside [0, 1) (NaN included), is a CheckFailure
/// raised before any point is written. Collective: every rank must
/// call it (with possibly empty moves). Ownership intervals are
/// preserved up to boundary merges: a leaf that after repair straddles
/// the previous splitter goes to the lowest contributing rank, exactly
/// like the full build, and the splitters are recomputed from the
/// repaired leaves.
RepairResult repair_tree(comm::Comm& c, OwnedTree& tree,
                         std::span<const PointMove> moves,
                         const BuildParams& params);

}  // namespace pkifmm::octree
