#pragma once
/// \file build.hpp
/// \brief Distributed linear-octree construction (paper §III-A, the
/// DENDRO-style "Points2Octree" stand-in).
///
/// Input: each rank holds an arbitrary chunk of the global point set.
/// Output: a distributed, globally Morton-sorted, non-overlapping set of
/// leaf octants, each with <= q points (unless forced by max_level),
/// leaves and their points co-located per rank, plus the key-space
/// ownership splitters that define the geometric partition Omega_k.
///
/// Points are sample-sorted by Morton id and each rank refines its
/// contiguous key interval top-down (refine_tree). Octants that
/// straddle rank boundaries are resolved exactly by exchanging per-rank
/// point counts for the (few) ancestors of the boundary cells;
/// straddling leaves are assigned to the lowest contributing rank and
/// the other ranks migrate their points there. The incremental repair
/// (update.hpp) runs the same refinement against the previous step's
/// tree, so a from-scratch build is a repair against an empty prior.

#include <cstdint>
#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "morton/key.hpp"
#include "octree/points.hpp"

namespace pkifmm::octree {

struct BuildParams {
  int max_points_per_leaf = 100;     ///< q in the paper
  int max_level = morton::kMaxDepth; ///< refinement cap (duplicate safety)
};

/// A rank's share of the global leaf array with its points.
struct OwnedTree {
  /// Owned leaves, Morton-sorted, globally non-overlapping.
  std::vector<morton::Key> leaves;
  /// Owned points, sorted, grouped by leaf via the CSR below.
  std::vector<PointRec> points;
  /// leaf_point_offset[i]..leaf_point_offset[i+1] indexes points of leaf i.
  std::vector<std::size_t> leaf_point_offset;
  /// Key-space ownership splitters: rank k controls
  /// [splitters[k], splitters[k+1]) (last interval open-ended). Identical
  /// on every rank. splitters[0] == 0.
  std::vector<morton::Bits> splitters;
};

/// Builds the distributed tree. `points` is consumed.
OwnedTree build_distributed_tree(comm::Comm& c, std::vector<PointRec> points,
                                 const BuildParams& params);

/// Recomputes ownership splitters from each rank's first leaf (used
/// after leaves migrate during load balancing). Collective.
std::vector<morton::Bits> recompute_splitters(
    comm::Comm& c, const std::vector<morton::Key>& leaves);

/// Rebuilds the leaf->points CSR for Morton-sorted leaves and points.
/// Checks that every point falls in exactly one leaf.
std::vector<std::size_t> build_leaf_csr(const std::vector<morton::Key>& leaves,
                                        const std::vector<PointRec>& points);

/// The ranks whose ownership interval intersects [range_begin(k),
/// range_end(k)), as a closed rank interval [first, last]. Requires the
/// splitters array from OwnedTree.
std::pair<int, int> overlapping_ranks(const morton::Key& k,
                                      const std::vector<morton::Bits>& splitters);

/// What refine_tree may reuse from a previous tree of the same global
/// point multiset (up to the `dirty` cells). Empty = from scratch.
struct PriorTree {
  std::span<const morton::Key> leaves;             ///< sorted
  std::span<const std::size_t> leaf_point_offset;  ///< CSR over `leaves`
  /// Sorted Morton ids of the kMaxDepth cells whose points changed.
  std::span<const morton::Bits> dirty;
};

struct RefineResult {
  /// Aligned with the new tree.leaves: copied verbatim from the prior.
  std::vector<char> reused;
  /// Points of straddling leaves sent to the leaf owner.
  std::size_t straddlers_sent = 0;
  /// Morton ids of the straddler points received (another rank's
  /// points, so possibly changes this rank never saw).
  std::vector<morton::Bits> straddler_cells;
};

/// The one top-down refinement: refines `pts` (this rank's
/// Morton-sorted points, all inside its tree.splitters interval) into
/// the canonical leaves — split an octant iff its global count exceeds
/// q and its level is below max_level; octants straddling a splitter
/// are decided by a global census and emitted by their lowest
/// contributing rank. Under a clean octant that does not straddle, the
/// prior leaves are copied through. Refills tree.points in place (`pts`
/// must not alias it) and sets tree.leaves, the CSR and the
/// leaf-aligned splitters. Collective.
RefineResult refine_tree(comm::Comm& c, const std::vector<PointRec>& pts,
                         OwnedTree& tree, const BuildParams& params,
                         const PriorTree& prior);

}  // namespace pkifmm::octree
