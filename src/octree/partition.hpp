#pragma once
/// \file partition.hpp
/// \brief Work-weighted leaf repartitioning (paper §III-B).
///
/// After the interaction lists are built, each leaf gets a weight equal
/// to its estimated interaction work; leaves are then repartitioned so
/// every rank holds a contiguous Morton range of approximately equal
/// total weight (Algorithm 1 of Sundar et al.). Leaves migrate together
/// with their points. core::ParallelFmm then brings the LET and the
/// lists up to date with the same delta exchange and list repair it
/// runs after a time step (LetSync::update, repair_interaction_lists),
/// which yields the LET the paper's rebuild gives.

#include <span>
#include <vector>

#include "comm/comm.hpp"
#include "octree/build.hpp"

namespace pkifmm::octree {

/// What weighted_destinations decided.
struct Destinations {
  /// One per local leaf; nondecreasing across the global leaf order.
  std::vector<int> dest;
  /// Some leaf on some rank changes rank. Every rank derives every
  /// leaf's destination, so the flag is the same on every rank without
  /// a reduction.
  bool moved = false;
};

/// Work-weighted destinations: the global Morton-ordered weight vector
/// is allgathered and prefix-summed left-to-right identically on every
/// rank, so a leaf's destination is a pure function of the global
/// weight vector — independent of which rank currently holds which
/// leaf. (Repartitioning after each time step relies on this: it keeps
/// the partition bit for bit what a from-scratch set-up would choose.)
/// All-zero weights fall back to equal leaf counts.
Destinations weighted_destinations(comm::Comm& c,
                                   std::span<const double> leaf_weights);

/// Migrates leaves (and their points) to `dest` (aligned with
/// tree.leaves, nondecreasing across ranks in global leaf order), then
/// rebuilds the CSR and recomputes the splitters. The global Morton
/// order of leaves is preserved.
OwnedTree migrate_leaves(comm::Comm& c, OwnedTree tree,
                         std::span<const int> dest);

/// Repartitions leaves (and their points) by weight — a composition of
/// weighted_destinations and migrate_leaves. `leaf_weights` is aligned
/// with tree.leaves.
OwnedTree load_balance(comm::Comm& c, OwnedTree tree,
                       const std::vector<double>& leaf_weights);

}  // namespace pkifmm::octree
