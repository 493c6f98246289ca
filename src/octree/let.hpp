#pragma once
/// \file let.hpp
/// \brief Local Essential Tree construction (paper Algorithm 2) and
/// U/V/W/X interaction-list construction (paper Table I).
///
/// The LET of rank k is the union of the interaction lists of all owned
/// leaves and their ancestors. It is built by exchanging "ghost"
/// octants: rank k sends octant beta to every rank whose ownership
/// region overlaps the neighborhood of beta's parent (the
/// contributor/user rule of §III-A); ghost leaves travel with their
/// points so U- and X-list (direct-type) interactions can be evaluated
/// locally. After the exchange the node set is closed under parents,
/// which makes the list-construction descents complete.

#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "comm/comm.hpp"
#include "morton/key.hpp"
#include "octree/build.hpp"
#include "octree/points.hpp"

namespace pkifmm::octree {

/// One octant of the local essential tree.
struct LetNode {
  morton::Key key;
  std::int32_t parent = -1;          ///< index into Let::nodes, -1 for root
  std::array<std::int32_t, 8> child; ///< -1 where absent from the LET
  bool global_leaf = false;          ///< leaf of the *global* FMM tree
  bool owned = false;                ///< this rank owns (evaluates) this leaf
  bool target = false;               ///< owned leaf or ancestor of one
  std::uint32_t point_begin = 0;     ///< into Let::points (leaves only)
  std::uint32_t point_count = 0;
  /// Leading points_of(n) entries that are evaluation targets (the
  /// point layout puts targets first). Equals point_count when sources
  /// and targets coincide (the paper's assumption).
  std::uint32_t target_count = 0;

  LetNode() { child.fill(-1); }
};

/// CSR adjacency: per-node spans of LET node indices.
struct ListSet {
  std::vector<std::int32_t> offset;  ///< size nodes+1
  std::vector<std::int32_t> items;

  std::span<const std::int32_t> of(std::size_t node) const {
    return {items.data() + offset[node],
            static_cast<std::size_t>(offset[node + 1] - offset[node])};
  }
  std::size_t total() const { return items.size(); }
};

/// The local essential tree plus interaction lists.
struct Let {
  std::vector<LetNode> nodes;   ///< Morton/preorder sorted
  std::vector<PointRec> points; ///< owned + ghost, grouped per leaf
  std::vector<morton::Bits> splitters;

  /// U (direct), V (far-field same level), W, X lists. U and W are only
  /// populated for owned leaves; V and X for all target octants.
  ListSet u, v, w, x;

  /// For the evaluation-time density refresh: (owned leaf node, ghost
  /// consumer rank) subscriptions established during the LET exchange.
  std::vector<std::pair<std::int32_t, std::int32_t>> ghost_subscriptions;

  /// Node index by key, -1 if absent.
  std::int32_t find(const morton::Key& k) const {
    auto it = index_.find(k);
    return it == index_.end() ? -1 : it->second;
  }

  std::span<const PointRec> points_of(const LetNode& n) const {
    return {points.data() + n.point_begin, n.point_count};
  }
  std::span<PointRec> points_of(const LetNode& n) {
    return {points.data() + n.point_begin, n.point_count};
  }

  /// Tree depth statistics (min/max level over global leaves).
  int max_leaf_level() const;
  int min_leaf_level() const;

  /// Memory telemetry (the `mem.let.*` gauges): bytes of the ghost
  /// side of the LET — non-owned global leaves plus their replicated
  /// points, i.e. what Algorithm 2's exchange materialized locally —
  /// and of the whole structure (nodes, points, splitters,
  /// interaction lists, subscriptions, key index).
  std::size_t ghost_bytes() const;
  std::size_t total_bytes() const;

  std::unordered_map<morton::Key, std::int32_t, morton::KeyHash> index_;
};

/// What one LetSync exchange moved (feeds the `setup.incr.*` metrics).
struct LetSyncStats {
  std::size_t octants_sent = 0;     ///< SET messages (add or replace)
  std::size_t removes_sent = 0;     ///< REMOVE messages
  std::size_t ranks_touched = 0;    ///< destinations with a nonempty delta
};

/// Persistent ghost-octant synchronisation (paper Algorithm 2, made
/// incremental). The full build and the incremental update run the
/// same protocol: each rank diffs what it must contribute (its leaves
/// and ancestors, addressed to every user rank) against what it last
/// sent, ships only SET/REMOVE deltas, and reassembles the LET from
/// the retained staging. A full build is simply the delta against
/// empty state — so the two paths share every line of exchange and
/// assembly code, and an update on a tree is bitwise identical to a
/// from-scratch build on the same tree.
class LetSync {
 public:
  /// Full Algorithm-2 exchange; (re)initializes the retained state.
  Let build(comm::Comm& c, const OwnedTree& tree);

  /// Incremental exchange. `dirty_leaves` are the owned leaves whose
  /// point buckets changed since the previous build/update (from
  /// repair_tree); added/removed/migrated octants are discovered by
  /// diffing against the retained state. Collective.
  Let update(comm::Comm& c, const OwnedTree& tree,
             std::span<const morton::Key> dirty_leaves,
             LetSyncStats* stats = nullptr);

 private:
  /// My contribution as of the last exchange: owned leaves and their
  /// ancestors, with the destination ranks each was sent to.
  struct OwnEntry {
    bool leaf = false;
    std::vector<std::int32_t> dests;  ///< sorted, excludes self
  };
  /// Ghost octants other ranks contributed, with the contributor set
  /// (the entry lives while any contributor still stages it) and the
  /// leaf payload in the sender's canonical point order.
  struct GhostEntry {
    std::vector<std::int32_t> contributors;  ///< sorted
    std::int32_t leaf_from = -1;
    std::vector<PointRec> pts;
  };

  Let assemble(const OwnedTree& tree) const;

  std::map<morton::Key, OwnEntry> own_;
  std::map<morton::Key, GhostEntry> ghost_;
};

/// Paper Algorithm 2: exchanges ghost octants and assembles the LET
/// (one-shot LetSync::build). Does NOT build the interaction lists;
/// call build_interaction_lists.
Let build_let(comm::Comm& c, const OwnedTree& tree);

/// Builds U/V/W/X lists for every target node of the LET, per the
/// definitions in Table I of the paper.
void build_interaction_lists(Let& let);

struct ListRepairStats {
  std::size_t rebuilt_targets = 0;
  std::size_t kept_targets = 0;
};

/// Rebuilds `let`'s interaction lists reusing `prior`'s where possible:
/// a target's lists are recomputed only if the structural diff between
/// the two node arrays (added/removed octants, flag flips) touches the
/// neighborhood of its parent — every U/V/W/X member lives inside (or
/// overlaps) that region — otherwise the prior lists are index-remapped.
/// The result is identical to build_interaction_lists(let).
void repair_interaction_lists(const Let& prior, Let& let,
                              ListRepairStats* stats = nullptr);

/// Re-sends the densities of owned leaves whose ghosts live on other
/// ranks (the paper's first evaluation communication step). Call before
/// each evaluation if densities changed since the LET was built.
void refresh_ghost_densities(comm::Comm& c, Let& let);

}  // namespace pkifmm::octree
