#include "octree/let.hpp"

#include <algorithm>
#include <map>

namespace pkifmm::octree {

using morton::Bits;
using morton::Key;

namespace {

/// Ghost-octant delta message; SET-leaf point payloads travel in a
/// parallel stream in the same per-destination order.
struct UpdMsg {
  Bits bits;
  std::uint8_t level;
  std::uint8_t op;
  std::uint32_t npoints;
};
static_assert(std::is_trivially_copyable_v<UpdMsg>);

inline constexpr std::uint8_t kSetNode = 0;  ///< add/keep an internal octant
inline constexpr std::uint8_t kSetLeaf = 1;  ///< add/replace a leaf + points
inline constexpr std::uint8_t kRemove = 2;   ///< withdraw a contribution

/// Density-refresh message header (see refresh_ghost_densities).
struct DenMsg {
  Bits bits;
  std::uint8_t level;
  std::uint32_t npoints;
};
static_assert(std::is_trivially_copyable_v<DenMsg>);

/// Destination ranks for octant beta: every rank whose ownership region
/// overlaps the neighborhood of beta's parent (colleagues of P(beta)
/// plus P(beta) itself — the "user" rule of §III-A). Root octants go to
/// everyone.
void user_ranks(const Key& beta, const std::vector<Bits>& splitters,
                std::vector<char>& mark) {
  std::fill(mark.begin(), mark.end(), 0);
  const int p = static_cast<int>(mark.size());
  if (beta.level == 0) {
    std::fill(mark.begin(), mark.end(), 1);
    return;
  }
  for (const Key& kappa : morton::neighborhood(morton::parent(beta))) {
    const auto [lo, hi] = overlapping_ranks(kappa, splitters);
    for (int r = std::max(lo, 0); r <= std::min(hi, p - 1); ++r) mark[r] = 1;
  }
}

bool same_key(const Key& a, const Key& b) {
  return a.bits == b.bits && a.level == b.level;
}

}  // namespace

int Let::max_leaf_level() const {
  int m = 0;
  for (const LetNode& n : nodes)
    if (n.global_leaf) m = std::max(m, static_cast<int>(n.key.level));
  return m;
}

int Let::min_leaf_level() const {
  int m = morton::kMaxDepth;
  for (const LetNode& n : nodes)
    if (n.global_leaf) m = std::min(m, static_cast<int>(n.key.level));
  return m;
}

std::size_t Let::ghost_bytes() const {
  std::size_t b = 0;
  for (const LetNode& n : nodes)
    if (n.global_leaf && !n.owned)
      b += sizeof(LetNode) +
           static_cast<std::size_t>(n.point_count) * sizeof(PointRec);
  return b;
}

std::size_t Let::total_bytes() const {
  auto cap = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::
                                     value_type);
  };
  std::size_t b = cap(nodes) + cap(points) + cap(splitters) +
                  cap(ghost_subscriptions);
  for (const ListSet* ls : {&u, &v, &w, &x})
    b += cap(ls->offset) + cap(ls->items);
  // Hash index: entries plus a per-bucket pointer (implementation
  // detail, but the right order of magnitude on every libstdc++).
  b += index_.size() * (sizeof(morton::Key) + sizeof(std::int32_t) +
                        2 * sizeof(void*)) +
       index_.bucket_count() * sizeof(void*);
  return b;
}

Let LetSync::build(comm::Comm& c, const OwnedTree& tree) {
  // A full build is the delta against empty state: every contribution
  // is new, so the update path sends complete SETs everywhere.
  own_.clear();
  ghost_.clear();
  return update(c, tree, {}, nullptr);
}

Let LetSync::update(comm::Comm& c, const OwnedTree& tree,
                    std::span<const morton::Key> dirty_leaves,
                    LetSyncStats* stats) {
  const int p = c.size();

  // B_k now: owned leaves plus all their ancestors.
  std::map<Key, bool> now;  // key -> is_leaf
  for (const Key& leaf : tree.leaves) now.emplace(leaf, true);
  for (const Key& leaf : tree.leaves) {
    Key k = leaf;
    while (k.level > 0) {
      k = morton::parent(k);
      if (!now.emplace(k, false).second) break;  // ancestors present above
    }
  }

  std::vector<Key> dirty(dirty_leaves.begin(), dirty_leaves.end());
  std::sort(dirty.begin(), dirty.end());
  std::unordered_map<Key, std::size_t, morton::KeyHash> leaf_at;
  leaf_at.reserve(tree.leaves.size());
  for (std::size_t i = 0; i < tree.leaves.size(); ++i)
    leaf_at.emplace(tree.leaves[i], i);

  // Sender-side diff: what each destination must learn relative to
  // what we last sent it.
  std::vector<std::vector<UpdMsg>> msg_out(p);
  std::vector<std::vector<PointRec>> pts_out(p);
  LetSyncStats st;
  auto emit_set = [&](const Key& k, bool leaf, std::int32_t dest) {
    std::uint32_t npts = 0;
    if (leaf) {
      const std::size_t li = leaf_at.at(k);
      npts = static_cast<std::uint32_t>(tree.leaf_point_offset[li + 1] -
                                        tree.leaf_point_offset[li]);
      pts_out[dest].insert(pts_out[dest].end(),
                           tree.points.begin() + tree.leaf_point_offset[li],
                           tree.points.begin() +
                               tree.leaf_point_offset[li + 1]);
    }
    msg_out[dest].push_back(UpdMsg{
        k.bits, k.level,
        leaf ? kSetLeaf : kSetNode, npts});
    ++st.octants_sent;
  };
  auto emit_remove = [&](const Key& k, std::int32_t dest) {
    msg_out[dest].push_back(UpdMsg{k.bits, k.level, kRemove, 0});
    ++st.removes_sent;
  };

  std::map<Key, OwnEntry> own_new;
  std::vector<char> mark(p);
  auto old_it = own_.begin();
  for (const auto& [k, leaf] : now) {
    while (old_it != own_.end() && old_it->first < k) {
      for (std::int32_t d : old_it->second.dests) emit_remove(old_it->first, d);
      ++old_it;
    }
    user_ranks(k, tree.splitters, mark);
    std::vector<std::int32_t> dests;
    for (int d = 0; d < p; ++d)
      if (d != c.rank() && mark[d]) dests.push_back(d);

    if (old_it != own_.end() && same_key(old_it->first, k)) {
      const OwnEntry& old = old_it->second;
      const bool content_changed =
          old.leaf != leaf ||
          (leaf && std::binary_search(dirty.begin(), dirty.end(), k));
      if (content_changed) {
        for (std::int32_t d : dests) emit_set(k, leaf, d);
      } else {
        std::vector<std::int32_t> added;
        std::set_difference(dests.begin(), dests.end(), old.dests.begin(),
                            old.dests.end(), std::back_inserter(added));
        for (std::int32_t d : added) emit_set(k, leaf, d);
      }
      std::vector<std::int32_t> dropped;
      std::set_difference(old.dests.begin(), old.dests.end(), dests.begin(),
                          dests.end(), std::back_inserter(dropped));
      for (std::int32_t d : dropped) emit_remove(k, d);
      ++old_it;
    } else {
      for (std::int32_t d : dests) emit_set(k, leaf, d);
    }
    own_new.emplace(k, OwnEntry{leaf, std::move(dests)});
  }
  for (; old_it != own_.end(); ++old_it)
    for (std::int32_t d : old_it->second.dests)
      emit_remove(old_it->first, d);
  own_ = std::move(own_new);

  for (int d = 0; d < p; ++d)
    if (!msg_out[d].empty()) ++st.ranks_touched;

  auto msg_in = c.alltoallv(std::move(msg_out));
  auto pts_in = c.alltoallv(std::move(pts_out));

  // Receiver side. Removes first, then sets: a leaf that migrated
  // between two contributors in one step arrives as a REMOVE from the
  // old owner and a SET from the new one, in either rank order.
  for (int r = 0; r < p; ++r) {
    if (r == c.rank()) continue;
    for (const UpdMsg& m : msg_in[r]) {
      if (m.op != kRemove) continue;
      const Key k{m.bits, m.level};
      auto it = ghost_.find(k);
      PKIFMM_CHECK_MSG(it != ghost_.end(), "ghost REMOVE for unknown octant");
      GhostEntry& g = it->second;
      auto ct = std::lower_bound(g.contributors.begin(), g.contributors.end(),
                                 r);
      PKIFMM_CHECK_MSG(ct != g.contributors.end() && *ct == r,
                       "ghost REMOVE from a non-contributor");
      g.contributors.erase(ct);
      if (g.leaf_from == r) {
        g.leaf_from = -1;
        g.pts.clear();
      }
      if (g.contributors.empty()) ghost_.erase(it);
    }
  }
  for (int r = 0; r < p; ++r) {
    if (r == c.rank()) continue;
    std::size_t cursor = 0;
    for (const UpdMsg& m : msg_in[r]) {
      if (m.op == kRemove) continue;
      const Key k{m.bits, m.level};
      GhostEntry& g = ghost_[k];
      auto ct = std::lower_bound(g.contributors.begin(), g.contributors.end(),
                                 r);
      if (ct == g.contributors.end() || *ct != r)
        g.contributors.insert(ct, r);
      if (m.op == kSetLeaf) {
        PKIFMM_CHECK_MSG(g.leaf_from < 0 || g.leaf_from == r,
                         "two ranks claim the same ghost leaf");
        g.leaf_from = r;
        PKIFMM_CHECK(cursor + m.npoints <= pts_in[r].size());
        g.pts.assign(pts_in[r].begin() + cursor,
                     pts_in[r].begin() + cursor + m.npoints);
        cursor += m.npoints;
      } else if (g.leaf_from == r) {
        g.leaf_from = -1;  // the sender's octant was refined
        g.pts.clear();
      }
    }
    PKIFMM_CHECK_MSG(cursor == pts_in[r].size(),
                     "ghost point stream out of sync with headers");
  }

  if (stats) *stats = st;
  return assemble(tree);
}

Let LetSync::assemble(const OwnedTree& tree) const {
  Let let;
  let.splitters = tree.splitters;

  // Node key set: own contribution, ghosts, and the ancestor closure
  // (every node's parent chain must exist so the list-construction
  // descents are complete).
  std::vector<Key> keys;
  keys.reserve(own_.size() + ghost_.size());
  std::unordered_map<Key, char, morton::KeyHash> present;
  present.reserve(own_.size() + ghost_.size());
  for (const auto& [k, e] : own_)
    if (present.emplace(k, 1).second) keys.push_back(k);
  for (const auto& [k, g] : ghost_)
    if (present.emplace(k, 1).second) keys.push_back(k);
  for (std::size_t i = 0, n = keys.size(); i < n; ++i) {
    Key k = keys[i];
    while (k.level > 0) {
      k = morton::parent(k);
      if (!present.emplace(k, 1).second) break;
      keys.push_back(k);
    }
  }
  std::sort(keys.begin(), keys.end());

  std::unordered_map<Key, std::size_t, morton::KeyHash> leaf_at;
  leaf_at.reserve(tree.leaves.size());
  for (std::size_t i = 0; i < tree.leaves.size(); ++i)
    leaf_at.emplace(tree.leaves[i], i);

  let.nodes.resize(keys.size());
  let.index_.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    LetNode& n = let.nodes[i];
    n.key = keys[i];
    auto oit = own_.find(keys[i]);
    auto git = ghost_.find(keys[i]);
    const bool own_leaf = oit != own_.end() && oit->second.leaf;
    const bool ghost_leaf = git != ghost_.end() && git->second.leaf_from >= 0;
    PKIFMM_CHECK_MSG(!(own_leaf && ghost_leaf),
                     "owned leaf received as ghost");
    n.global_leaf = own_leaf || ghost_leaf;
    n.owned = own_leaf;
    let.index_.emplace(keys[i], static_cast<std::int32_t>(i));
  }

  // Parent/child links.
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    LetNode& n = let.nodes[i];
    if (n.key.level == 0) continue;
    const std::int32_t pi = let.find(morton::parent(n.key));
    PKIFMM_CHECK_MSG(pi >= 0, "ancestor closure violated");
    n.parent = pi;
    let.nodes[pi].child[morton::child_index(n.key)] =
        static_cast<std::int32_t>(i);
  }

  // Targets: owned leaves and their ancestors.
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    if (!let.nodes[i].owned) continue;
    std::int32_t j = static_cast<std::int32_t>(i);
    while (j >= 0 && !let.nodes[j].target) {
      let.nodes[j].target = true;
      j = let.nodes[j].parent;
    }
  }

  // Point layout: grouped by leaf, in node order, targets before
  // source-only points (so target potentials are contiguous per leaf).
  // Owned leaves read from the tree, ghosts from the retained staging;
  // the partition happens on a scratch copy — the staging keeps the
  // sender's canonical order so future diffs compare like with like.
  std::vector<PointRec> scratch;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    LetNode& n = let.nodes[i];
    scratch.clear();
    if (n.owned) {
      const std::size_t li = leaf_at.at(n.key);
      scratch.assign(tree.points.begin() + tree.leaf_point_offset[li],
                     tree.points.begin() + tree.leaf_point_offset[li + 1]);
    } else if (n.global_leaf) {
      const GhostEntry& g = ghost_.find(n.key)->second;
      scratch.assign(g.pts.begin(), g.pts.end());
    }
    std::stable_partition(scratch.begin(), scratch.end(),
                          [](const PointRec& p) { return p.is_target(); });
    n.point_begin = static_cast<std::uint32_t>(let.points.size());
    n.point_count = static_cast<std::uint32_t>(scratch.size());
    n.target_count = static_cast<std::uint32_t>(
        std::count_if(scratch.begin(), scratch.end(),
                      [](const PointRec& p) { return p.is_target(); }));
    let.points.insert(let.points.end(), scratch.begin(), scratch.end());
  }

  // Ghost-density subscriptions, now that node indices exist.
  for (const auto& [key, e] : own_) {
    if (!e.leaf || e.dests.empty()) continue;
    const std::int32_t ni = let.find(key);
    PKIFMM_CHECK(ni >= 0);
    for (std::int32_t dest : e.dests)
      let.ghost_subscriptions.emplace_back(ni, dest);
  }
  return let;
}

Let build_let(comm::Comm& c, const OwnedTree& tree) {
  LetSync sync;
  return sync.build(c, tree);
}

namespace {

/// Deepest LET node whose region contains the probe octant (searching
/// from the probe's level upward). -1 if no ancestor-or-self exists.
std::int32_t find_containing(const Let& let, const Key& probe) {
  for (int l = probe.level; l >= 0; --l) {
    const std::int32_t idx = let.find(morton::ancestor_at(probe, l));
    if (idx >= 0) return idx;
  }
  return -1;
}

/// Collects U members (adjacent leaves) and W members (non-adjacent
/// children of adjacent octants) below gamma. Invariant: gamma's region
/// is adjacent to beta.
void descend_uw(const Let& let, const Key& beta, std::int32_t gamma,
                std::vector<std::int32_t>& u, std::vector<std::int32_t>& w) {
  for (std::int32_t ci : let.nodes[gamma].child) {
    if (ci < 0) continue;
    const LetNode& cn = let.nodes[ci];
    if (morton::adjacent(cn.key, beta)) {
      if (cn.global_leaf)
        u.push_back(ci);
      else
        descend_uw(let, beta, ci, u, w);
    } else {
      // Parent adjacent, child not: the child (leaf or not) is in W.
      w.push_back(ci);
    }
  }
}

void sort_unique(std::vector<std::int32_t>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

ListSet compress(const std::vector<std::vector<std::int32_t>>& per_node) {
  ListSet out;
  out.offset.resize(per_node.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < per_node.size(); ++i) {
    out.offset[i] = static_cast<std::int32_t>(total);
    total += per_node[i].size();
  }
  out.offset[per_node.size()] = static_cast<std::int32_t>(total);
  out.items.reserve(total);
  for (const auto& v : per_node)
    out.items.insert(out.items.end(), v.begin(), v.end());
  return out;
}

/// U/V/W/X construction for one target node, per Table I of the paper.
void lists_for_node(const Let& let, std::size_t i,
                    std::vector<std::int32_t>& u, std::vector<std::int32_t>& v,
                    std::vector<std::int32_t>& w,
                    std::vector<std::int32_t>& x) {
  const LetNode& node = let.nodes[i];
  const Key beta = node.key;

  // --- U and W lists (owned leaves only) ---
  if (node.owned && node.global_leaf) {
    u.push_back(static_cast<std::int32_t>(i));  // beta is in U(beta)
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dz = -1; dz <= 1; ++dz) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const auto nb = morton::neighbor(beta, dx, dy, dz);
          if (!nb) continue;
          const std::int32_t found = find_containing(let, *nb);
          if (found < 0) continue;
          const LetNode& fn = let.nodes[found];
          if (fn.global_leaf) {
            if (morton::adjacent(fn.key, beta))
              u.push_back(found);
          } else if (fn.key.level == beta.level) {
            // The colleague itself exists and is refined: descend for
            // finer adjacent leaves (U) and their non-adjacent
            // siblings (W).
            descend_uw(let, beta, found, u, w);
          }
          // Internal node coarser than beta: nothing interacts here
          // (its relevant descendants would have forced finer LET
          // nodes via the ancestor closure).
        }
    sort_unique(u);
    sort_unique(w);
  }

  if (beta.level == 0) return;
  const Key par = morton::parent(beta);

  // --- V list: children of parent's colleagues not adjacent to beta.
  for (const Key& kappa : morton::colleagues(par)) {
    const std::int32_t ki = let.find(kappa);
    if (ki < 0) continue;
    for (std::int32_t ci : let.nodes[ki].child) {
      if (ci < 0) continue;
      if (!morton::adjacent(let.nodes[ci].key, beta)) v.push_back(ci);
    }
  }

  // --- X list: leaves coarser than beta, adjacent to P(beta) but not
  // to beta (the duals of W).
  for (int dx = -1; dx <= 1; ++dx)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dz = -1; dz <= 1; ++dz) {
        if (dx == 0 && dy == 0 && dz == 0) continue;
        const auto nb = morton::neighbor(par, dx, dy, dz);
        if (!nb) continue;
        const std::int32_t found = find_containing(let, *nb);
        if (found < 0) continue;
        const LetNode& fn = let.nodes[found];
        if (fn.global_leaf && morton::adjacent(fn.key, par) &&
            !morton::adjacent(fn.key, beta))
          x.push_back(found);
      }
  sort_unique(x);
}

}  // namespace

void build_interaction_lists(Let& let) {
  const std::size_t n = let.nodes.size();
  std::vector<std::vector<std::int32_t>> u(n), v(n), w(n), x(n);

  for (std::size_t i = 0; i < n; ++i) {
    if (!let.nodes[i].target) continue;
    lists_for_node(let, i, u[i], v[i], w[i], x[i]);
  }

  let.u = compress(u);
  let.v = compress(v);
  let.w = compress(w);
  let.x = compress(x);
}

void repair_interaction_lists(const Let& prior, Let& let,
                              ListRepairStats* stats) {
  // Structural diff of the two (Morton-sorted) node arrays: octants
  // added or removed, or whose role flags flipped. Everything else kept
  // its key and its flags, so only targets whose parent-neighborhood
  // region a dirty octant's range overlaps can see different lists.
  std::vector<std::int32_t> old2new(prior.nodes.size(), -1);
  std::vector<std::int32_t> new2old(let.nodes.size(), -1);
  std::vector<std::pair<Bits, Bits>> dirty;  // [begin, end) key ranges
  std::vector<char> dirty_self(let.nodes.size(), 0);
  {
    std::size_t j = 0;
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      const Key& k = let.nodes[i].key;
      while (j < prior.nodes.size() && prior.nodes[j].key < k) {
        dirty.emplace_back(morton::range_begin(prior.nodes[j].key),
                           morton::range_end(prior.nodes[j].key));
        ++j;
      }
      if (j < prior.nodes.size() && same_key(prior.nodes[j].key, k)) {
        old2new[j] = static_cast<std::int32_t>(i);
        new2old[i] = static_cast<std::int32_t>(j);
        const LetNode& a = prior.nodes[j];
        const LetNode& b = let.nodes[i];
        if (a.global_leaf != b.global_leaf || a.owned != b.owned ||
            a.target != b.target) {
          dirty.emplace_back(morton::range_begin(k), morton::range_end(k));
          dirty_self[i] = 1;
        }
        ++j;
      } else {
        dirty.emplace_back(morton::range_begin(k), morton::range_end(k));
        dirty_self[i] = 1;
      }
    }
    for (; j < prior.nodes.size(); ++j)
      dirty.emplace_back(morton::range_begin(prior.nodes[j].key),
                         morton::range_end(prior.nodes[j].key));
  }
  std::sort(dirty.begin(), dirty.end());
  // Prefix maximum of range ends, for interval-stabbing queries (dirty
  // ranges nest when an octant and its ancestor both changed).
  std::vector<Bits> max_end(dirty.size());
  {
    Bits m = 0;
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      m = std::max(m, dirty[i].second);
      max_end[i] = m;
    }
  }
  auto overlaps_dirty = [&](Bits b, Bits e) {
    auto it = std::lower_bound(
        dirty.begin(), dirty.end(), e,
        [](const std::pair<Bits, Bits>& d, Bits v) { return d.first < v; });
    const std::size_t n = static_cast<std::size_t>(it - dirty.begin());
    return n > 0 && max_end[n - 1] > b;
  };

  const std::size_t n = let.nodes.size();
  std::vector<std::vector<std::int32_t>> u(n), v(n), w(n), x(n);
  ListRepairStats st;
  for (std::size_t i = 0; i < n; ++i) {
    const LetNode& node = let.nodes[i];
    if (!node.target) continue;
    bool recompute = dirty_self[i] != 0;
    if (!recompute) {
      if (node.key.level == 0) {
        recompute = !dirty.empty();
      } else {
        for (const Key& kappa :
             morton::neighborhood(morton::parent(node.key))) {
          if (overlaps_dirty(morton::range_begin(kappa),
                             morton::range_end(kappa))) {
            recompute = true;
            break;
          }
        }
      }
    }
    if (recompute) {
      lists_for_node(let, i, u[i], v[i], w[i], x[i]);
      ++st.rebuilt_targets;
      continue;
    }
    const std::int32_t j = new2old[i];
    PKIFMM_CHECK(j >= 0 && prior.nodes[static_cast<std::size_t>(j)].target);
    auto remap = [&](const ListSet& from, std::vector<std::int32_t>& to) {
      for (std::int32_t item : from.of(static_cast<std::size_t>(j))) {
        const std::int32_t ni = old2new[static_cast<std::size_t>(item)];
        PKIFMM_CHECK_MSG(ni >= 0, "clean target references a removed octant");
        to.push_back(ni);
      }
    };
    remap(prior.u, u[i]);
    remap(prior.v, v[i]);
    remap(prior.w, w[i]);
    remap(prior.x, x[i]);
    ++st.kept_targets;
  }

  let.u = compress(u);
  let.v = compress(v);
  let.w = compress(w);
  let.x = compress(x);
  if (stats) *stats = st;
}

void refresh_ghost_densities(comm::Comm& c, Let& let) {
  const int p = c.size();
  std::vector<std::vector<DenMsg>> hdr_out(p);
  std::vector<std::vector<double>> den_out(p);
  for (const auto& [ni, dest] : let.ghost_subscriptions) {
    const LetNode& n = let.nodes[ni];
    hdr_out[dest].push_back(DenMsg{n.key.bits, n.key.level, n.point_count});
    for (const PointRec& pt : let.points_of(n))
      den_out[dest].insert(den_out[dest].end(), pt.den,
                           pt.den + kMaxDensityDim);
  }
  auto hdr_in = c.alltoallv(std::move(hdr_out));
  auto den_in = c.alltoallv(std::move(den_out));

  for (int r = 0; r < p; ++r) {
    if (r == c.rank()) continue;
    std::size_t cursor = 0;
    for (const DenMsg& m : hdr_in[r]) {
      const std::int32_t ni = let.find(Key{m.bits, m.level});
      PKIFMM_CHECK_MSG(ni >= 0, "density refresh for unknown ghost leaf");
      LetNode& n = let.nodes[ni];
      PKIFMM_CHECK(n.point_count == m.npoints);
      for (PointRec& pt : let.points_of(n)) {
        for (int d = 0; d < kMaxDensityDim; ++d)
          pt.den[d] = den_in[r][cursor + d];
        cursor += kMaxDensityDim;
      }
    }
    PKIFMM_CHECK(cursor == den_in[r].size());
  }
}

}  // namespace pkifmm::octree
