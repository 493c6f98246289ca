#include "core/reduce.hpp"

#include <algorithm>
#include <functional>
#include <map>

namespace pkifmm::core {

using morton::Bits;
using morton::Key;

namespace {

bool is_power_of_two(int p) { return p > 0 && (p & (p - 1)) == 0; }

/// Key-space interval of ranks [lo, hi]: [splitters[lo], end(hi)).
bool range_overlaps(Bits begin, Bits end, const std::vector<Bits>& splitters,
                    int lo, int hi) {
  const Bits s_lo = splitters[lo];
  const Bits s_hi = hi + 1 < static_cast<int>(splitters.size())
                        ? splitters[hi + 1]
                        : morton::range_end(morton::root());
  return begin < s_hi && s_lo < end;
}

/// True iff some rank in [rank_lo, rank_hi] uses octant beta, i.e. the
/// neighborhood of beta's parent overlaps that key-space range.
bool interest_overlaps(const Key& beta, const std::vector<Bits>& splitters,
                       int rank_lo, int rank_hi) {
  if (rank_lo > rank_hi) return false;
  if (beta.level == 0) return true;  // root's users are everyone
  for (const Key& kappa : morton::neighborhood(morton::parent(beta))) {
    if (range_overlaps(morton::range_begin(kappa), morton::range_end(kappa),
                       splitters, rank_lo, rank_hi))
      return true;
  }
  return false;
}

/// True iff beta is "shared": some rank other than `self` contributes
/// to or uses beta.
bool is_shared(const Key& beta, const std::vector<Bits>& splitters, int self) {
  const int p = static_cast<int>(splitters.size());
  return interest_overlaps(beta, splitters, 0, self - 1) ||
         interest_overlaps(beta, splitters, self + 1, p - 1);
}

using Pool = std::map<Key, std::vector<double>>;

/// Serializes pool entries selected by `want` into one payload.
comm::Bytes pack_entries(const Pool& pool, [[maybe_unused]] int eq_len,
                         const std::function<bool(const Key&)>& want) {
  comm::Bytes out;
  std::uint64_t count = 0;
  for (const auto& [key, val] : pool)
    if (want(key)) ++count;
  comm::pack(out, count);
  for (const auto& [key, val] : pool) {
    if (!want(key)) continue;
    comm::pack(out, key.bits);
    comm::pack(out, key.level);
    PKIFMM_DCHECK(static_cast<int>(val.size()) == eq_len);
    for (double v : val) comm::pack(out, v);
  }
  return out;
}

/// Merges a payload into the pool, summing duplicate octants (paper
/// Algorithm 3 steps 8-10).
void merge_entries(Pool& pool, int eq_len, const comm::Bytes& payload) {
  comm::Reader r(payload);
  const auto count = r.read<std::uint64_t>();
  for (std::uint64_t e = 0; e < count; ++e) {
    Key key;
    key.bits = r.read<Bits>();
    key.level = r.read<std::uint8_t>();
    auto [it, inserted] = pool.try_emplace(key);
    if (inserted) it->second.assign(eq_len, 0.0);
    for (int i = 0; i < eq_len; ++i) it->second[i] += r.read<double>();
  }
  PKIFMM_CHECK(r.done());
}

/// Copies the complete sums back into the node array.
void write_back(const Pool& pool, const octree::Let& let, int eq_len,
                std::span<double> u) {
  for (const auto& [key, val] : pool) {
    const std::int32_t ni = let.find(key);
    if (ni >= 0)
      std::copy(val.begin(), val.end(), u.begin() + std::size_t(ni) * eq_len);
  }
}

/// Paper Algorithm 3: combined reduce-and-scatter over the hypercube.
void reduce_hypercube(comm::Comm& c, const octree::Let& let, int eq_len,
                      std::span<double> u, Pool pool) {
  const int p = c.size();
  const int r = c.rank();
  PKIFMM_CHECK_MSG(is_power_of_two(p),
                   "hypercube reduce requires power-of-two ranks, got " << p);
  int d = 0;
  while ((1 << d) < p) ++d;

  // Algorithm 3 exchanges exactly one message per hypercube dimension.
  auto cs = c.cost().collective("reduce_scatter",
                                static_cast<std::uint64_t>(d));
  const int tag = 777;
  for (int i = d - 1; i >= 0; --i) {
    const int s = r ^ (1 << i);
    // Ranks reachable from the partner in the remaining rounds.
    const int us = s & ((1 << d) - (1 << i));
    const int ue = s | ((1 << i) - 1);
    comm::Bytes payload =
        pack_entries(pool, eq_len, [&](const Key& beta) {
          return interest_overlaps(beta, let.splitters, us, ue);
        });

    // Ranks still reachable from us: drop octants nobody here needs.
    const int qs = r & ((1 << d) - (1 << i));
    const int qe = r | ((1 << i) - 1);
    for (auto it = pool.begin(); it != pool.end();) {
      if (!interest_overlaps(it->first, let.splitters, qs, qe))
        it = pool.erase(it);
      else
        ++it;
    }

    c.send_bytes(s, tag + i, std::move(payload));
    merge_entries(pool, eq_len, c.recv_bytes(s, tag + i));
  }

  // Write the complete sums back into the node array.
  write_back(pool, let, eq_len, u);
}

/// The paper's previous scheme: per-octant owner reduction + broadcast.
void reduce_owner(comm::Comm& c, const octree::Let& let, int eq_len,
                  std::span<double> u, Pool pool) {
  const int p = c.size();
  // Two alltoallv exchanges: contributors -> owner, owner -> users.
  auto cs = c.cost().collective("owner_reduce", 2);

  // Owner of an octant: the first rank whose region it overlaps.
  auto owner_of = [&](const Key& beta) {
    return octree::overlapping_ranks(beta, let.splitters).first;
  };

  // Phase 1: contributors -> owner.
  std::vector<comm::Bytes> to_owner(p);
  {
    std::vector<std::vector<std::pair<const Key*, const std::vector<double>*>>>
        grouped(p);
    for (const auto& [key, val] : pool)
      grouped[owner_of(key)].emplace_back(&key, &val);
    for (int k = 0; k < p; ++k) {
      comm::pack(to_owner[k], static_cast<std::uint64_t>(grouped[k].size()));
      for (const auto& [key, val] : grouped[k]) {
        comm::pack(to_owner[k], key->bits);
        comm::pack(to_owner[k], key->level);
        for (double v : *val) comm::pack(to_owner[k], v);
      }
    }
  }
  Pool owned;
  {
    std::vector<std::vector<std::byte>> out(p);
    for (int k = 0; k < p; ++k) out[k] = std::move(to_owner[k]);
    auto in = c.alltoallv(std::move(out));
    for (int k = 0; k < p; ++k) merge_entries(owned, eq_len, in[k]);
  }

  // Phase 2: owner -> users (broadcast of complete sums).
  {
    std::vector<std::uint64_t> counts(p, 0);
    std::vector<comm::Bytes> bodies(p);
    for (const auto& [key, val] : owned) {
      for (int k = 0; k < p; ++k) {
        if (!interest_overlaps(key, let.splitters, k, k)) continue;
        ++counts[k];
        comm::pack(bodies[k], key.bits);
        comm::pack(bodies[k], key.level);
        for (double v : val) comm::pack(bodies[k], v);
      }
    }
    std::vector<std::vector<std::byte>> out(p);
    for (int k = 0; k < p; ++k) {
      comm::Bytes b;
      comm::pack(b, counts[k]);
      b.insert(b.end(), bodies[k].begin(), bodies[k].end());
      out[k] = std::move(b);
    }
    auto in = c.alltoallv(std::move(out));
    Pool complete;
    for (int k = 0; k < p; ++k) merge_entries(complete, eq_len, in[k]);
    write_back(complete, let, eq_len, u);
  }
}

}  // namespace

void reduce_upward_densities(comm::Comm& c, const octree::Let& let,
                             int eq_len, std::span<double> u,
                             ReduceMode mode) {
  PKIFMM_CHECK(u.size() == let.nodes.size() * static_cast<std::size_t>(eq_len));
  if (c.size() == 1) return;

  // Seed the pool with this rank's partial contributions to shared
  // octants (non-shared octants are already complete locally).
  Pool pool;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    const octree::LetNode& node = let.nodes[i];
    if (!node.target) continue;
    if (!is_shared(node.key, let.splitters, c.rank())) continue;
    pool.emplace(node.key,
                 std::vector<double>(u.begin() + i * eq_len,
                                     u.begin() + (i + 1) * eq_len));
  }

  switch (mode) {
    case ReduceMode::kHypercube:
      reduce_hypercube(c, let, eq_len, u, std::move(pool));
      break;
    case ReduceMode::kOwner:
      reduce_owner(c, let, eq_len, u, std::move(pool));
      break;
  }
}

}  // namespace pkifmm::core
