#pragma once
/// \file reduce.hpp
/// \brief Assembling complete upward densities across ranks.
///
/// After the local upward pass, the u vector of an octant only contains
/// the contribution of this rank's points. Octants whose
/// contributor/user set spans several ranks ("shared" octants) must be
/// summed across contributors and delivered to all users. Two schemes:
///
///  - kHypercube: paper Algorithm 3 — d = log2(p) rounds; in round i the
///    partner is rank XOR 2^i; octants are forwarded only if some rank
///    in the partner's reachable half uses them, and dropped once no
///    rank in our own reachable half does. Communication volume is
///    O(m (3 sqrt(p) - 2)) per rank.
///  - kOwner: the paper's *previous* scheme — every octant has an owner
///    rank that collects partials, sums, and sends the result to every
///    user. Near-root octants have O(p) users, which is exactly why
///    this collapsed at 64K processes; kept as the ablation baseline.
///
/// Both schemes block the rank thread on point-to-point receives. With
/// threads_per_rank > 1 that wait is not idle: the Evaluator submits
/// the U-list to its util::TaskPool before the upward pass, so pool
/// workers execute direct interactions throughout the reduction rounds
/// (DESIGN.md §5d — the paper hides the same latency behind its async
/// GPU ULI kernels).

#include <cstdint>
#include <span>

#include "comm/comm.hpp"
#include "core/options.hpp"
#include "octree/let.hpp"

namespace pkifmm::core {

/// Sums partial upward densities over contributors and delivers the
/// complete values to users. `u` is the per-node density array
/// (nodes * eq_len, node-major); on entry target nodes hold this rank's
/// partials, on exit every node this rank uses holds the global sum.
void reduce_upward_densities(comm::Comm& c, const octree::Let& let,
                             int eq_len, std::span<double> u,
                             ReduceMode mode);

}  // namespace pkifmm::core
