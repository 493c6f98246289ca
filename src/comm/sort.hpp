#pragma once
/// \file sort.hpp
/// \brief Distributed sorting and repartitioning primitives.
///
/// The paper's setup phase is dominated by the parallel sort of the
/// input points into Morton order ("the main communication cost is
/// associated with the parallel sort", §III-D, complexity
/// O(n/p log n/p + p log p), a combination of sample sort and bitonic
/// sort). This header implements the sample-sort component plus the
/// order-preserving rebalance the tree construction uses. (Work-weighted
/// repartitioning lives in octree/partition.hpp.)

#include <algorithm>
#include <cstdint>

#include "comm/comm.hpp"

namespace pkifmm::comm {

/// Distributed bitonic sort of equal-size chunks over a power-of-two
/// communicator (the "bitonic" half of the paper's sort, after [5]).
/// Each rank holds exactly `chunk` elements; on return the
/// concatenation over ranks is globally sorted. Used to sort the
/// splitter samples inside sample_sort; also usable standalone.
template <Pod T, class Less>
void bitonic_sort_equal(Comm& c, std::vector<T>& data, Less less) {
  const int p = c.size();
  PKIFMM_CHECK_MSG((p & (p - 1)) == 0,
                   "bitonic sort requires power-of-two ranks");
  const std::size_t chunk = data.size();
  {
    // All chunks must be the same size.
    const auto sizes = c.allgather(static_cast<std::uint64_t>(chunk));
    for (auto s : sizes) PKIFMM_CHECK(s == chunk);
  }
  std::sort(data.begin(), data.end(), less);
  if (p == 1 || chunk == 0) return;

  const int r = c.rank();
  const int tag = 4242;
  // Bitonic network over ranks: stage k merges bitonic sequences of
  // length 2^(k+1); within a stage, substage j exchanges with the
  // partner at distance 2^j.
  for (int k = 1; k < p; k <<= 1) {
    for (int j = k; j >= 1; j >>= 1) {
      const int partner = r ^ j;
      const bool ascending = ((r & (k << 1)) == 0);
      const bool keep_low = (r < partner) == ascending;

      c.send(partner, tag, std::span<const T>(data));
      auto theirs = c.recv<T>(partner, tag);

      // Merge the two sorted runs and keep our half.
      std::vector<T> merged;
      merged.reserve(2 * chunk);
      std::merge(data.begin(), data.end(), theirs.begin(), theirs.end(),
                 std::back_inserter(merged), less);
      if (keep_low)
        data.assign(merged.begin(), merged.begin() + chunk);
      else
        data.assign(merged.end() - chunk, merged.end());
    }
  }
}

/// Globally sorts `data` (an arbitrary per-rank chunk) so that after the
/// call each rank holds a contiguous, locally sorted slice of the global
/// order: every element on rank k compares <= every element on rank k+1.
/// Sample sort: local sort, p regular samples per rank, splitter
/// selection on the sorted samples (sorted with the distributed bitonic
/// network when p is a power of two, as in the paper's
/// sample+bitonic combination), alltoallv redistribution, local merge.
template <Pod T, class Less>
void sample_sort(Comm& c, std::vector<T>& data, Less less) {
  std::sort(data.begin(), data.end(), less);
  const int p = c.size();
  if (p == 1) return;

  // Regular samples of the local run.
  std::vector<T> samples;
  const std::size_t n = data.size();
  const std::size_t want = std::min<std::size_t>(p, n);
  samples.reserve(want);
  for (std::size_t i = 0; i < want; ++i)
    samples.push_back(data[i * n / want]);

  std::vector<T> all;
  if ((p & (p - 1)) == 0 && samples.size() == static_cast<std::size_t>(p)) {
    // Equal chunks on a power-of-two communicator: sort the samples
    // with the bitonic network, then gather the sorted sequence.
    bitonic_sort_equal(c, samples, less);
    all = c.allgatherv_concat(std::span<const T>(samples));
  } else {
    all = c.allgatherv_concat(std::span<const T>(samples));
    std::sort(all.begin(), all.end(), less);
  }

  // p-1 splitters at regular positions of the sample set.
  std::vector<T> splitters;
  splitters.reserve(p - 1);
  if (!all.empty()) {
    for (int k = 1; k < p; ++k)
      splitters.push_back(all[std::min(all.size() - 1, k * all.size() / p)]);
  }

  std::vector<std::vector<T>> outgoing(p);
  if (splitters.empty()) {
    outgoing[0] = std::move(data);
  } else {
    std::size_t begin = 0;
    for (int k = 0; k < p; ++k) {
      const std::size_t end =
          k + 1 < p
              ? static_cast<std::size_t>(
                    std::lower_bound(data.begin() + begin, data.end(),
                                     splitters[k], less) -
                    data.begin())
              : data.size();
      outgoing[k].assign(data.begin() + begin, data.begin() + end);
      begin = end;
    }
  }

  auto incoming = c.alltoallv(std::move(outgoing));
  data.clear();
  for (auto& run : incoming)
    data.insert(data.end(), run.begin(), run.end());
  // Received runs are sorted individually; a final sort merges them.
  std::sort(data.begin(), data.end(), less);
}

/// Order-preserving rebalance: after the call every rank holds
/// floor/ceil(total/p) consecutive elements of the global order. This is
/// the "each process owns a contiguous chunk of the sorted array" step.
template <Pod T>
void rebalance_equal(Comm& c, std::vector<T>& data) {
  const int p = c.size();
  if (p == 1) return;
  const auto mine = static_cast<std::uint64_t>(data.size());
  const std::uint64_t before = c.exscan_sum(mine);
  const std::uint64_t total = c.allreduce_sum(mine);

  auto target_begin = [&](int k) {
    return static_cast<std::uint64_t>(k) * total / p;
  };

  std::vector<std::vector<T>> outgoing(p);
  for (int k = 0; k < p; ++k) {
    const std::uint64_t lo = std::max<std::uint64_t>(target_begin(k), before);
    const std::uint64_t hi =
        std::min<std::uint64_t>(k + 1 < p ? target_begin(k + 1) : total,
                                before + mine);
    if (lo < hi)
      outgoing[k].assign(data.begin() + (lo - before),
                         data.begin() + (hi - before));
  }
  auto incoming = c.alltoallv(std::move(outgoing));
  data.clear();
  for (auto& run : incoming) data.insert(data.end(), run.begin(), run.end());
}

}  // namespace pkifmm::comm
