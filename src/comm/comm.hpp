#pragma once
/// \file comm.hpp
/// \brief Rank-level communication API (the MPI stand-in) and the
/// Runtime that executes SPMD functions over simulated ranks.
///
/// Comm mirrors the slice of MPI the paper's algorithms use:
/// point-to-point send/recv, barrier, allgather/allgatherv (tree
/// construction exchanges the geometric partition this way, §III-A),
/// alltoallv (point migration), allreduce and exclusive scan (work
/// partitioning). Collectives are implemented *on top of* point-to-point
/// messages with textbook algorithms (ring allgather, dissemination
/// barrier), so the message/byte accounting reflects a real
/// implementation rather than magic shared memory.
///
/// Every rank runs as a thread of one process; Runtime::run launches
/// them and returns each rank's obs snapshot (time phases, flop phases,
/// communication counters, all from the rank's one obs::Recorder) that
/// the benches aggregate exactly the way the paper reports
/// "Max."/"Avg." across processes.

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "comm/bytes.hpp"
#include "comm/cost.hpp"
#include "comm/fabric.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "util/flops.hpp"
#include "util/timer.hpp"

namespace pkifmm::util {
class TaskPool;
}  // namespace pkifmm::util

namespace pkifmm::comm {

/// Communicator bound to one rank of a Runtime::run invocation.
class Comm {
 public:
  Comm(Fabric& fabric, int rank, int nranks, CostTracker& cost)
      : fabric_(fabric), rank_(rank), size_(nranks), cost_(cost) {}

  int rank() const { return rank_; }
  int size() const { return size_; }
  CostTracker& cost() { return cost_; }

  /// Point-to-point, user tags must be < kCollectiveTagBase.
  void send_bytes(int dest, int tag, Bytes payload) {
    PKIFMM_DCHECK(tag >= 0 && tag < kCollectiveTagBase);
    raw_send(dest, tag, std::move(payload));
  }
  Bytes recv_bytes(int source, int tag) {
    PKIFMM_DCHECK(tag >= 0 && tag < kCollectiveTagBase);
    return raw_recv(source, tag);
  }

  template <Pod T>
  void send(int dest, int tag, std::span<const T> v) {
    send_bytes(dest, tag, to_bytes(v));
  }

  template <Pod T>
  std::vector<T> recv(int source, int tag) {
    return from_bytes<T>(recv_bytes(source, tag));
  }

  /// Non-blocking probe: true if a message from (source, tag) is
  /// already queued. Counted by the flow ring when it is on.
  bool probe(int source, int tag) {
    PKIFMM_DCHECK(tag >= 0 && tag < kCollectiveTagBase);
    if (obs::FlowRecorder* f = cost_.recorder().flow()) f->on_probe();
    return fabric_.probe(rank_, source, tag);
  }

  /// Dissemination barrier: ceil(log2 p) rounds, works for any p.
  void barrier();

  /// Every rank contributes one value; returns all p values by rank.
  /// Ring algorithm (p-1 rounds).
  template <Pod T>
  std::vector<T> allgather(const T& v) {
    auto per_rank = allgatherv(std::span<const T>(&v, 1));
    std::vector<T> out;
    out.reserve(size_);
    for (auto& r : per_rank) {
      PKIFMM_CHECK(r.size() == 1);
      out.push_back(r.front());
    }
    return out;
  }

  /// Variable-size allgather; out[k] is rank k's contribution.
  template <Pod T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> mine) {
    std::vector<std::vector<T>> out(size_);
    out[rank_].assign(mine.begin(), mine.end());
    if (size_ == 1) return out;
    auto cs = cost_.collective("allgatherv",
                               static_cast<std::uint64_t>(size_ - 1));
    const int base = next_collective_tags(size_);
    const int right = (rank_ + 1) % size_;
    const int left = (rank_ - 1 + size_) % size_;
    // Ring: in round i, forward the block that originated at rank
    // (rank - i) mod p.
    for (int i = 0; i < size_ - 1; ++i) {
      const int origin_out = (rank_ - i + size_) % size_;
      const int origin_in = (rank_ - i - 1 + 2 * size_) % size_;
      raw_send(right, base + i, to_bytes(std::span<const T>(out[origin_out])));
      out[origin_in] = from_bytes<T>(raw_recv(left, base + i));
    }
    return out;
  }

  /// Concatenation of allgatherv in rank order.
  template <Pod T>
  std::vector<T> allgatherv_concat(std::span<const T> mine) {
    auto per_rank = allgatherv(mine);
    std::vector<T> out;
    std::size_t total = 0;
    for (const auto& r : per_rank) total += r.size();
    out.reserve(total);
    for (const auto& r : per_rank) out.insert(out.end(), r.begin(), r.end());
    return out;
  }

  /// Personalized all-to-all: outgoing[k] goes to rank k; returns
  /// incoming[k] = what rank k sent here. outgoing[rank()] is returned
  /// untouched (self-delivery is free).
  template <Pod T>
  std::vector<std::vector<T>> alltoallv(std::vector<std::vector<T>> outgoing) {
    PKIFMM_CHECK(static_cast<int>(outgoing.size()) == size_);
    std::vector<std::vector<T>> incoming(size_);
    incoming[rank_] = std::move(outgoing[rank_]);
    if (size_ == 1) return incoming;
    auto cs = cost_.collective("alltoallv", 1);
    const int tag = next_collective_tags(1);
    for (int k = 0; k < size_; ++k) {
      if (k == rank_) continue;
      raw_send(k, tag, to_bytes(std::span<const T>(outgoing[k])));
    }
    for (int k = 0; k < size_; ++k) {
      if (k == rank_) continue;
      incoming[k] = from_bytes<T>(raw_recv(k, tag));
    }
    return incoming;
  }

  /// Elementwise allreduce of equal-length vectors.
  template <Pod T, class Op>
  std::vector<T> allreduce(std::span<const T> mine, Op op) {
    auto per_rank = allgatherv(mine);
    std::vector<T> out(per_rank[0].begin(), per_rank[0].end());
    for (int k = 1; k < size_; ++k) {
      PKIFMM_CHECK(per_rank[k].size() == out.size());
      for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = op(out[i], per_rank[k][i]);
    }
    return out;
  }

  template <Pod T, class Op>
  T allreduce_one(const T& v, Op op) {
    return allreduce(std::span<const T>(&v, 1), op).front();
  }

  template <Pod T>
  T allreduce_sum(const T& v) {
    return allreduce_one(v, [](T a, T b) { return a + b; });
  }

  template <Pod T>
  T allreduce_max(const T& v) {
    return allreduce_one(v, [](T a, T b) { return a > b ? a : b; });
  }

  /// Exclusive prefix sum over ranks (rank 0 gets T{}).
  template <Pod T>
  T exscan_sum(const T& v) {
    auto all = allgather(v);
    T acc{};
    for (int k = 0; k < rank_; ++k) acc = acc + all[k];
    return acc;
  }

 private:
  static constexpr int kCollectiveTagBase = 1 << 20;

  /// Reserves `count` consecutive collective tags. All ranks execute
  /// collectives in the same order, so the per-rank counter stays in
  /// lockstep across ranks without coordination.
  int next_collective_tags(int count) {
    const int tag = kCollectiveTagBase + collective_seq_;
    collective_seq_ += count;
    return tag;
  }

  void raw_send(int dest, int tag, Bytes payload) {
    cost_.on_send(dest, payload);
    // Stamp before the enqueue so the matched receive's dequeue time is
    // never earlier (non-negative latency after epoch alignment).
    if (obs::FlowRecorder* f = cost_.recorder().flow())
      f->on_send(dest, tag, static_cast<std::int64_t>(payload.size()));
    fabric_.send(rank_, dest, tag, std::move(payload));
  }

  Bytes raw_recv(int source, int tag) {
    obs::FlowRecorder* f = cost_.recorder().flow();
    const double t0 = f != nullptr ? f->now() : 0.0;
    bool blocked = false;
    Bytes payload = fabric_.recv(rank_, source, tag, &blocked);
    if (f != nullptr)
      f->on_recv(source, tag, static_cast<std::int64_t>(payload.size()), t0,
                 f->now(), blocked);
    cost_.on_recv(payload);
    return payload;
  }

  Fabric& fabric_;
  int rank_;
  int size_;
  CostTracker& cost_;
  int collective_seq_ = 0;
};

/// Everything a rank's SPMD function can use: the communicator plus
/// rank-local time/flop accounting and the obs recorder the timer,
/// flop counter and cost tracker all report into.
struct RankCtx {
  Comm& comm;
  PhaseTimer& timer;
  FlopCounter& flops;
  obs::Recorder& rec;
  /// Intra-rank worker pool, set by the Runtime::run overload that
  /// takes a threads_per_rank. Null when the caller did not ask for
  /// intra-rank parallelism; core::Evaluator then sizes its own pool
  /// from FmmOptions::threads_per_rank.
  util::TaskPool* pool = nullptr;

  int rank() const { return comm.rank(); }
  int size() const { return comm.size(); }
};

/// Per-rank measurement snapshot returned by Runtime::run: everything
/// the rank's recorder holds (spans, `time.*`, `flops.*`, `comm.*` and
/// every other counter, the flow ring when on) — see
/// snapshot_with_counters and, for the counter names, obs/export.hpp.
using RankReport = obs::RankMetrics;

/// ctx.rec.snapshot() plus the `obs.epoch` gauge. Runtime::run stores
/// exactly this as the rank's RankReport at the end of the run; a
/// caller that wants a cross-rank summary mid-run takes it and passes
/// it to obs::gather_metrics (obs/aggregate.hpp).
obs::RankMetrics snapshot_with_counters(const RankCtx& ctx);

/// Launches p simulated ranks (threads) running fn and returns their
/// reports. If any rank throws, the fabric is poisoned so the remaining
/// ranks unblock, and the first exception is rethrown.
class Runtime {
 public:
  static std::vector<RankReport> run(int nranks,
                                     const std::function<void(RankCtx&)>& fn);

  /// Same, but also gives every rank a util::TaskPool with
  /// `threads_per_rank - 1` worker threads (the rank thread itself is
  /// the pool's lane 0), exposed as RankCtx::pool. The request is
  /// clamped against hardware_concurrency() unless `clamp = false`
  /// (see util::recommended_workers). Pool scheduler statistics are
  /// folded into each rank's recorder before reports are built.
  static std::vector<RankReport> run(int nranks, int threads_per_rank,
                                     bool clamp,
                                     const std::function<void(RankCtx&)>& fn);
};

}  // namespace pkifmm::comm
