#include "comm/comm.hpp"

#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "util/task_pool.hpp"

namespace pkifmm::comm {

void Comm::barrier() {
  if (size_ == 1) return;
  const int rounds = [&] {
    int r = 0;
    for (int k = 1; k < size_; k <<= 1) ++r;
    return r;
  }();
  auto cs = cost_.collective("barrier", static_cast<std::uint64_t>(rounds));
  const int base = next_collective_tags(rounds);
  // Dissemination barrier: in round i, signal rank (r + 2^i) mod p and
  // wait for rank (r - 2^i) mod p.
  for (int i = 0, step = 1; step < size_; ++i, step <<= 1) {
    const int to = (rank_ + step) % size_;
    const int from = (rank_ - step % size_ + size_) % size_;
    raw_send(to, base + i, Bytes{});
    raw_recv(from, base + i);
  }
}

namespace {

/// Folds the cost tracker's per-phase, per-destination and collective
/// tables into `m.counters` under the canonical names documented in
/// obs/export.hpp. PhaseTimer and FlopCounter need no fold: they write
/// their `time.*` and `flops.*` counters into the recorder directly.
void fold_flat_counters(obs::RankMetrics& m, const CostTracker& cost) {
  for (const auto& [name, c] : cost.phases()) {
    m.counters["comm." + name + ".msgs_sent"] +=
        static_cast<double>(c.msgs_sent);
    m.counters["comm." + name + ".bytes_sent"] +=
        static_cast<double>(c.bytes_sent);
    m.counters["comm." + name + ".msgs_recv"] +=
        static_cast<double>(c.msgs_recv);
    m.counters["comm." + name + ".bytes_recv"] +=
        static_cast<double>(c.bytes_recv);
  }
  // Per-destination sends: one counter pair per (phase, dst) actually
  // used, parsed back into the dense per-phase traffic matrix by
  // obs::summarize_metrics.
  for (const auto& [phase, peers] : cost.peer_sends()) {
    for (const auto& [dst, p] : peers) {
      const std::string stem = "commx." + phase + ".dst" + std::to_string(dst);
      m.counters[stem + ".msgs"] += static_cast<double>(p.msgs);
      m.counters[stem + ".bytes"] += static_cast<double>(p.bytes);
    }
  }
  for (const auto& [name, s] : cost.collectives()) {
    m.counters["coll." + name + ".calls"] += static_cast<double>(s.calls);
    m.counters["coll." + name + ".rounds"] += static_cast<double>(s.rounds);
    m.counters["coll." + name + ".msgs"] += static_cast<double>(s.msgs);
    m.counters["coll." + name + ".bytes"] += static_cast<double>(s.bytes);
  }
  // Payload-transit digests (health layer): every message is matched
  // within the run, so across ranks Σ sent == Σ recv — the summary
  // compares the two sums as a transit-integrity sentinel. The owner
  // (ParallelFmm) may have unbound digesting by the time the epilogue
  // folds, so accumulated values count even when no longer enabled.
  if (cost.payload_digests_enabled() || cost.payload_sent_digest() != 0.0 ||
      cost.payload_recv_digest() != 0.0) {
    m.counters["health.comm.payload_sent"] += cost.payload_sent_digest();
    m.counters["health.comm.payload_recv"] += cost.payload_recv_digest();
  }
}

}  // namespace

obs::RankMetrics snapshot_with_counters(const RankCtx& ctx) {
  obs::RankMetrics m = ctx.rec.snapshot();
  m.gauges["obs.epoch"] = ctx.rec.epoch();
  fold_flat_counters(m, ctx.comm.cost());
  // A still-bound flow recorder hasn't published into ctx.rec yet; fold
  // it into this copy so mid-run snapshots carry the flow data too.
  // (Once published, the events live in the recorder snapshot already.)
  const obs::FlowRecorder* f = ctx.comm.cost().flow();
  if (f != nullptr && !f->published()) f->fold_into(m);
  return m;
}

namespace {

/// Shared SPMD driver; pool_workers < 0 means "no per-rank pool".
std::vector<RankReport> run_impl(int nranks, int pool_workers,
                                 const std::function<void(RankCtx&)>& fn) {
  PKIFMM_CHECK(nranks >= 1);
  Fabric fabric(nranks);
  std::vector<RankReport> reports(nranks);

  std::mutex err_mu;
  std::exception_ptr first_error;

  auto body = [&](int rank) {
    // Declared first, so it outlives everything bound to it below.
    obs::Recorder rec(rank);
    CostTracker cost;
    cost.bind(&rec);
    PhaseTimer timer(rec);
    FlopCounter flops(rec);
    // Thread-scoped hardware counters: constructed HERE, on the rank
    // thread, so the perf fds count this rank's execution. Falls back
    // to rusage-only sampling where perf_event_open is denied.
    obs::HwCounters hw;
    rec.bind_hw(&hw);
    Comm comm(fabric, rank, nranks, cost);
    RankCtx ctx{comm, timer, flops, rec};
    std::unique_ptr<util::TaskPool> pool;
    if (pool_workers >= 0) {
      pool = std::make_unique<util::TaskPool>(pool_workers);
      ctx.pool = pool.get();
    }
    try {
      fn(ctx);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      fabric.poison();
    }
    if (pool) pool->fold_stats(rec);  // any scheduler residue since the
                                      // evaluator's own fold
    rec.gauge_set("mem.peak_rss_bytes",
                  static_cast<double>(obs::peak_rss_bytes()));
    reports[rank] = snapshot_with_counters(ctx);
  };

  if (nranks == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(nranks);
    for (int r = 0; r < nranks; ++r) threads.emplace_back(body, r);
    for (auto& t : threads) t.join();
  }

  if (first_error) {
    // Suppress FabricPoisoned in favor of the root-cause exception.
    std::rethrow_exception(first_error);
  }
  return reports;
}

}  // namespace

std::vector<RankReport> Runtime::run(
    int nranks, const std::function<void(RankCtx&)>& fn) {
  return run_impl(nranks, /*pool_workers=*/-1, fn);
}

std::vector<RankReport> Runtime::run(
    int nranks, int threads_per_rank, bool clamp,
    const std::function<void(RankCtx&)>& fn) {
  const int workers =
      util::recommended_workers(threads_per_rank, nranks, clamp) - 1;
  return run_impl(nranks, workers, fn);
}

}  // namespace pkifmm::comm
