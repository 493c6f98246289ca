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

obs::RankMetrics snapshot_with_counters(const RankCtx& ctx) {
  obs::RankMetrics m = ctx.rec.snapshot();
  m.gauges["obs.epoch"] = ctx.rec.epoch();
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
    CostTracker cost(rec);
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
