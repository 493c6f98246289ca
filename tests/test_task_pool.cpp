/// Unit tests for util::TaskPool (see the determinism contract in
/// util/task_pool.hpp): parallel_for chunk coverage for any worker
/// count, work stealing, exception propagation, background groups,
/// scheduler-stat folding, and the oversubscription guard.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/task_pool.hpp"

namespace pkifmm::util {
namespace {

TEST(RecommendedWorkers, ClampsToHardwareBudget) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // Within budget: the request passes through.
  EXPECT_EQ(recommended_workers(1, 1), 1);
  // Way past any machine's budget: clamped to >= 1, <= hw.
  const int clamped = recommended_workers(16 * static_cast<int>(hw), 2);
  EXPECT_GE(clamped, 1);
  EXPECT_LE(clamped, static_cast<int>(hw));
  // enforce=false bypasses the guard entirely.
  EXPECT_EQ(recommended_workers(64, 8, /*enforce=*/false), 64);
  // Degenerate requests are raised to one thread.
  EXPECT_EQ(recommended_workers(0, 1, false), 1);
  EXPECT_EQ(recommended_workers(-3, 1), 1);
}

class TaskPoolWorkers : public ::testing::TestWithParam<int> {};

TEST_P(TaskPoolWorkers, ParallelForCoversEveryIndexOnce) {
  TaskPool pool(GetParam());
  EXPECT_EQ(pool.workers(), GetParam());
  EXPECT_EQ(pool.lanes(), GetParam() + 1);

  const std::size_t n = 1013;  // prime: chunks are ragged at the end
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(n, 7, [&](std::size_t b, std::size_t e, int lane) {
    EXPECT_GE(lane, 0);
    EXPECT_LT(lane, pool.lanes());
    EXPECT_LT(b, e);
    EXPECT_LE(e, n);
    // Chunk shape depends only on (n, grain): aligned to the grain.
    EXPECT_EQ(b % 7, 0u);
    EXPECT_TRUE(e == n || e - b == 7);
    for (std::size_t i = b; i < e; ++i)
      hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST_P(TaskPoolWorkers, DisjointRangeSumIsExact) {
  TaskPool pool(GetParam());
  const std::size_t n = 4096;
  std::vector<double> out(n, 0.0);
  pool.parallel_for(n, 64, [&](std::size_t b, std::size_t e, int) {
    for (std::size_t i = b; i < e; ++i) out[i] = static_cast<double>(i) * 0.5;
  });
  double sum = 0.0;
  for (double v : out) sum += v;
  EXPECT_EQ(sum, 0.5 * (n * (n - 1) / 2));
}

TEST_P(TaskPoolWorkers, ExceptionPropagatesFromAnyChunk) {
  TaskPool pool(GetParam());
  EXPECT_THROW(
      pool.parallel_for(100, 3,
                        [&](std::size_t b, std::size_t, int) {
                          if (b == 42) throw std::runtime_error("chunk 42");
                        }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> ran{0};
  pool.parallel_for(10, 1, [&](std::size_t, std::size_t, int) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 10);
}

TEST_P(TaskPoolWorkers, BackgroundGroupJoinsWithSubmittedWork) {
  TaskPool pool(GetParam());
  TaskPool::Group g;
  std::atomic<int> done{0};
  for (int t = 0; t < 32; ++t)
    pool.submit(g, "bg", [&](int) { done.fetch_add(1); });
  // Foreground work interleaves with the background group.
  pool.parallel_for(64, 4, [](std::size_t, std::size_t, int) {});
  pool.wait(g);
  EXPECT_EQ(done.load(), 32);
  EXPECT_TRUE(g.done());
}

TEST_P(TaskPoolWorkers, FoldStatsPublishesAndResets) {
  obs::Recorder rec(0);
  TaskPool pool(GetParam());
  pool.parallel_for(256, 8, [](std::size_t, std::size_t, int) {});
  pool.fold_stats(rec);
  EXPECT_EQ(rec.metrics().gauges.at("sched.workers"), GetParam());
  EXPECT_EQ(rec.counter("sched.tasks"), 256 / 8);
  EXPECT_GT(rec.counter("sched.lifetime_seconds"), 0.0);
  // Worker-lane bursts became spans with tid = lane; lane 0 never does.
  for (const obs::SpanEvent& e : rec.metrics().spans) {
    EXPECT_GE(e.tid, 1);
    EXPECT_LE(e.tid, pool.workers());
    EXPECT_EQ(e.name, "par_for");
  }
  // A second fold right away covers an empty window.
  obs::Recorder rec2(0);
  pool.fold_stats(rec2);
  EXPECT_EQ(rec2.counter("sched.tasks"), 0.0);
  EXPECT_EQ(rec2.metrics().spans.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, TaskPoolWorkers,
                         ::testing::Values(0, 1, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST(TaskPool, StealingMovesQueuedWorkAcrossLanes) {
  // Force a steal deterministically with one worker: H keeps the
  // worker busy until B and A are both queued on its deque; the worker
  // then pops A (owner pops newest-first), which spins until `flag` —
  // and only the setter task B, sitting at the FRONT of the worker's
  // deque, can set it. The caller's wait() must steal B to make
  // progress, so sched.steals >= 1 or the test would hang.
  TaskPool pool(1);
  std::atomic<bool> queued{false}, flag{false};
  TaskPool::Group g;
  pool.submit(g, "steal", [&](int) {  // H: parks the worker
    while (!queued.load(std::memory_order_relaxed)) std::this_thread::yield();
  });
  pool.submit(g, "steal", [&](int) {  // B: the steal target
    flag.store(true, std::memory_order_relaxed);
  });
  pool.submit(g, "steal", [&](int) {  // A: popped by the worker first
    while (!flag.load(std::memory_order_relaxed)) std::this_thread::yield();
  });
  queued.store(true, std::memory_order_relaxed);
  pool.wait(g);
  obs::Recorder rec(0);
  pool.fold_stats(rec);
  EXPECT_EQ(rec.counter("sched.tasks"), 3.0);
  EXPECT_GE(rec.counter("sched.steals"), 1.0);
}

TEST(TaskPool, BusyOverlapMeasuresNamedBurstsInWindow) {
  TaskPool pool(1);
  const double w0 = obs::wall_seconds();
  TaskPool::Group g;
  pool.submit(g, "uli", [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  pool.wait(g);
  const double w1 = obs::wall_seconds();
  const double busy = pool.busy_overlap("uli", w0, w1);
  EXPECT_GT(busy, 0.010);
  EXPECT_LE(busy, w1 - w0 + 1e-9);
  EXPECT_EQ(pool.busy_overlap("other", w0, w1), 0.0);
}

TEST(TaskPool, ZeroWorkersRunsInlineDeterministically) {
  // The inline executor and a 2-worker pool must produce identical
  // chunk decompositions (the contract behind thread-count-invariant
  // results).
  auto chunks_of = [](int workers) {
    TaskPool pool(workers);
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> chunks;
    pool.parallel_for(777, 13, [&](std::size_t b, std::size_t e, int) {
      std::lock_guard<std::mutex> lock(mu);
      chunks.emplace(b, e);
    });
    return chunks;
  };
  EXPECT_EQ(chunks_of(0), chunks_of(2));
}

}  // namespace
}  // namespace pkifmm::util
