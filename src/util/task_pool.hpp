#pragma once
/// \file task_pool.hpp
/// \brief Intra-rank work-stealing thread pool (the paper's per-node
/// parallelism, realized on the GPU in §V, here on CPU workers).
///
/// One TaskPool per simulated rank executes the batched evaluation
/// phases of core::Evaluator in parallel and runs the independent
/// U-list (ULI) direct interactions as background tasks overlapped with
/// the far-field pipeline (Algorithm 1's ULI ‖ {VLI, XLI, WLI, D2T}
/// split — see "Data-Driven Execution of Fast Multipole Methods",
/// Ltaief & Yokota, arXiv:1203.0889, for the same restructuring).
///
/// Determinism contract (what makes thread-count-independent results
/// possible, tested by tests/test_eval_threads.cpp):
///  - the decomposition of a parallel_for into chunks depends only on
///    (n, grain) — never on the worker count or on runtime timing;
///  - every chunk writes a disjoint output range and iterates its
///    indices in ascending order, exactly as the serial loop would;
///  - reductions (flop counts) are integer sums, which are associative,
///    so any execution order yields the same total.
/// Under this contract the pool may execute chunks in any order on any
/// number of threads (including zero — inline on the caller) and the
/// outputs are bitwise identical.
///
/// Scheduling: each worker owns a deque (owner pops newest-first,
/// thieves steal oldest-first). submit() distributes tasks round-robin
/// over the worker deques; parallel_for() additionally keeps a share
/// for the calling thread, which participates until its job completes,
/// then helps steal. Workers that run dry scan the other deques, and a
/// steal is counted per task taken from a foreign deque (`sched.steals`
/// after fold_stats). With zero workers everything runs inline at the
/// join points, so a threads_per_rank=1 configuration pays no
/// synchronization cost at all.
///
/// Observability: the pool records per-worker busy time, task and
/// steal counts, queue-depth samples, and coalesced per-task "burst"
/// spans (consecutive tasks of one job on one worker become a single
/// span). fold_stats() publishes them into a rank's obs::Recorder as
/// `sched.*` counters and spans with SpanEvent::tid = worker index + 1
/// (tid 0 stays the rank thread), which the Chrome trace exporter
/// renders as one row per worker.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace pkifmm::util {

/// Clamps a requested per-rank worker-thread count so that
/// `threads_per_rank * nranks` never exceeds the machine's hardware
/// concurrency (simulated-rank threads and pool workers would otherwise
/// thrash each other on CI boxes). Returns the effective count (>= 1)
/// and logs one warning per process when it clamps. Tests that need
/// real interleaving on small machines bypass the guard with
/// `enforce = false` (FmmOptions::clamp_threads).
int recommended_workers(int threads_per_rank, int nranks,
                        bool enforce = true);

class TaskPool {
 public:
  /// Spawns `workers` threads. 0 is valid: the pool degenerates to an
  /// inline executor (tasks run on the calling thread at join points).
  explicit TaskPool(int workers);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Reads an immutable count set before any worker thread starts (the
  /// thread vector itself still grows while early workers already run).
  int workers() const { return nworkers_; }
  /// Lanes = workers + 1: lane 0 is the calling (rank) thread, lanes
  /// 1..workers are pool threads. Per-lane scratch arrays use this.
  int lanes() const { return workers() + 1; }

  /// A handle to a set of enqueued tasks; wait() blocks (helping to
  /// drain the pool) until all of them finished and rethrows the first
  /// exception any task threw.
  class Group {
   public:
    bool done() const { return pending_.load(std::memory_order_acquire) == 0; }

   private:
    friend class TaskPool;
    std::atomic<std::uint64_t> pending_{0};
    std::mutex mu_;
    std::exception_ptr error_;
  };

  /// Enqueues fn to run on some worker (round-robin placement). `name`
  /// labels the burst span. The group tracks completion; call wait(g).
  /// fn is invoked as fn(int lane) with the executing lane id.
  void submit(Group& g, std::string name, std::function<void(int)> fn);

  /// Blocks until every task of g completed, executing queued tasks
  /// (g's or others') on the calling thread while it waits. Rethrows
  /// the first exception thrown by a task of g.
  void wait(Group& g);

  /// Deterministic parallel loop: splits [0, n) into fixed chunks of
  /// `grain` indices (the decomposition depends only on n and grain),
  /// runs fn(begin, end, lane) for every chunk, and blocks until all
  /// chunks completed. The caller participates. Exceptions propagate.
  /// With zero workers this is exactly the serial loop.
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t, int)>&
                        fn,
                    const std::string& name = "par_for");

  /// Publishes the pool's scheduler statistics into a rank recorder:
  ///   sched.workers            worker-thread count (gauge)
  ///   sched.tasks              tasks executed (all lanes)
  ///   sched.steals             tasks taken from a foreign deque
  ///   sched.busy.w<k>          busy seconds of lane k
  ///   sched.lifetime_seconds   seconds since construction / last fold
  ///   sched.queue_depth        histogram of deque depth at submit
  /// and appends the coalesced burst spans of the worker lanes with
  /// tid = lane (lane 0's bursts are NOT re-emitted as spans — the rank
  /// thread's time is already measured by its PhaseTimer spans). All
  /// pool-side state is reset, so consecutive folds cover disjoint
  /// windows and the recorder's counters accumulate the true totals.
  /// Must be called from the owning rank thread with no tasks in
  /// flight.
  void fold_stats(obs::Recorder& rec);

  /// Sum of [start, end) wall-second overlap between every recorded
  /// burst span named `name` and the window [w0, w1) — how much of that
  /// job family actually executed inside the window. Used to measure
  /// ULI ‖ far-field overlap. Spans recorded since the last fold_stats.
  double busy_overlap(const std::string& name, double w0, double w1) const;

 private:
  struct Task {
    std::function<void(int)> fn;
    Group* group;
    std::string name;
  };

  struct Burst {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    double cpu = 0.0;
    int lane = 0;
  };

  /// One lane's deque + stats. Lane 0 (the caller) has a deque too so
  /// parallel_for can keep chunks close to the thread that issued them.
  struct Lane {
    std::mutex mu;
    std::deque<Task> q;
    std::uint64_t tasks = 0;
    std::uint64_t steals = 0;
    double busy = 0.0;
    std::vector<Burst> bursts;
    /// Push-time depth samples of THIS lane's deque, guarded by `mu`
    /// like the deque itself; fold_stats merges the lanes into
    /// sched.queue_depth.
    obs::Histogram depth;
  };

  void worker_loop(int lane);
  /// Pops a task for `lane`: own deque newest-first, then steals
  /// oldest-first from the other lanes. Returns false if all empty.
  bool try_pop(int lane, Task& out);
  void run_task(Task&& t, int lane);
  void finish_task(Group* g, std::exception_ptr err);

  int nworkers_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<std::uint64_t> ready_{0};  ///< tasks enqueued, not started
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> rr_{0};     ///< round-robin submit cursor
  double epoch_;                         ///< fold window start
};

}  // namespace pkifmm::util
