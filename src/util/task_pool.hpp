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
///
/// TaskGraph (below) layers dependency-counted task nodes on top of the
/// same deques: nodes carry an atomic remaining-dependency counter and
/// a successor list, and enqueue into the pool the instant the counter
/// hits zero ("ready-on-zero"). No library code builds one:
/// core::Evaluator runs its phases in order over parallel_for, because
/// a task-graph schedule of the same chunks showed no wall-clock gain
/// on any benchmark workload (DESIGN.md §5d). TaskGraph stays, with its
/// tests and bench/micro cases, for a future data-driven schedule.

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

class TaskGraph;

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
  friend class TaskGraph;

  struct Task {
    std::function<void(int)> fn;
    Group* group;  ///< null for TaskGraph nodes (they track their own)
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
    /// like the deque itself (TaskGraph releases call push_task from
    /// worker threads concurrently, so a pool-wide histogram would
    /// race); fold_stats merges the lanes into sched.queue_depth.
    obs::Histogram depth;
  };

  void worker_loop(int lane);
  /// Pops a task for `lane`: own deque newest-first, then steals
  /// oldest-first from the other lanes. Returns false if all empty.
  bool try_pop(int lane, Task& out);
  void run_task(Task&& t, int lane);
  void finish_task(Group* g, std::exception_ptr err);
  /// Round-robins `t` onto a worker deque (lane 0 with no workers) and
  /// wakes one sleeper. Shared by submit() and TaskGraph enqueues.
  void push_task(Task t);

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

/// A dependency-counted task DAG executed on a TaskPool.
///
/// Build phase (single-threaded, before launch()): create nodes with
/// node()/event(), wire edges with edge(pred, succ), and declare
/// external dependencies (satisfied later by signal()) with
/// external(). A *task node* carries a function that runs on some lane
/// when all its dependencies completed; an *event node* carries no
/// work — it completes inline on whichever thread releases its last
/// dependency, and exists to fan dependencies in/out cheaply.
///
/// Run phase: launch() arms the graph — every node whose dependency
/// count is already zero becomes ready and enqueues into the pool's
/// work-stealing deques (ready-on-zero; LIFO per lane, steals
/// oldest-first, exactly the TaskPool policy). signal(id) releases one
/// external dependency of `id` and is safe from any thread, before or
/// after launch (nothing fires until launch() drops the built-in
/// launch guard). wait()/wait_node() block on the calling thread,
/// helping to drain the pool while they wait, and wait() rethrows the
/// first exception any node threw once the graph drained.
///
/// Determinism: the graph adds *ordering*, never arithmetic — a
/// correct edge set makes every task's inputs final before it runs,
/// and the tasks themselves follow the TaskPool determinism contract
/// (fixed chunking, disjoint writes, ascending iteration). Completion
/// order may vary freely; outputs may not.
///
/// Observability (fold_stats): `sched.dag.*` counters — node/edge/
/// signal totals, ready-queue depth sum/samples/peak, dependency-
/// release latency (ready -> start) totals and max, and per phase
/// `sched.dag.phase.<ph>.{busy_seconds,tasks,release_wait_seconds,
/// overlap_seconds}` where overlap_seconds is the wall time phase
/// `<ph>`'s task intervals spent overlapped with ANY other phase's —
/// the attribution that shows which phases actually ran concurrently.
class TaskGraph {
 public:
  using NodeId = std::int32_t;
  static constexpr NodeId kNone = -1;

  /// `name` labels the graph in logs/metrics. The pool must outlive
  /// the graph.
  TaskGraph(TaskPool& pool, std::string name);
  /// Waits for a launched graph to drain (swallowing task errors —
  /// call wait() yourself to observe them). Callers must have
  /// delivered every declared external() signal before destruction.
  ~TaskGraph();

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a task node. `phase` groups its scheduler statistics and
  /// names its burst span; fn(lane) runs once all dependencies
  /// completed. Build-phase only.
  NodeId node(std::string phase, std::function<void(int)> fn);
  /// Adds an event node (no work; completes inline on release).
  NodeId event(std::string phase);
  /// Declares that `succ` cannot start before `pred` completed.
  /// Build-phase only.
  void edge(NodeId pred, NodeId succ);
  /// Adds `count` external dependencies to `succ`, each satisfied by
  /// one later signal(succ). Build-phase only.
  void external(NodeId succ, int count = 1);
  /// Releases one external dependency of `id`. Thread-safe; callable
  /// before or after launch(). The caller must not signal more times
  /// than external() declared.
  void signal(NodeId id);

  /// Arms the graph: dependency-free nodes become ready immediately.
  /// Exactly once; build methods are invalid afterwards.
  void launch();
  /// Blocks until `id` completed, executing queued tasks on the
  /// calling thread while waiting. The node must not be gated on an
  /// external signal the caller has yet to send (deadlock).
  void wait_node(NodeId id);
  /// Blocks until every node completed (helping like wait_node), then
  /// rethrows the first exception any task threw.
  void wait();
  /// True once `id` completed. Acquire-ordered: a true result makes
  /// the node's writes visible.
  bool completed(NodeId id) const;

  std::size_t nodes() const { return graph_nodes_.size(); }
  std::size_t edges() const { return nedges_; }

  /// Publishes the `sched.dag.*` statistics described above and
  /// resets them. Call after wait(), from the owning rank thread.
  void fold_stats(obs::Recorder& rec);

 private:
  struct Node {
    std::function<void(int)> fn;  ///< null => event node
    std::vector<NodeId> succ;
    std::atomic<int> pending{1};  ///< +1 launch guard, dropped by launch()
    std::atomic<bool> done{false};
    double ready_t = 0.0;  ///< when pending hit zero (task nodes)
    std::int32_t phase = 0;
  };
  struct PhaseStat {
    std::string name;
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> release_wait_ns{0};
    std::atomic<std::uint64_t> tasks{0};
  };
  /// One executed task interval, recorded lane-privately for the
  /// fold-time per-phase overlap computation.
  struct Interval {
    std::int32_t phase;
    double t0, t1;
  };

  std::int32_t phase_id(const std::string& phase);
  void release_dep(NodeId id);  ///< one dependency of id completed
  void enqueue(NodeId id);      ///< pending hit zero on a task node
  void run_node(NodeId id, int lane);
  void complete(NodeId id);     ///< mark done, release successors

  TaskPool& pool_;
  std::string name_;
  std::vector<std::unique_ptr<Node>> graph_nodes_;
  std::vector<std::unique_ptr<PhaseStat>> phases_;
  std::vector<std::vector<Interval>> lane_intervals_;
  std::size_t nedges_ = 0;
  bool launched_ = false;
  std::atomic<std::int64_t> remaining_{0};  ///< nodes not yet completed
  std::atomic<std::int64_t> ready_now_{0};  ///< enqueued, not started
  std::atomic<std::int64_t> ready_depth_sum_{0};
  std::atomic<std::int64_t> ready_depth_samples_{0};
  std::atomic<std::int64_t> ready_depth_peak_{0};
  std::atomic<std::uint64_t> signals_{0};
  std::atomic<std::uint64_t> release_wait_max_ns_{0};
  std::atomic<int> watchers_{0};  ///< wait_node callers needing wakeups
  std::mutex err_mu_;
  std::exception_ptr error_;
};

}  // namespace pkifmm::util
