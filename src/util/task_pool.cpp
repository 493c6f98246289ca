#include "util/task_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace pkifmm::util {

int recommended_workers(int threads_per_rank, int nranks, bool enforce) {
  const int req = std::max(1, threads_per_rank);
  if (!enforce) return req;
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  const int budget =
      std::max(1, static_cast<int>(hw) / std::max(1, nranks));
  if (req <= budget) return req;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "[pkifmm] threads_per_rank=%d x %d rank(s) oversubscribes "
                 "%u hardware thread(s); clamping to %d thread(s) per rank "
                 "(set clamp_threads=false to override)\n",
                 req, nranks, hw, budget);
  }
  return budget;
}

TaskPool::TaskPool(int workers)
    : nworkers_(std::max(0, workers)), epoch_(obs::wall_seconds()) {
  PKIFMM_CHECK(workers >= 0);
  lanes_.reserve(static_cast<std::size_t>(workers) + 1);
  for (int i = 0; i <= workers; ++i)
    lanes_.push_back(std::make_unique<Lane>());
  threads_.reserve(workers);
  for (int w = 1; w <= workers; ++w)
    threads_.emplace_back([this, w] { worker_loop(w); });
}

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void TaskPool::submit(Group& g, std::string name,
                      std::function<void(int)> fn) {
  g.pending_.fetch_add(1, std::memory_order_relaxed);
  Task t{std::move(fn), &g, std::move(name)};
  // Round-robin over the WORKER lanes when there are any, so background
  // tasks start without the caller's help; lane 0 otherwise.
  int lane = 0;
  if (workers() > 0)
    lane = 1 + static_cast<int>(rr_.fetch_add(1, std::memory_order_relaxed) %
                                static_cast<std::uint64_t>(workers()));
  {
    std::lock_guard<std::mutex> lock(lanes_[lane]->mu);
    lanes_[lane]->depth.observe(static_cast<double>(lanes_[lane]->q.size()));
    lanes_[lane]->q.push_back(std::move(t));
  }
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    ready_.fetch_add(1, std::memory_order_relaxed);
  }
  wake_cv_.notify_one();
}

void TaskPool::wait(Group& g) {
  while (!g.done()) {
    Task t;
    if (try_pop(0, t)) {
      run_task(std::move(t), 0);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [&] {
      return g.done() || ready_.load(std::memory_order_relaxed) > 0;
    });
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(g.mu_);
    err = g.error_;
    g.error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void TaskPool::parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, int)>& fn,
    const std::string& name) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  // Inline fast path: no workers means the serial loop, chunked the
  // same way (the chunking never depends on the worker count).
  if (workers() == 0) {
    const double t0 = obs::wall_seconds();
    const double c0 = obs::thread_cpu_seconds();
    for (std::size_t b = 0; b < n; b += grain)
      fn(b, std::min(n, b + grain), 0);
    Lane& me = *lanes_[0];
    std::lock_guard<std::mutex> lock(me.mu);
    me.tasks += (n + grain - 1) / grain;
    me.busy += obs::wall_seconds() - t0;
    Burst burst;
    burst.name = name;
    burst.start = t0;
    burst.end = obs::wall_seconds();
    burst.cpu = obs::thread_cpu_seconds() - c0;
    burst.lane = 0;
    me.bursts.push_back(std::move(burst));
    return;
  }
  Group g;
  for (std::size_t b = 0; b < n; b += grain) {
    const std::size_t e = std::min(n, b + grain);
    submit(g, name, [&fn, b, e](int lane) { fn(b, e, lane); });
  }
  wait(g);
}

bool TaskPool::try_pop(int lane, Task& out) {
  Lane& me = *lanes_[lane];
  {
    std::lock_guard<std::mutex> lock(me.mu);
    if (!me.q.empty()) {
      out = std::move(me.q.back());  // own deque: newest first (locality)
      me.q.pop_back();
      std::lock_guard<std::mutex> wl(wake_mu_);
      ready_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  // Steal oldest-first from the other lanes, scanning from the next
  // lane around the ring so thieves spread out. The victim's lock is
  // released before touching our own lane's stats — two lane mutexes
  // are never held at once (no lane-lane lock-order cycle).
  const int nl = lanes();
  for (int d = 1; d < nl; ++d) {
    const int victim = (lane + d) % nl;
    Lane& v = *lanes_[victim];
    {
      std::lock_guard<std::mutex> lock(v.mu);
      if (v.q.empty()) continue;
      out = std::move(v.q.front());
      v.q.pop_front();
    }
    {
      std::lock_guard<std::mutex> wl(wake_mu_);
      ready_.fetch_sub(1, std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> ml(me.mu);
    ++me.steals;
    return true;
  }
  return false;
}

void TaskPool::run_task(Task&& t, int lane) {
  const double t0 = obs::wall_seconds();
  const double c0 = obs::thread_cpu_seconds();
  std::exception_ptr err;
  try {
    t.fn(lane);
  } catch (...) {
    err = std::current_exception();
  }
  const double t1 = obs::wall_seconds();
  const double c1 = obs::thread_cpu_seconds();
  {
    Lane& me = *lanes_[lane];
    std::lock_guard<std::mutex> lock(me.mu);
    ++me.tasks;
    me.busy += t1 - t0;
    // Coalesce back-to-back tasks of one job into a single burst span
    // so the trace stays small even for fine-grained chunking.
    constexpr double kGapSeconds = 100e-6;
    if (!me.bursts.empty() && me.bursts.back().name == t.name &&
        t0 - me.bursts.back().end < kGapSeconds) {
      me.bursts.back().end = t1;
      me.bursts.back().cpu += c1 - c0;
    } else {
      Burst burst;
      burst.name = t.name;
      burst.start = t0;
      burst.end = t1;
      burst.cpu = c1 - c0;
      burst.lane = lane;
      me.bursts.push_back(std::move(burst));
    }
  }
  finish_task(t.group, err);
}

void TaskPool::finish_task(Group* g, std::exception_ptr err) {
  if (err != nullptr) {
    std::lock_guard<std::mutex> lock(g->mu_);
    if (!g->error_) g->error_ = err;
  }
  if (g->pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last task of the group: wake any waiter. The empty critical
    // section pairs with the waiter's predicate check under wake_mu_.
    { std::lock_guard<std::mutex> lock(wake_mu_); }
    wake_cv_.notify_all();
  }
}

void TaskPool::worker_loop(int lane) {
  for (;;) {
    Task t;
    if (try_pop(lane, t)) {
      run_task(std::move(t), lane);
      continue;
    }
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) ||
             ready_.load(std::memory_order_relaxed) > 0;
    });
    if (stop_.load(std::memory_order_relaxed) &&
        ready_.load(std::memory_order_relaxed) == 0)
      return;
  }
}

void TaskPool::fold_stats(obs::Recorder& rec) {
  const double now = obs::wall_seconds();
  rec.gauge_set("sched.workers", static_cast<double>(workers()));
  rec.counter_add("sched.lifetime_seconds", now - epoch_);
  double tasks = 0.0, steals = 0.0;
  for (int lane = 0; lane < lanes(); ++lane) {
    Lane& l = *lanes_[lane];
    std::lock_guard<std::mutex> lock(l.mu);
    tasks += static_cast<double>(l.tasks);
    steals += static_cast<double>(l.steals);
    rec.counter_add("sched.busy.w" + std::to_string(lane), l.busy);
    for (const Burst& b : l.bursts) {
      if (b.lane == 0) continue;  // rank thread: PhaseTimer spans own it
      obs::SpanEvent e;
      e.name = b.name;
      e.start = b.start - rec.epoch();
      e.wall = b.end - b.start;
      e.cpu = b.cpu;
      e.tid = b.lane;
      rec.record_span(std::move(e));
    }
    rec.histogram("sched.queue_depth")->merge(l.depth);
    l.depth = obs::Histogram();
    l.tasks = 0;
    l.steals = 0;
    l.busy = 0.0;
    l.bursts.clear();
  }
  rec.counter_add("sched.tasks", tasks);
  rec.counter_add("sched.steals", steals);
  epoch_ = now;
}

double TaskPool::busy_overlap(const std::string& name, double w0,
                              double w1) const {
  double total = 0.0;
  for (const auto& lane : lanes_) {
    std::lock_guard<std::mutex> lock(lane->mu);
    for (const Burst& b : lane->bursts) {
      if (b.name != name) continue;
      const double lo = std::max(b.start, w0);
      const double hi = std::min(b.end, w1);
      if (hi > lo) total += hi - lo;
    }
  }
  return total;
}

}  // namespace pkifmm::util
