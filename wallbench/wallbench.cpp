/// \file wallbench.cpp
/// \brief Wall-clock benchmark of pkifmm: one closed-loop workload per
/// invocation, end-to-end metrics from an untraced run, or the
/// per-layer breakdown from a traced run.
///
///   wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Untraced (--trace 0): episodes run for --seconds, each on a fresh
/// runtime: two set-ups (Tables construction + collective
/// ParallelFmm::setup()), the last one followed by the first evaluate(),
/// then a fixed number of closed-loop iterations. The process's first
/// set-up and evaluate are a discarded warm-up. Every wall time runs
/// barrier to barrier across ranks. Every call's potentials are checked
/// for finite values and against direct summation on a seeded target
/// sample.
///
/// Traced (--trace 1): the set-up pipeline is re-run from the octree
/// module's public functions and each evaluate() is re-run from
/// core::Evaluator's public phase methods, with spans recorded here
/// (trace.hpp) around each call and a barrier after each phase. Every
/// iteration also runs the untraced ParallelFmm::evaluate() on the same
/// state, compares the two potentials, and reads the exact counters the
/// library keeps (flops, msgs, bytes, obs.gather, setup.incr.*, sched.*,
/// mem.*). A 1 rank x 1 thread evaluate() and single-core micro-calls
/// (FFT, frequency MAC, GEMM, direct kernel) complete the breakdown.
///
/// The last stdout line is one JSON object: {"correct", "attempted",
/// "failed", "metrics"}. Errors print to stderr and exit nonzero
/// without that line.

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "comm/comm.hpp"
#include "core/direct.hpp"
#include "core/evaluator.hpp"
#include "core/fmm.hpp"
#include "core/tables.hpp"
#include "core/timestep.hpp"
#include "fft/fft.hpp"
#include "kernels/kernel.hpp"
#include "la/matrix.hpp"
#include "obs/aggregate.hpp"
#include "obs/hw.hpp"
#include "octree/build.hpp"
#include "octree/let.hpp"
#include "octree/partition.hpp"
#include "octree/points.hpp"
#include "simd/simd.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace wallbench {
namespace {

using namespace pkifmm;

// ---------------------------------------------------------------------------
// Workloads (see README.md for why each one exists)

struct Workload {
  const char* name;
  const char* kernel;
  octree::Distribution dist;
  std::uint64_t n;
  int surface_n;
  int q;
  int ranks;
  int threads;    ///< per rank
  bool timestep;  ///< TimeStepper::step() instead of set_densities()
  double err_bound;
  int episode_iters;  ///< closed-loop iterations per untraced episode
};

const Workload kWorkloads[] = {
    {"uniform_farfield", "laplace", octree::Distribution::kUniform, 100000, 6,
     60, 4, 1, false, 1e-4, 3},
    {"ellipsoid_nearfield", "stokes", octree::Distribution::kEllipsoid, 200000,
     4, 600, 4, 1, false, 5e-3, 6},
    {"timestep_churn", "laplace", octree::Distribution::kEllipsoid, 200000, 4,
     100, 2, 2, true, 5e-3, 6},
};

// An untraced run is cut into episodes, each on a fresh comm::Runtime:
// kEpisodeSetups set-ups, the last one followed by the first evaluate(),
// then the workload's episode_iters closed-loop iterations. At least
// kMinEpisodes run; another one starts only if, as long as the last one,
// it ends within --seconds of the run's start. Medians are thus over
// whole episodes, whose iterations are alike. A fresh runtime starts
// with an empty obs::Recorder; evaluate()'s obs.gather ships every span
// the rank has recorded so far, so without episodes each iteration would
// be slower than the one before (~10 ms per step on timestep_churn,
// whose task pool records ~190 spans a step) and a run's medians would
// depend on how many iterations the host let it make.
constexpr int kEpisodeSetups = 2;
constexpr int kMinEpisodes = 3;
constexpr int kMinLoopIters = 3;  ///< traced-run iterations at least run
constexpr std::size_t kSampleTargets = 256;  ///< rel_err target sample
constexpr double kTraceParityBound = 1e-12;
constexpr double kMiB = 1024.0 * 1024.0;

/// timestep_churn: the swirl of bench/timestep.cpp — rotation about the
/// ellipsoid's long (z) axis plus a small z drift.
const core::VelocityFn kSwirl = [](std::uint64_t, const std::array<double, 3>& x,
                                   double) {
  return std::array<double, 3>{-(x[1] - 0.5), x[0] - 0.5, 0.3 * (x[0] - 0.5)};
};

core::FmmOptions workload_options(const Workload& w) {
  core::FmmOptions o;
  o.surface_n = w.surface_n;
  o.max_points_per_leaf = w.q;
  o.threads_per_rank = w.threads;
  return o;
}

core::TimeStepOptions step_options() {
  core::TimeStepOptions t;
  t.dt = 0.02;
  t.move_fraction = 0.1;
  return t;
}

// ---------------------------------------------------------------------------
// Arguments

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

template <class T>
T parse_number(const std::string& flag, const std::string& text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc() || p != end)
    throw std::invalid_argument("malformed value '" + text + "' for " + flag);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads)
        if (val == w.name) a.w = &w;
      if (a.w == nullptr)
        throw std::invalid_argument("unknown workload '" + val + "'");
    } else if (flag == "--seed") {
      a.seed = parse_number<std::uint64_t>(flag, val);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = parse_number<int>(flag, val);
      if (a.seconds < 1 || a.seconds > 3600)
        throw std::invalid_argument("--seconds must be in [1, 3600]");
    } else if (flag == "--trace") {
      a.trace = parse_number<int>(flag, val);
      if (a.trace != 0 && a.trace != 1)
        throw std::invalid_argument("--trace must be 0 or 1");
    } else {
      throw std::invalid_argument("unknown argument '" + flag + "'");
    }
  }
  if (a.w == nullptr || !have_seed || a.seconds == 0 || a.trace < 0)
    throw std::invalid_argument(
        "usage: wallbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  return a;
}

// ---------------------------------------------------------------------------
// Small helpers

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Barrier whose messages are charged to the "bench" comm phase, so the
/// program's own per-phase counters stay exact.
void sync(comm::RankCtx& ctx) {
  ctx.comm.cost().set_phase("bench");
  ctx.comm.barrier();
}

/// Collective loop control: rank 0's decision wins on every rank.
bool keep_going(comm::RankCtx& ctx, bool mine) {
  ctx.comm.cost().set_phase("bench");
  const int flag = (ctx.rank() == 0 && mine) ? 1 : 0;
  return ctx.comm.allreduce_max(flag) != 0;
}

/// Bytes this rank sent outside the benchmark's own "bench" phase.
double sent_bytes(comm::RankCtx& ctx) {
  double b = 0.0;
  for (const auto& [phase, c] : ctx.comm.cost().phases())
    if (phase != "bench") b += static_cast<double>(c.bytes_sent);
  return b;
}

double gauge(const comm::RankCtx& ctx, const std::string& name) {
  const auto& g = ctx.rec.metrics().gauges;
  const auto it = g.find(name);
  return it == g.end() ? 0.0 : it->second;
}

/// Deterministic per-(seed, gid, step, component) density in [-1, 1).
double density_value(std::uint64_t seed, std::uint64_t gid, int step, int c) {
  SplitMix64 a(seed ^ 0x6a09e667f3bcc909ULL);
  SplitMix64 b(a.next() + gid * 8 + static_cast<std::uint64_t>(c) +
               (static_cast<std::uint64_t>(step) << 44));
  return -1.0 + 2.0 * static_cast<double>(b.next() >> 11) * 0x1.0p-53;
}

/// Point-cloud seed of an untraced run's episode. Episode 0 uses the run's
/// seed (the cloud the traced run sets up); later episodes draw their own
/// clouds from it, so a run's medians span several trees rather than the
/// one its seed happens to give (a tree's shape alone moves a timestep
/// step by ~5%).
std::uint64_t episode_seed(std::uint64_t seed, int ep) {
  if (ep == 0) return seed;
  SplitMix64 m(seed ^ 0x3c6ef372fe94f82bULL);
  return m.next() + static_cast<std::uint64_t>(ep);
}

std::vector<double> step_densities(const std::vector<std::uint64_t>& gids,
                                   int sd, std::uint64_t seed, int step) {
  std::vector<double> den(gids.size() * sd);
  for (std::size_t i = 0; i < gids.size(); ++i)
    for (int c = 0; c < sd; ++c)
      den[i * sd + c] = density_value(seed, gids[i], step, c);
  return den;
}

/// Calls f(point, its index in the LET's point arrays) for every owned
/// evaluation target, in the order ParallelFmm::evaluate() returns them.
/// Every generated point is both source and target, so these are also
/// all of the rank's source points.
template <class F>
void for_owned_targets(const octree::Let& let, F&& f) {
  for (const octree::LetNode& node : let.nodes) {
    if (!(node.owned && node.global_leaf)) continue;
    const auto pts = let.points_of(node);
    for (std::size_t k = 0; k < node.target_count; ++k)
      f(pts[k], node.point_begin + k);
  }
}

/// Runs fn on w.ranks simulated ranks, with a per-rank task pool of
/// w.threads lanes when the workload is threaded.
std::vector<comm::RankReport> run_ranks(
    const Workload& w, const std::function<void(comm::RankCtx&)>& fn) {
  if (w.threads > 1) return comm::Runtime::run(w.ranks, w.threads, true, fn);
  return comm::Runtime::run(w.ranks, fn);
}

// ---------------------------------------------------------------------------
// Correctness: finite potentials and sampled error vs direct summation

struct Check {
  bool finite = true;
  double err2 = 0.0, ref2 = 0.0;  ///< squared L2 norms over the sample
  double rel_err() const {
    return ref2 > 0.0 ? std::sqrt(err2 / ref2)
                      : std::numeric_limits<double>::infinity();
  }
  bool ok(double bound) const { return finite && rel_err() <= bound; }
};

/// One per rank: every rank draws the same per-call target sample.
class Checker {
 public:
  Checker(const Workload& w, std::uint64_t seed) : n_(w.n), seed_(seed) {}

  /// Collective. Compares the FMM potentials of a seeded target sample
  /// (a fresh one per call) with core::direct_local over every point of
  /// every rank (the summation core::direct_reference performs,
  /// restricted to the sample).
  Check check(comm::RankCtx& ctx, const kernels::Kernel& kernel,
              const octree::Let& let, const core::ParallelFmm::Result& res) {
    std::unordered_set<std::uint64_t> sample;
    Rng rng(seed_ ^ 0xbb67ae8584caa73bULL, calls_++);
    while (sample.size() < std::min<std::size_t>(kSampleTargets, n_))
      sample.insert(rng.uniform_u64(n_));
    const int td = kernel.target_dim();
    double bad = 0.0;
    for (double v : res.potentials)
      if (!std::isfinite(v)) bad += 1.0;

    std::vector<octree::PointRec> mine, targets;
    std::vector<double> fmm;
    for_owned_targets(let, [&](const octree::PointRec& p, std::size_t) {
      const std::size_t idx = mine.size();
      if (idx >= res.gids.size() || res.gids[idx] != p.gid)
        throw std::runtime_error("evaluate() result order differs from LET");
      if (sample.count(p.gid)) {
        targets.push_back(p);
        for (int c = 0; c < td; ++c)
          fmm.push_back(res.potentials[idx * td + c]);
      }
      mine.push_back(p);
    });
    if (mine.size() != res.gids.size())
      throw std::runtime_error("evaluate() returned extra targets");

    ctx.comm.cost().set_phase("bench");
    const auto all =
        ctx.comm.allgatherv_concat(std::span<const octree::PointRec>(mine));
    const std::vector<double> ref = core::direct_local(kernel, targets, all);
    double s[3] = {0.0, 0.0, bad};
    for (std::size_t i = 0; i < ref.size(); ++i) {
      s[0] += (fmm[i] - ref[i]) * (fmm[i] - ref[i]);
      s[1] += ref[i] * ref[i];
    }
    const auto tot = ctx.comm.allreduce(
        std::span<const double>(s, 3), [](double x, double y) { return x + y; });
    return {tot[2] == 0.0, tot[0], tot[1]};
  }

 private:
  std::uint64_t n_, seed_;
  int calls_ = 0;
};

// ---------------------------------------------------------------------------
// Result output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples;  ///< values the reported median/aggregate is over
};

/// Calls checked on rank 0 and their sampled errors.
struct Calls {
  int attempted = 0;
  int failed = 0;
  std::vector<double> rel_err;

  void record(double err, bool ok) {
    ++attempted;
    rel_err.push_back(err);
    if (!ok) ++failed;
  }
};

void print_result(const std::vector<Metric>& ms, const Calls& calls) {
  const int attempted = calls.attempted, failed = calls.failed;
  for (const Metric& m : ms)
    std::printf("%-32s %-14.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  std::printf("%-32s %-14.6g %-8s (n=%zu)\n", "rel_err", median(calls.rel_err),
              "1", calls.rel_err.size());
  std::printf("%-32s %-14.6g %-8s (%d of %d calls)\n", "fail_frac",
              attempted > 0 ? double(failed) / attempted : 0.0, "1", failed,
              attempted);
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(ms[i].value) ? ms[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    json += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics

std::vector<Metric> run_untraced(const Workload& w,
                                 const kernels::Kernel& kernel,
                                 const Args& a, Calls& calls) {
  const core::FmmOptions opts = workload_options(w);
  const int sd = kernel.source_dim();
  // Written by rank 0 between barriers: the current instance's Tables.
  std::unique_ptr<core::Tables> tables;
  // Kept across episodes so every call draws a fresh target sample.
  std::vector<Checker> checkers(w.ranks, Checker(w, a.seed));
  std::vector<double> setup, first, eval, cpu, step;
  double peak_rss = 0.0;  // after the first episode
  int iter = 0;  // loop iterations over all episodes: seeds the densities

  const double run0 = now_s();
  double episode_s = 0.0;  // the last episode's wall
  for (int ep = 0;
       ep < kMinEpisodes || now_s() - run0 + episode_s <= a.seconds; ++ep) {
    const double e0 = now_s();
    run_ranks(w, [&](comm::RankCtx& ctx) {
      const bool root = ctx.rank() == 0;
      Checker& checker = checkers[ctx.rank()];
      std::unique_ptr<core::ParallelFmm> fmm;
      core::ParallelFmm::Result res;

      // Set-ups on fresh Tables; the last one's instance is evaluated
      // and runs the loop. A process's first set-up and evaluate are ~2x
      // slower than later ones: the first episode starts with one more
      // set-up and evaluate, discarded.
      const int setups = kEpisodeSetups + (ep == 0 ? 1 : 0);
      for (int rep = 0; rep < setups; ++rep) {
        const bool warm_up = ep == 0 && rep == 0;
        auto pts = octree::generate_points(w.dist, w.n, ctx.rank(), w.ranks,
                                           sd, episode_seed(a.seed, ep));
        fmm.reset();
        sync(ctx);
        if (root) tables.reset();
        sync(ctx);
        const double t0 = now_s();
        if (root) tables = std::make_unique<core::Tables>(kernel, opts);
        sync(ctx);
        fmm = std::make_unique<core::ParallelFmm>(ctx, *tables);
        fmm->setup(std::move(pts));
        sync(ctx);
        const double t1 = now_s();
        if (root && !warm_up) setup.push_back(t1 - t0);
        if (!warm_up && rep < setups - 1) continue;
        res = fmm->evaluate();
        sync(ctx);
        const double t2 = now_s();
        const Check c = checker.check(ctx, kernel, fmm->let(), res);
        if (root) {
          calls.record(c.rel_err(), c.ok(w.err_bound));
          if (!warm_up) first.push_back(t2 - t1);
        }
      }

      const std::vector<std::uint64_t> gids = res.gids;
      std::unique_ptr<core::TimeStepper> ts;
      if (w.timestep)
        ts = std::make_unique<core::TimeStepper>(*fmm, kSwirl, step_options());
      for (int i = 1; i <= w.episode_iters; ++i) {
        std::vector<double> den;
        if (!w.timestep) den = step_densities(gids, sd, a.seed, iter + i);
        sync(ctx);
        const double s0 = now_s();
        if (ts)
          ts->step();
        else
          fmm->set_densities(gids, den);
        sync(ctx);
        const double t0 = now_s();
        const double c0 = process_cpu_s();
        res = fmm->evaluate();
        sync(ctx);
        const double t1 = now_s();
        const double c1 = process_cpu_s();
        if (root) {
          eval.push_back(t1 - t0);
          cpu.push_back(c1 - c0);
          step.push_back(t1 - s0);
        }
        const Check c = checker.check(ctx, kernel, fmm->let(), res);
        if (root) calls.record(c.rel_err(), c.ok(w.err_bound));
      }
      ts.reset();
      fmm.reset();
      sync(ctx);
      if (root) tables.reset();
    });
    // Every run has the same first episode; the peak of later ones
    // would grow with their number. Freed pages go back to the system,
    // so every episode starts from the same resident set.
    if (ep == 0) peak_rss = static_cast<double>(obs::peak_rss_bytes()) / kMiB;
    malloc_trim(0);
    iter += w.episode_iters;
    episode_s = now_s() - e0;
  }

  const auto print_samples = [](const char* name, const std::vector<double>& v) {
    std::printf("samples %s:", name);
    for (double x : v) std::printf(" %.4g", x);
    std::printf("\n");
  };
  print_samples("setup_s", setup);
  print_samples("eval_s", eval);
  print_samples("eval_cpu_s", cpu);
  print_samples("step_s", step);
  print_samples("rel_err", calls.rel_err);
  return {
      {"setup_s", median(setup), "s", setup.size()},
      {"first_eval_s", median(first), "s", first.size()},
      {"eval_s", median(eval), "s", eval.size()},
      {"eval_cpu_s", median(cpu), "s", cpu.size()},
      {"step_s", median(step), "s", step.size()},
      {"peak_rss_mib", peak_rss, "MiB", 1},
      // Accuracy on a log scale: the error varies by seed multiplicatively
      // (~+-25% on timestep_churn), which a share-of-median bound on the
      // error itself cannot absorb, but a bound on digits can.
      {"rel_err_digits", -std::log10(median(calls.rel_err)), "digits",
       calls.rel_err.size()},
  };
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics

const char* const kPhases[] = {"s2u", "u2u",  "reduce", "vli", "xli",
                               "down", "wli", "d2t",    "uli"};

/// Spans of the traced evaluate in which a rank computes on its own. The
/// rest (ghost refresh, reduce, obs.gather, the barriers) exchange data
/// and so wait for the slowest rank.
const char* const kLocalSpans[] = {
    "core.evaluator_init", "core.s2u", "core.u2u", "core.vli",   "core.xli",
    "core.down",           "core.wli", "core.d2t", "core.uli", "core.result"};

/// One loop iteration of one rank in the traced run.
struct RankIter {
  std::map<std::string, double> flops;  ///< per phase, traced evaluate
  double eval_msgs = 0.0, eval_bytes = 0.0, reduce_bytes = 0.0;
  double gather_s = 0.0, gather_bytes = 0.0;
  double busy = 0.0, capacity = 0.0, steals = 0.0;
  double uli_busy = 0.0, uli_overlap = 0.0;
  double update_bytes = 0.0, upd_tree = 0.0, upd_let = 0.0, upd_bal = 0.0;
  double dirty = 0.0, lists_rebuilt = 0.0, migrated = 0.0;
  double vli_buf = 0.0, let_bytes = 0.0;
};

struct RankTrace {
  Tracer tr;
  std::vector<RankIter> iters;
  double setup_bytes = 0.0, leaves = 0.0, levels = 0.0, ghosts = 0.0;
};

/// The body of ParallelFmm::evaluate() re-run from public functions with
/// a span around each call and a barrier ("comm.wait") after each phase.
/// Returns the owned targets' potentials in evaluate() order.
std::vector<double> traced_evaluate(comm::RankCtx& ctx,
                                    const core::Tables& tables,
                                    octree::Let& let, Tracer& tr,
                                    RankIter& ri) {
  const auto wait = [&] {
    auto s = tr.scope("comm.wait");
    sync(ctx);
  };
  auto root = tr.scope("eval");
  {
    auto s = tr.scope("octree.ghost_refresh");
    ctx.comm.cost().set_phase("eval.comm");
    octree::refresh_ghost_densities(ctx.comm, let);
  }
  wait();
  std::unique_ptr<core::Evaluator> ev;
  {
    auto s = tr.scope("core.evaluator_init");
    ev = std::make_unique<core::Evaluator>(tables, let, ctx);
  }
  wait();
  const std::function<void()> calls[] = {
      [&] { ev->s2u(); },         [&] { ev->u2u(); },
      [&] { ev->comm_reduce(); }, [&] { ev->vli(); },
      [&] { ev->xli(); },         [&] { ev->downward(); },
      [&] { ev->wli(); },         [&] { ev->d2t(); },
      [&] { ev->uli(); }};
  for (std::size_t i = 0; i < std::size(kPhases); ++i) {
    const std::string name = kPhases[i];
    const std::string flop_phase = "eval." + name;
    const double f0 = static_cast<double>(ctx.flops.get(flop_phase));
    const double b0 =
        static_cast<double>(ctx.comm.cost().get("eval.comm").bytes_sent);
    {
      auto s = tr.scope("core." + name);
      calls[i]();
    }
    ri.flops[name] += static_cast<double>(ctx.flops.get(flop_phase)) - f0;
    if (name == "reduce")
      ri.reduce_bytes +=
          static_cast<double>(ctx.comm.cost().get("eval.comm").bytes_sent) - b0;
    wait();
  }
  std::vector<double> out;
  {
    auto s = tr.scope("core.result");
    const int td = tables.tdim();
    const auto f = ev->potential();
    for_owned_targets(let, [&](const octree::PointRec&, std::size_t i) {
      for (int c = 0; c < td; ++c) out.push_back(f[i * td + c]);
    });
    ev.reset();
  }
  {
    auto s = tr.scope("obs.gather");
    ctx.comm.cost().set_phase("obs.gather");
    const obs::RankMetrics mine = comm::snapshot_with_counters(ctx);
    (void)obs::summarize_metrics(obs::gather_metrics(ctx.comm, mine));
  }
  return out;
}

/// Median over single-core calls of f, each batch at least ~2 ms.
template <class F>
double median_call_s(F&& f, double budget_s) {
  int reps = 1;
  for (;;) {
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) f();
    if (now_s() - t0 > 2e-3 || reps >= (1 << 20)) break;
    reps *= 2;
  }
  std::vector<double> per_call;
  const double start = now_s();
  while (per_call.size() < 5 || now_s() - start < budget_s) {
    const double t0 = now_s();
    for (int i = 0; i < reps; ++i) f();
    per_call.push_back((now_s() - t0) / reps);
  }
  return median(per_call);
}

/// Single-core micro-calls at the workload's shapes; bytes are computed
/// from the operand sizes, not measured.
void micro_calls(const Workload& w, const kernels::Kernel& kernel,
                 const core::Tables& tables, std::map<std::string, double>& m) {
  Rng rng(0x3c6ef372fe94f82bULL);
  constexpr double kBudget = 0.25;

  // Fft3d::forward on the Tables grid (a copy restores the input; its
  // cost is measured alone and subtracted).
  const std::size_t vol = tables.fft_volume();
  std::vector<fft::Complex> pristine(vol), work(vol);
  for (auto& z : pristine) z = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const double copy_s =
      median_call_s([&] { std::copy(pristine.begin(), pristine.end(),
                                    work.begin()); },
                    kBudget);
  const double fwd_s = median_call_s(
      [&] {
        std::copy(pristine.begin(), pristine.end(), work.begin());
        tables.fft().forward(work);
      },
      kBudget);
  m["fft.fwd_s"] = std::max(fwd_s - copy_s, 0.0);

  // Chunk-major frequency MAC: one 16-frequency chunk, 4096 entries over
  // 1024 source and 1024 target slot components (the V-list sweep's
  // inner call).
  {
    constexpr std::size_t c = 16, slots = 1024, entries = 4096;
    std::vector<fft::Complex> g(c), f(slots * c), acc(slots * c);
    for (auto& z : g) z = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (auto& z : f) z = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    std::vector<std::int32_t> fidx(entries), aidx(entries);
    for (std::size_t e = 0; e < entries; ++e) {
      fidx[e] = static_cast<std::int32_t>(rng.uniform_u64(slots));
      aidx[e] = static_cast<std::int32_t>(rng.uniform_u64(slots));
    }
    const double t = median_call_s(
        [&] {
          fft::pointwise_mac_chunked(g.data(), c, f.data(), acc.data(), fidx,
                                     aidx);
        },
        kBudget);
    const double flops = 8.0 * c * entries;
    const double bytes = 16.0 * c + entries * c * (16.0 + 32.0);
    m["fft.mac_gflops"] = flops / t / 1e9;
    m["fft.mac_flops_per_byte"] = flops / bytes;
  }

  // gemm_acc at the U2U batch shape: the child-to-parent operator over a
  // batch of 512 octants.
  {
    const la::Matrix& op = (*tables.at(0).m2m)[0];
    constexpr std::size_t ncols = 512;
    std::vector<double> b(op.cols() * ncols), c(op.rows() * ncols, 0.0);
    for (double& x : b) x = rng.uniform(-1, 1);
    const double t =
        median_call_s([&] { la::gemm_acc(op, b, c, ncols); }, kBudget);
    const double flops = static_cast<double>(la::gemm_flops(op, ncols));
    const double bytes =
        8.0 * (op.rows() * op.cols() + op.cols() * ncols + 2.0 * op.rows() * ncols);
    m["la.gemm_gflops"] = flops / t / 1e9;
    m["la.gemm_flops_per_byte"] = flops / bytes;
  }

  // Kernel::direct on a q x q leaf pair (adjacent unit boxes).
  {
    const std::size_t q = static_cast<std::size_t>(w.q);
    const int sd = kernel.source_dim(), td = kernel.target_dim();
    std::vector<double> trg(3 * q), src(3 * q), den(sd * q), pot(td * q, 0.0);
    for (double& x : trg) x = rng.uniform();
    for (std::size_t i = 0; i < q; ++i) {
      src[3 * i] = 1.0 + rng.uniform();
      src[3 * i + 1] = rng.uniform();
      src[3 * i + 2] = rng.uniform();
    }
    for (double& x : den) x = rng.uniform(-1, 1);
    std::uint64_t flops = 0;
    const double t = median_call_s(
        [&] { flops = kernel.direct(trg, src, den, pot); }, kBudget);
    const double bytes = 8.0 * q * (3 + 3 + sd + 2 * td);
    m["kernels.direct_gflops"] = static_cast<double>(flops) / t / 1e9;
    m["kernels.direct_flops_per_byte"] = static_cast<double>(flops) / bytes;
  }
}

std::vector<Metric> run_traced(const Workload& w,
                               const kernels::Kernel& kernel, const Args& a,
                               Calls& calls) {
  const core::FmmOptions opts = workload_options(w);
  const int sd = kernel.source_dim();
  std::unique_ptr<core::Tables> tables;
  std::vector<RankTrace> traces(w.ranks);
  std::vector<double> traced_wall, untraced_wall, parity;

  run_ranks(w, [&](comm::RankCtx& ctx) {
    const bool root = ctx.rank() == 0;
    Checker checker(w, a.seed);
    RankTrace& rt = traces[ctx.rank()];
    Tracer& tr = rt.tr;
    octree::BuildParams bp;
    bp.max_points_per_leaf = opts.max_points_per_leaf;
    bp.max_level = opts.max_level;

    // Set-up pipeline, from the octree module's public functions.
    auto pts =
        octree::generate_points(w.dist, w.n, ctx.rank(), w.ranks, sd, a.seed);
    sync(ctx);
    {
      auto s = tr.scope("core.tables");
      if (root) tables = std::make_unique<core::Tables>(kernel, opts);
      sync(ctx);
    }
    const double b0 = sent_bytes(ctx);
    {
      octree::OwnedTree tree;
      octree::LetSync let_sync;
      octree::Let let;
      {
        auto s = tr.scope("setup");
        {
          auto s2 = tr.scope("octree.build");
          ctx.comm.cost().set_phase("setup.tree");
          tree = octree::build_distributed_tree(ctx.comm, std::move(pts), bp);
        }
        {
          auto s2 = tr.scope("octree.let");
          ctx.comm.cost().set_phase("setup.let");
          let = let_sync.build(ctx.comm, tree);
          octree::build_interaction_lists(let);
        }
        if (opts.load_balance && ctx.size() > 1) {
          auto s2 = tr.scope("octree.balance");
          ctx.comm.cost().set_phase("setup.balance");
          const auto weights = core::leaf_work_estimates(*tables, let);
          tree = octree::load_balance(ctx.comm, std::move(tree), weights);
          let = let_sync.build(ctx.comm, tree);
          octree::build_interaction_lists(let);
        }
      }
      rt.setup_bytes = sent_bytes(ctx) - b0;
      for (const octree::LetNode& n : let.nodes) {
        if (!n.global_leaf) continue;
        (n.owned ? rt.leaves : rt.ghosts) += 1.0;
      }
      rt.levels = let.max_leaf_level();
    }

    // The untraced system on the same input and Tables.
    core::ParallelFmm fmm(ctx, *tables);
    fmm.setup(
        octree::generate_points(w.dist, w.n, ctx.rank(), w.ranks, sd, a.seed));
    std::vector<std::uint64_t> gids;  // from the first evaluate()
    std::unique_ptr<core::TimeStepper> ts;
    if (w.timestep)
      ts = std::make_unique<core::TimeStepper>(fmm, kSwirl, step_options());

    const double loop0 = now_s();
    for (int it = 0;; ++it) {
      tr.set_iter(it);
      RankIter ri;
      if (it > 0 && ts) {
        const auto& t = ctx.timer;
        const double u0 = sent_bytes(ctx), tt = t.get("setup.incr.tree"),
                     tl = t.get("setup.incr.let"),
                     tb = t.get("setup.incr.balance");
        {
          auto s = tr.scope("octree.update");
          ts->step();
        }
        ri.update_bytes = sent_bytes(ctx) - u0;
        ri.upd_tree = t.get("setup.incr.tree") - tt;
        ri.upd_let = t.get("setup.incr.let") - tl;
        ri.upd_bal = t.get("setup.incr.balance") - tb;
        const auto& us = fmm.last_update_stats();
        ri.dirty = static_cast<double>(us.dirty_leaves);
        ri.lists_rebuilt = static_cast<double>(us.lists_rebuilt);
        ri.migrated = static_cast<double>(us.migrated_points);
      } else if (it > 0) {
        fmm.set_densities(gids, step_densities(gids, sd, a.seed, it));
      }

      // Traced evaluate on a copy of the current LET (ghost densities are
      // refreshed on the copy, exactly as evaluate() refreshes its own).
      octree::Let copy = fmm.let();
      sync(ctx);
      double t0 = now_s();
      const std::vector<double> traced =
          traced_evaluate(ctx, *tables, copy, tr, ri);
      sync(ctx);
      if (root) traced_wall.push_back(now_s() - t0);

      // Untraced evaluate, with the library's own counters read around it.
      if (ctx.pool != nullptr) ctx.pool->fold_stats(ctx.rec);
      const auto& cost = ctx.comm.cost();
      const auto ec0 = cost.get("eval.comm");
      const auto og0 = cost.get("obs.gather");
      const double gs0 = ctx.timer.get("obs.gather");
      const int lanes = ctx.pool != nullptr ? ctx.pool->lanes() : 0;
      const auto sched = [&] {
        std::array<double, 5> v{};  // busy, lifetime, steals, uli busy/overlap
        for (int l = 0; l < lanes; ++l)
          v[0] += ctx.rec.counter("sched.busy.w" + std::to_string(l));
        v[1] = ctx.rec.counter("sched.lifetime_seconds");
        v[2] = ctx.rec.counter("sched.steals");
        v[3] = ctx.rec.counter("sched.uli.busy_seconds");
        v[4] = ctx.rec.counter("sched.uli.overlap_seconds");
        return v;
      };
      const auto sc0 = sched();
      sync(ctx);
      t0 = now_s();
      const core::ParallelFmm::Result res = fmm.evaluate();
      sync(ctx);
      if (root) untraced_wall.push_back(now_s() - t0);
      if (it == 0) gids = res.gids;
      const auto ec1 = cost.get("eval.comm");
      const auto og1 = cost.get("obs.gather");
      ri.eval_msgs = static_cast<double>(ec1.msgs_sent - ec0.msgs_sent);
      ri.eval_bytes = static_cast<double>(ec1.bytes_sent - ec0.bytes_sent);
      ri.gather_bytes = static_cast<double>(og1.bytes_sent - og0.bytes_sent);
      ri.gather_s = ctx.timer.get("obs.gather") - gs0;
      if (lanes > 0) {
        const auto sc1 = sched();
        ri.busy = sc1[0] - sc0[0];
        ri.capacity = (sc1[1] - sc0[1]) * lanes;
        ri.steals = sc1[2] - sc0[2];
        ri.uli_busy = sc1[3] - sc0[3];
        ri.uli_overlap = sc1[4] - sc0[4];
      }
      ri.vli_buf = gauge(ctx, "mem.eval.fft_chunk_bytes");
      ri.let_bytes = gauge(ctx, "mem.let.total_bytes");

      // Traced vs untraced potentials (relative L2 over all ranks).
      if (traced.size() != res.potentials.size())
        throw std::runtime_error("traced and untraced target sets differ");
      double d[2] = {0.0, 0.0};
      for (std::size_t i = 0; i < traced.size(); ++i) {
        d[0] += (traced[i] - res.potentials[i]) * (traced[i] - res.potentials[i]);
        d[1] += res.potentials[i] * res.potentials[i];
      }
      ctx.comm.cost().set_phase("bench");
      const auto dt = ctx.comm.allreduce(
          std::span<const double>(d, 2),
          [](double x, double y) { return x + y; });
      const Check c = checker.check(ctx, kernel, fmm.let(), res);
      if (root) {
        const double rel = dt[1] > 0.0 ? std::sqrt(dt[0] / dt[1]) : 0.0;
        parity.push_back(rel);
        calls.record(c.rel_err(),
                     c.ok(w.err_bound) && rel <= kTraceParityBound);
      }
      rt.iters.push_back(std::move(ri));
      const bool more = it < kMinLoopIters || now_s() - loop0 < a.seconds;
      if (!keep_going(ctx, more)) break;
    }
  });

  // 1 rank x 1 thread evaluate() of the same input points.
  double serial_s = 0.0;
  {
    core::FmmOptions o = opts;
    o.threads_per_rank = 1;
    const core::Tables serial_tables = tables->with_options(o);
    comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
      core::ParallelFmm fmm(ctx, serial_tables);
      fmm.setup(octree::generate_points(w.dist, w.n, 0, 1, sd, a.seed));
      const double t0 = now_s();
      (void)fmm.evaluate();
      serial_s = now_s() - t0;
    });
  }

  // Aggregation: per iteration, across ranks; then the median over the
  // steady iterations (1..), each of which ran after the first evaluate.
  const int iters = static_cast<int>(traces[0].iters.size());
  const auto over_ranks = [&](auto per_rank, bool take_max) {
    std::vector<double> v;
    for (const RankTrace& rt : traces) v.push_back(per_rank(rt));
    return take_max ? max_of(v) : sum_of(v);
  };
  const auto steady = [&](auto per_iter) {
    std::vector<double> v;
    for (int it = 1; it < iters; ++it) v.push_back(per_iter(it));
    return median(v);
  };
  const auto span_max = [&](const std::string& name, int it) {
    return over_ranks([&](const RankTrace& rt) { return rt.tr.sum(name, it); },
                      true);
  };
  const auto iter_sum = [&](auto field) {
    return steady([&](int it) {
      return over_ranks(
          [&](const RankTrace& rt) { return field(rt.iters[it]); }, false);
    });
  };
  const auto iter_max = [&](auto field) {
    return steady([&](int it) {
      return over_ranks(
          [&](const RankTrace& rt) { return field(rt.iters[it]); }, true);
    });
  };
  const std::size_t ns = static_cast<std::size_t>(std::max(iters - 1, 0));
  const double nr = static_cast<double>(w.ranks);

  std::vector<Metric> out;
  const auto add = [&](const std::string& name, double v, const char* unit,
                       std::size_t n) { out.push_back({name, v, unit, n}); };

  add("octree.build_s", span_max("octree.build", -1), "s", 1);
  add("octree.let_s", span_max("octree.let", -1), "s", 1);
  add("octree.balance_s", span_max("octree.balance", -1), "s", 1);
  add("octree.ghost_refresh_s",
      steady([&](int it) { return span_max("octree.ghost_refresh", it); }), "s",
      ns);
  add("octree.update_s",
      steady([&](int it) { return span_max("octree.update", it); }), "s", ns);
  add("octree.update.tree_s", iter_max([](const RankIter& r) { return r.upd_tree; }),
      "s", ns);
  add("octree.update.let_s", iter_max([](const RankIter& r) { return r.upd_let; }),
      "s", ns);
  add("octree.update.balance_s",
      iter_max([](const RankIter& r) { return r.upd_bal; }), "s", ns);
  add("octree.leaves",
      over_ranks([](const RankTrace& rt) { return rt.leaves; }, false), "count",
      1);
  add("octree.levels",
      over_ranks([](const RankTrace& rt) { return rt.levels; }, true), "count",
      1);
  add("octree.ghost_octants",
      over_ranks([](const RankTrace& rt) { return rt.ghosts; }, false), "count",
      1);
  add("octree.update.dirty_leaves",
      iter_sum([](const RankIter& r) { return r.dirty; }), "count", ns);
  add("octree.update.lists_rebuilt",
      iter_sum([](const RankIter& r) { return r.lists_rebuilt; }), "count", ns);
  add("octree.update.migrated_points",
      iter_sum([](const RankIter& r) { return r.migrated; }), "count", ns);
  add("octree.let_mib",
      iter_sum([](const RankIter& r) { return r.let_bytes; }) / kMiB, "MiB", ns);

  add("core.tables_s", traces[0].tr.sum("core.tables", -1), "s", 1);
  add("core.evaluator_init_s",
      steady([&](int it) { return span_max("core.evaluator_init", it); }), "s",
      ns);
  add("core.vli_first_s", span_max("core.vli", 0), "s", 1);
  for (const char* p : kPhases)
    add(std::string("core.") + p + "_s",
        steady([&](int it) { return span_max(std::string("core.") + p, it); }),
        "s", ns);
  for (const char* p : kPhases) {
    if (std::string(p) == "reduce") continue;  // no arithmetic is counted
    const auto flops = [&](int it) {
      return over_ranks(
          [&](const RankTrace& rt) {
            const auto& f = rt.iters[it].flops;
            const auto i = f.find(p);
            return i == f.end() ? 0.0 : i->second;
          },
          false);
    };
    add(std::string("core.") + p + ".gflop", steady(flops) / 1e9, "GFLOP", ns);
    add(std::string("core.") + p + ".gflops",
        steady([&](int it) {
          const double wall = span_max(std::string("core.") + p, it);
          return wall > 0.0 ? flops(it) / wall / 1e9 : 0.0;
        }),
        "GFLOP/s", ns);
  }
  // Per rank, the traced evaluate's compute alone: a whole evaluate()
  // ends in a collective, so its per-rank walls are equal by design.
  add("core.eval_imbalance",
      steady([&](int it) {
        std::vector<double> work;
        for (const RankTrace& rt : traces) {
          double s = 0.0;
          for (const char* name : kLocalSpans) s += rt.tr.sum(name, it);
          work.push_back(s);
        }
        const double avg = sum_of(work) / nr;
        return avg > 0.0 ? max_of(work) / avg : 0.0;
      }),
      "ratio", ns);
  add("core.vli_buffer_mib",
      iter_sum([](const RankIter& r) { return r.vli_buf; }) / kMiB, "MiB", ns);
  const double eval_s = median(std::vector<double>(
      untraced_wall.begin() + std::min<std::size_t>(1, untraced_wall.size()),
      untraced_wall.end()));
  add("core.serial_eval_s", serial_s, "s", 1);
  add("core.parallel_speedup", eval_s > 0.0 ? serial_s / eval_s : 0.0, "ratio",
      1);

  add("comm.eval_msgs", iter_sum([](const RankIter& r) { return r.eval_msgs; }),
      "count", ns);
  add("comm.eval_bytes",
      iter_sum([](const RankIter& r) { return r.eval_bytes; }), "B", ns);
  add("comm.reduce_bytes",
      iter_sum([](const RankIter& r) { return r.reduce_bytes; }), "B", ns);
  add("comm.setup_bytes",
      over_ranks([](const RankTrace& rt) { return rt.setup_bytes; }, false), "B",
      1);
  add("comm.update_bytes",
      iter_sum([](const RankIter& r) { return r.update_bytes; }), "B", ns);
  add("comm.phase_wait_s",
      steady([&](int it) {
        return over_ranks(
                   [&](const RankTrace& rt) { return rt.tr.sum("comm.wait", it); },
                   false) /
               nr;
      }),
      "s", ns);

  add("obs.gather_s", iter_max([](const RankIter& r) { return r.gather_s; }),
      "s", ns);
  add("obs.gather_bytes",
      iter_sum([](const RankIter& r) { return r.gather_bytes; }), "B", ns);

  std::map<std::string, double> micro;
  micro_calls(w, kernel, *tables, micro);
  for (const char* name :
       {"fft.fwd_s", "fft.mac_gflops", "fft.mac_flops_per_byte", "la.gemm_gflops",
        "la.gemm_flops_per_byte", "kernels.direct_gflops",
        "kernels.direct_flops_per_byte"}) {
    const std::string n = name;
    const char* unit = n.ends_with("_s")           ? "s"
                       : n.ends_with("_gflops")    ? "GFLOP/s"
                                                   : "flop/B";
    add(n, micro.at(n), unit, 1);
  }

  add("util.busy_frac",
      steady([&](int it) {
        const double cap = over_ranks(
            [&](const RankTrace& rt) { return rt.iters[it].capacity; }, false);
        const double busy = over_ranks(
            [&](const RankTrace& rt) { return rt.iters[it].busy; }, false);
        return cap > 0.0 ? busy / cap : 0.0;
      }),
      "ratio", ns);
  add("util.steals", iter_sum([](const RankIter& r) { return r.steals; }),
      "count", ns);
  add("util.uli_overlap",
      steady([&](int it) {
        const double b = over_ranks(
            [&](const RankTrace& rt) { return rt.iters[it].uli_busy; }, false);
        const double o = over_ranks(
            [&](const RankTrace& rt) { return rt.iters[it].uli_overlap; }, false);
        return b > 0.0 ? o / b : 0.0;
      }),
      "ratio", ns);

  const double traced_s = median(std::vector<double>(
      traced_wall.begin() + std::min<std::size_t>(1, traced_wall.size()),
      traced_wall.end()));
  add("trace.eval_s", traced_s, "s", ns);
  add("trace.untraced_eval_s", eval_s, "s", ns);
  add("trace.overhead_s", traced_s - eval_s, "s", ns);
  add("trace.span_coverage",
      steady([&](int it) {
        return over_ranks(
                   [&](const RankTrace& rt) {
                     return rt.tr.child_coverage("eval", it);
                   },
                   false) /
               nr;
      }),
      "ratio", ns);
  add("trace.parity_rel_diff", max_of(parity), "1", parity.size());
  return out;
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload& w = *a.w;
  const auto kernel = kernels::make_kernel(w.kernel);
  std::printf(
      "wallbench: workload=%s seed=%llu seconds=%d trace=%d simd=%s "
      "ranks=%d threads_per_rank=%d N=%llu kernel=%s surface_n=%d q=%d\n",
      w.name, static_cast<unsigned long long>(a.seed), a.seconds, a.trace,
      simd::tier_name(simd::active_tier()), w.ranks, w.threads,
      static_cast<unsigned long long>(w.n), w.kernel, w.surface_n, w.q);
  Calls calls;
  const std::vector<Metric> metrics = a.trace
                                          ? run_traced(w, *kernel, a, calls)
                                          : run_untraced(w, *kernel, a, calls);
  print_result(metrics, calls);
  return 0;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  try {
    return wallbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wallbench: error: %s\n", e.what());
  } catch (...) {
    std::fprintf(stderr, "wallbench: error: unknown exception\n");
  }
  return 1;
}
