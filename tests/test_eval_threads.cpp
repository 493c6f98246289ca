/// Thread-count determinism sweep (see util/task_pool.hpp): the
/// evaluation pipeline must produce BITWISE-identical potentials and
/// exactly equal per-phase flop counts for any threads_per_rank, in
/// both eval modes, because every parallel chunk writes a pre-assigned
/// disjoint output range in the serial iteration order and the chunk
/// decomposition never depends on the worker count. clamp_threads is
/// off so the sweep exercises real worker threads even on one-core CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/fmm.hpp"
#include "kernels/kernel.hpp"
#include "simd/simd.hpp"

namespace pkifmm::core {
namespace {

using octree::Distribution;

struct ThreadRun {
  std::map<std::uint64_t, std::vector<double>> pot;  // gid -> components
  std::vector<std::map<std::string, std::uint64_t>> eval_flops;  // per rank
  std::vector<std::map<std::string, double>> sched;  // sched.* per rank
};

struct Case {
  std::string kernel;
  Distribution dist;
  EvalMode mode;
  bool runtime_pool;  ///< provide the pool via Runtime::run overload
  M2lMode m2l = M2lMode::kFft;
  ExecMode exec = ExecMode::kBulkSync;
  int surface_n = 4;
};

ThreadRun run_with_threads(const Case& c, int p, int threads) {
  auto kernel = kernels::make_kernel(c.kernel);
  FmmOptions opts;
  opts.surface_n = c.surface_n;
  opts.max_points_per_leaf = 20;
  opts.eval_mode = c.mode;
  opts.m2l = c.m2l;
  opts.exec_mode = c.exec;
  opts.threads_per_rank = threads;
  opts.clamp_threads = false;
  const Tables tables(*kernel, opts);

  ThreadRun out;
  out.eval_flops.resize(p);
  out.sched.resize(p);
  std::mutex mu;
  auto fn = [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(c.dist, 900, ctx.rank(), p,
                                       tables.sdim(), 91);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    auto res = fmm.evaluate();
    const int td = tables.tdim();
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < res.gids.size(); ++i)
      out.pot[res.gids[i]] =
          std::vector<double>(res.potentials.begin() + i * td,
                              res.potentials.begin() + (i + 1) * td);
  };
  auto reports =
      c.runtime_pool
          ? comm::Runtime::run(p, threads, /*clamp=*/false, fn)
          : comm::Runtime::run(p, fn);
  for (int r = 0; r < p; ++r) {
    for (const auto& [phase, flops] : reports[r].flop_phases)
      if (phase.rfind("eval.", 0) == 0) out.eval_flops[r][phase] = flops;
    for (const auto& [name, v] : reports[r].obs.counters)
      if (name.rfind("sched.", 0) == 0) out.sched[r][name] = v;
    for (const auto& [name, v] : reports[r].obs.gauges)
      if (name.rfind("sched.", 0) == 0) out.sched[r][name] = v;
  }
  return out;
}

class EvalThreadDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(EvalThreadDeterminism, IdenticalAcrossThreadCounts) {
  const Case c = GetParam();
  const int p = 2;

  const ThreadRun base = run_with_threads(c, p, 1);
  ASSERT_GT(base.pot.size(), 0u);
  std::uint64_t base_total = 0;
  for (const auto& m : base.eval_flops)
    for (const auto& [phase, fl] : m) base_total += fl;
  ASSERT_GT(base_total, 0u);

  for (const int threads : {2, 4}) {
    const ThreadRun run = run_with_threads(c, p, threads);

    // Bitwise-identical potentials (not just within tolerance): the
    // parallel chunks reproduce the serial arithmetic exactly.
    ASSERT_EQ(base.pot.size(), run.pot.size()) << threads << " threads";
    for (const auto& [gid, comps] : base.pot) {
      const auto it = run.pot.find(gid);
      ASSERT_NE(it, run.pot.end()) << "gid " << gid;
      ASSERT_EQ(comps.size(), it->second.size());
      for (std::size_t k = 0; k < comps.size(); ++k)
        EXPECT_EQ(comps[k], it->second[k])
            << "gid " << gid << " comp " << k << " @ " << threads
            << " threads";
    }

    // Exactly equal model flops, phase by phase and rank by rank.
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(base.eval_flops[r], run.eval_flops[r])
          << "rank " << r << " @ " << threads << " threads";
    }

    // The scheduler actually ran: worker counts and ULI accounting are
    // published whenever the evaluator drove a pool.
    for (int r = 0; r < p; ++r) {
      const auto& s = run.sched[r];
      ASSERT_TRUE(s.count("sched.workers")) << "rank " << r;
      EXPECT_EQ(s.at("sched.workers"), threads - 1) << "rank " << r;
      ASSERT_TRUE(s.count("sched.tasks")) << "rank " << r;
      EXPECT_GT(s.at("sched.tasks"), 0.0) << "rank " << r;
      ASSERT_TRUE(s.count("sched.uli.busy_seconds")) << "rank " << r;
    }
  }
}

/// Exec-mode parity sweep (DESIGN.md "DAG executor"): the DAG execution
/// of the batched pipeline must reproduce the bulk-synchronous
/// reference BITWISE — identical potentials and exactly equal per-phase
/// flop counts — for any thread count, because DAG edges preserve every
/// accumulation order of the bulk engine and the node decomposition
/// never depends on the worker count. p=4 for FFT cases so the
/// hypercube reduce's incremental ghost releases are exercised on a
/// multi-round exchange; p=2 for the dense-M2L ablation.
class DagExecParity : public ::testing::TestWithParam<Case> {};

TEST_P(DagExecParity, BitwiseMatchesBulkSyncAcrossThreadCounts) {
  Case c = GetParam();
  const int p = c.m2l == M2lMode::kFft ? 4 : 2;

  c.exec = ExecMode::kBulkSync;
  const ThreadRun base = run_with_threads(c, p, 1);
  ASSERT_GT(base.pot.size(), 0u);
  std::uint64_t base_total = 0;
  for (const auto& m : base.eval_flops)
    for (const auto& [phase, fl] : m) base_total += fl;
  ASSERT_GT(base_total, 0u);

  c.exec = ExecMode::kDag;
  for (const int threads : {1, 2, 4}) {
    const ThreadRun run = run_with_threads(c, p, threads);

    ASSERT_EQ(base.pot.size(), run.pot.size()) << threads << " threads";
    for (const auto& [gid, comps] : base.pot) {
      const auto it = run.pot.find(gid);
      ASSERT_NE(it, run.pot.end()) << "gid " << gid;
      ASSERT_EQ(comps.size(), it->second.size());
      for (std::size_t k = 0; k < comps.size(); ++k)
        EXPECT_EQ(comps[k], it->second[k])
            << "gid " << gid << " comp " << k << " @ " << threads
            << " threads";
    }

    // Exact flop equality: the DAG runs the same model arithmetic,
    // phase by phase and rank by rank.
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(base.eval_flops[r], run.eval_flops[r])
          << "rank " << r << " @ " << threads << " threads";
    }

    // The DAG scheduler published its counters on every rank.
    for (int r = 0; r < p; ++r) {
      const auto& s = run.sched[r];
      ASSERT_TRUE(s.count("sched.dag.graphs")) << "rank " << r;
      EXPECT_GE(s.at("sched.dag.graphs"), 1.0) << "rank " << r;
      ASSERT_TRUE(s.count("sched.dag.nodes")) << "rank " << r;
      EXPECT_GT(s.at("sched.dag.nodes"), 0.0) << "rank " << r;
      ASSERT_TRUE(s.count("sched.dag.tasks")) << "rank " << r;
      EXPECT_GT(s.at("sched.dag.tasks"), 0.0) << "rank " << r;
      ASSERT_TRUE(s.count("sched.dag.edges")) << "rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndM2lModes, DagExecParity,
    ::testing::Values(
        Case{"laplace", Distribution::kUniform, EvalMode::kBatched, false},
        Case{"stokes", Distribution::kEllipsoid, EvalMode::kBatched, false},
        Case{"laplace", Distribution::kEllipsoid, EvalMode::kBatched, false,
             M2lMode::kDense},
        Case{"yukawa", Distribution::kUniform, EvalMode::kBatched, true},
        // Other orders: FFT grids 6 (n=3), 9 (n=5) and 16 (n=7).
        Case{"stokes", Distribution::kEllipsoid, EvalMode::kBatched, false,
             M2lMode::kFft, ExecMode::kBulkSync, 3},
        Case{"laplace", Distribution::kUniform, EvalMode::kBatched, false,
             M2lMode::kFft, ExecMode::kBulkSync, 5},
        Case{"laplace", Distribution::kEllipsoid, EvalMode::kBatched, false,
             M2lMode::kFft, ExecMode::kBulkSync, 7}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = c.kernel;
      name += c.dist == Distribution::kUniform ? "Uniform" : "Ellipsoid";
      name += c.m2l == M2lMode::kFft ? "Fft" : "Dense";
      if (c.runtime_pool) name += "RuntimePool";
      if (c.surface_n != 4) name += "N" + std::to_string(c.surface_n);
      return name;
    });

/// Per-tier thread-determinism sweep: the bitwise contract must hold
/// WITHIN each SIMD tier separately — tier selection changes the
/// arithmetic (FMA, lane folds), but never makes it depend on the
/// worker count, because every parallel chunk's masked tail performs
/// the same per-element operations as the full-width body.
TEST(EvalSimdTierThreads, BitwiseDeterministicWithinEachTier) {
  struct TierGuard {
    ~TierGuard() { simd::clear_forced_tier(); }
  } guard;

  const Case c{"stokes", Distribution::kEllipsoid, EvalMode::kBatched, false};
  const int p = 2;
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    const ThreadRun base = run_with_threads(c, p, 1);
    ASSERT_GT(base.pot.size(), 0u) << simd::tier_name(t);
    for (const int threads : {2, 4}) {
      const ThreadRun run = run_with_threads(c, p, threads);
      ASSERT_EQ(base.pot.size(), run.pot.size())
          << simd::tier_name(t) << " @ " << threads;
      for (const auto& [gid, comps] : base.pot) {
        const auto it = run.pot.find(gid);
        ASSERT_NE(it, run.pot.end()) << "gid " << gid;
        ASSERT_EQ(comps.size(), it->second.size());
        for (std::size_t k = 0; k < comps.size(); ++k)
          EXPECT_EQ(comps[k], it->second[k])
              << simd::tier_name(t) << " gid " << gid << " comp " << k
              << " @ " << threads << " threads";
      }
      for (int r = 0; r < p; ++r)
        EXPECT_EQ(base.eval_flops[r], run.eval_flops[r])
            << simd::tier_name(t) << " rank " << r << " @ " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndModes, EvalThreadDeterminism,
    ::testing::Values(
        Case{"laplace", Distribution::kUniform, EvalMode::kBatched, false},
        Case{"laplace", Distribution::kEllipsoid, EvalMode::kScalar, false},
        Case{"stokes", Distribution::kEllipsoid, EvalMode::kBatched, false},
        Case{"yukawa", Distribution::kUniform, EvalMode::kBatched, true},
        Case{"laplace", Distribution::kEllipsoid, EvalMode::kBatched, false,
             M2lMode::kFft, ExecMode::kBulkSync, 5}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = c.kernel;
      name += c.dist == Distribution::kUniform ? "Uniform" : "Ellipsoid";
      name += c.mode == EvalMode::kBatched ? "Batched" : "Scalar";
      if (c.runtime_pool) name += "RuntimePool";
      if (c.surface_n != 4) name += "N" + std::to_string(c.surface_n);
      return name;
    });

}  // namespace
}  // namespace pkifmm::core
