/// Thread-count determinism sweep (see util/task_pool.hpp): the
/// evaluation pipeline must produce BITWISE-identical potentials and
/// exactly equal per-phase flop counts for any threads_per_rank,
/// because every parallel chunk writes a pre-assigned disjoint output
/// range in the serial iteration order and the chunk decomposition
/// never depends on the worker count. PhaseMethodParity also checks
/// run() against the public phase methods on one LET at every thread
/// count.
/// clamp_threads is off so the sweeps exercise real worker threads even
/// on one-core CI.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
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
  bool runtime_pool;  ///< provide the pool via Runtime::run overload
  M2lMode m2l = M2lMode::kFft;
  int ranks = 2;
  int surface_n = 4;
};

/// gtest appends the printed parameter to each listed test name;
/// without this it prints Case's raw bytes, which include the kernel
/// string's heap address and so change from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.kernel << (c.dist == Distribution::kUniform ? " U " : " E ")
      << (c.m2l == M2lMode::kFft ? "fft" : "dense") << " p" << c.ranks
      << " n" << c.surface_n << (c.runtime_pool ? " pool" : "");
}

FmmOptions case_options(const Case& c, int threads) {
  FmmOptions opts;
  opts.surface_n = c.surface_n;
  opts.max_points_per_leaf = 20;
  opts.m2l = c.m2l;
  opts.threads_per_rank = threads;
  opts.clamp_threads = false;
  return opts;
}

/// Runs `fn` on p ranks, with the per-rank pool from the Runtime when
/// the case asks for it (otherwise each Evaluator owns one).
std::vector<comm::RankReport> run_ranks(
    const Case& c, int p, int threads,
    const std::function<void(comm::RankCtx&)>& fn) {
  return c.runtime_pool ? comm::Runtime::run(p, threads, /*clamp=*/false, fn)
                        : comm::Runtime::run(p, fn);
}

ThreadRun run_with_threads(const Case& c, int p, int threads) {
  auto kernel = kernels::make_kernel(c.kernel);
  const Tables tables(*kernel, case_options(c, threads));

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
  const auto reports = run_ranks(c, p, threads, fn);
  for (int r = 0; r < p; ++r) {
    for (const auto& [name, v] : reports[r].counters) {
      if (name.starts_with("flops.eval."))
        out.eval_flops[r][name.substr(6)] = static_cast<std::uint64_t>(v);
      if (name.rfind("sched.", 0) == 0) out.sched[r][name] = v;
    }
    for (const auto& [name, v] : reports[r].gauges)
      if (name.rfind("sched.", 0) == 0) out.sched[r][name] = v;
  }
  return out;
}

class EvalThreadDeterminism : public ::testing::TestWithParam<Case> {};

TEST_P(EvalThreadDeterminism, IdenticalAcrossThreadCounts) {
  const Case c = GetParam();
  const int p = c.ranks;

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

/// run() and the nine public phase methods on one LET, per rank. The
/// phase methods are the path of the wall-clock benchmark's traced
/// evaluate and of the GPU engine; run() adds the background ULI start
/// before S2U and the health sentinels.
struct PhasePathRun {
  std::vector<std::vector<double>> run_pot, phase_pot;  // Let order
  std::vector<std::map<std::string, std::uint64_t>> run_flops, phase_flops;
};

PhasePathRun run_both_paths(const Case& c, int threads) {
  auto kernel = kernels::make_kernel(c.kernel);
  const Tables tables(*kernel, case_options(c, threads));
  const int p = c.ranks;
  PhasePathRun out;
  out.run_pot.resize(p);
  out.phase_pot.resize(p);
  out.run_flops.resize(p);
  out.phase_flops.resize(p);
  run_ranks(c, p, threads, [&](comm::RankCtx& ctx) {
    ParallelFmm fmm(ctx, tables);
    fmm.setup(octree::generate_points(c.dist, 900, ctx.rank(), p,
                                      tables.sdim(), 91));
    octree::Let let = fmm.let();
    octree::refresh_ghost_densities(ctx.comm, let);
    const auto eval_flops = [&] {
      std::map<std::string, std::uint64_t> m;
      for (const auto& [name, fl] : ctx.rec.metrics().counters)
        if (name.starts_with("flops.eval."))
          m[name.substr(6)] = static_cast<std::uint64_t>(fl);
      return m;
    };
    const int r = ctx.rank();

    auto f0 = eval_flops();
    Evaluator whole(tables, let, ctx);
    whole.run();
    auto f1 = eval_flops();

    Evaluator phases(tables, let, ctx);
    phases.s2u();
    phases.u2u();
    phases.comm_reduce();
    phases.vli();
    phases.xli();
    phases.downward();
    phases.wli();
    phases.d2t();
    phases.uli();
    const auto f2 = eval_flops();

    out.run_pot[r].assign(whole.potential().begin(),
                          whole.potential().end());
    out.phase_pot[r].assign(phases.potential().begin(),
                            phases.potential().end());
    for (const auto& [phase, fl] : f2) {
      out.run_flops[r][phase] = f1[phase] - f0[phase];
      out.phase_flops[r][phase] = fl - f1[phase];
    }
  });
  return out;
}

/// Phase-path parity sweep: run() and the public phase methods must
/// produce BITWISE-identical potentials and exactly equal per-phase
/// flop counts on one LET, at every thread count, and both must match
/// the one-thread phase methods. FFT cases run at p=4 so the hypercube
/// reduce runs two rounds; the dense-M2L ablation at p=2.
class PhaseMethodParity : public ::testing::TestWithParam<Case> {};

TEST_P(PhaseMethodParity, MatchesRunBitwiseAcrossThreadCounts) {
  const Case c = GetParam();
  const PhasePathRun base = run_both_paths(c, 1);
  for (int r = 0; r < c.ranks; ++r) {
    ASSERT_GT(base.phase_pot[r].size(), 0u) << "rank " << r;
    EXPECT_GT(base.phase_flops[r].at("eval.vli"), 0u) << "rank " << r;
  }

  for (const int threads : {1, 2, 4}) {
    const PhasePathRun run = threads == 1 ? base : run_both_paths(c, threads);
    for (int r = 0; r < c.ranks; ++r) {
      const auto& ref = base.phase_pot[r];
      ASSERT_EQ(ref.size(), run.run_pot[r].size()) << "rank " << r;
      ASSERT_EQ(ref.size(), run.phase_pot[r].size()) << "rank " << r;
      for (std::size_t k = 0; k < ref.size(); ++k) {
        EXPECT_EQ(ref[k], run.run_pot[r][k])
            << "run() rank " << r << " entry " << k << " @ " << threads
            << " threads";
        EXPECT_EQ(ref[k], run.phase_pot[r][k])
            << "phase methods rank " << r << " entry " << k << " @ "
            << threads << " threads";
      }
      EXPECT_EQ(base.phase_flops[r], run.run_flops[r])
          << "run() rank " << r << " @ " << threads << " threads";
      EXPECT_EQ(base.phase_flops[r], run.phase_flops[r])
          << "phase methods rank " << r << " @ " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndM2lModes, PhaseMethodParity,
    ::testing::Values(
        Case{"laplace", Distribution::kUniform, false, M2lMode::kFft, 4},
        Case{"stokes", Distribution::kEllipsoid, false, M2lMode::kFft, 4},
        Case{"laplace", Distribution::kEllipsoid, false, M2lMode::kDense},
        Case{"yukawa", Distribution::kUniform, true, M2lMode::kFft, 4},
        // Other orders: FFT grids 6 (n=3), 9 (n=5) and 16 (n=7).
        Case{"stokes", Distribution::kEllipsoid, false, M2lMode::kFft, 4, 3},
        Case{"laplace", Distribution::kUniform, false, M2lMode::kFft, 4, 5},
        Case{"laplace", Distribution::kEllipsoid, false, M2lMode::kFft, 4, 7}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = c.kernel;
      name += c.dist == Distribution::kUniform ? "Uniform" : "Ellipsoid";
      name += c.m2l == M2lMode::kFft ? "Fft" : "Dense";
      if (c.runtime_pool) name += "RuntimePool";
      if (c.surface_n != 4)
        name.append("N").append(std::to_string(c.surface_n));
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

  const Case c{"stokes", Distribution::kEllipsoid, false};
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
        Case{"laplace", Distribution::kUniform, false},
        Case{"stokes", Distribution::kEllipsoid, false},
        Case{"yukawa", Distribution::kUniform, true},
        Case{"laplace", Distribution::kEllipsoid, false, M2lMode::kFft, 2, 5}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = c.kernel;
      name += c.dist == Distribution::kUniform ? "Uniform" : "Ellipsoid";
      name += "Batched";  // kept from a removed engine choice: stable names
      if (c.runtime_pool) name += "RuntimePool";
      if (c.surface_n != 4)
        name.append("N").append(std::to_string(c.surface_n));
      return name;
    });

}  // namespace
}  // namespace pkifmm::core
