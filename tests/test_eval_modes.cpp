/// Property test for the two evaluation engines (see DESIGN.md
/// "Batched evaluation engine"): for every kernel/distribution pair the
/// kScalar reference and the kBatched level/operator-blocked engine
/// must produce the same potentials to rounding (1e-12 relative) AND
/// account the exact same model flops into every eval.* phase — the
/// batched engine is a reordering of the same arithmetic, not a
/// different algorithm.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/fmm.hpp"
#include "kernels/kernel.hpp"
#include "simd/simd.hpp"
#include "util/stats.hpp"

namespace pkifmm::core {
namespace {

using octree::Distribution;

struct ModeRun {
  std::map<std::uint64_t, std::vector<double>> pot;  // gid -> components
  std::vector<std::map<std::string, std::uint64_t>> eval_flops;  // per rank
};

struct Case {
  std::string kernel;
  Distribution dist;
  bool fft_vlist;
  // One byte, so it sits in the tail padding and Case keeps its size:
  // gtest prints the parameter's byte size in each test's listed name.
  std::uint8_t surface_n = 4;
};

ModeRun run_mode(const kernels::Kernel& kernel, const Case& c, int p,
                 EvalMode mode) {
  FmmOptions opts;
  opts.surface_n = c.surface_n;
  opts.max_points_per_leaf = 20;
  opts.m2l = c.fft_vlist ? M2lMode::kFft : M2lMode::kDense;
  opts.eval_mode = mode;
  const Tables tables(kernel, opts);

  ModeRun out;
  out.eval_flops.resize(p);
  std::mutex mu;
  auto reports = comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
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
  });
  for (int r = 0; r < p; ++r)
    for (const auto& [phase, flops] : reports[r].flop_phases)
      if (phase.rfind("eval.", 0) == 0) out.eval_flops[r][phase] = flops;
  return out;
}

class EvalModeParity : public ::testing::TestWithParam<Case> {};

TEST_P(EvalModeParity, BatchedMatchesScalar) {
  const Case c = GetParam();
  auto kernel = kernels::make_kernel(c.kernel);
  const int p = 2;

  const ModeRun scalar = run_mode(*kernel, c, p, EvalMode::kScalar);
  const ModeRun batched = run_mode(*kernel, c, p, EvalMode::kBatched);

  // Same owned targets on both runs (the tree build is deterministic).
  ASSERT_EQ(scalar.pot.size(), batched.pot.size());
  ASSERT_GT(scalar.pot.size(), 0u);

  std::vector<double> a, b;
  for (const auto& [gid, comps] : scalar.pot) {
    const auto it = batched.pot.find(gid);
    ASSERT_NE(it, batched.pot.end()) << "gid " << gid;
    a.insert(a.end(), comps.begin(), comps.end());
    b.insert(b.end(), it->second.begin(), it->second.end());
  }
  EXPECT_LT(rel_l2_error(b, a), 1e-12);

  // Identical model-flop accounting, phase by phase and rank by rank.
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(scalar.eval_flops[r].size(), batched.eval_flops[r].size())
        << "rank " << r;
    for (const auto& [phase, flops] : scalar.eval_flops[r]) {
      const auto it = batched.eval_flops[r].find(phase);
      ASSERT_NE(it, batched.eval_flops[r].end())
          << "rank " << r << " phase " << phase;
      EXPECT_EQ(flops, it->second) << "rank " << r << " phase " << phase;
    }
  }
}

/// Forced-tier sweep of the full pipeline: every available SIMD tier
/// must reproduce the scalar tier's potentials with EXACTLY equal
/// per-phase model flops (tiers change instruction selection, never
/// the flop model), in both eval modes. The per-operation cross-tier
/// contract is 1e-12 (asserted in test_simd); end-to-end the
/// translation chain amplifies those last-bit FMA differences by a
/// small condition factor (observed ~1.1e-12 for Stokes), so the
/// pipeline bound carries a 4x allowance.
TEST(EvalSimdTierParity, AllTiersMatchScalarTier) {
  struct TierGuard {
    ~TierGuard() { simd::clear_forced_tier(); }
  } guard;

  const int p = 2;
  for (const Case& c : {Case{"stokes", Distribution::kUniform, true},
                        Case{"laplace", Distribution::kEllipsoid, true}}) {
    auto kernel = kernels::make_kernel(c.kernel);
    for (const EvalMode mode : {EvalMode::kScalar, EvalMode::kBatched}) {
      simd::force_tier(simd::Tier::kScalar);
      const ModeRun ref = run_mode(*kernel, c, p, mode);
      ASSERT_GT(ref.pot.size(), 0u);

      for (const simd::Tier t : simd::available_tiers()) {
        simd::force_tier(t);
        const ModeRun run = run_mode(*kernel, c, p, mode);

        ASSERT_EQ(ref.pot.size(), run.pot.size()) << simd::tier_name(t);
        std::vector<double> a, b;
        for (const auto& [gid, comps] : ref.pot) {
          const auto it = run.pot.find(gid);
          ASSERT_NE(it, run.pot.end()) << "gid " << gid;
          a.insert(a.end(), comps.begin(), comps.end());
          b.insert(b.end(), it->second.begin(), it->second.end());
        }
        EXPECT_LT(rel_l2_error(b, a), 4e-12)
            << c.kernel << " tier " << simd::tier_name(t);

        for (int r = 0; r < p; ++r)
          EXPECT_EQ(ref.eval_flops[r], run.eval_flops[r])
              << c.kernel << " rank " << r << " tier " << simd::tier_name(t);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndDistributions, EvalModeParity,
    ::testing::Values(
        Case{"laplace", Distribution::kUniform, true},
        Case{"laplace", Distribution::kEllipsoid, true},
        Case{"stokes", Distribution::kUniform, true},
        Case{"stokes", Distribution::kEllipsoid, true},
        Case{"yukawa", Distribution::kUniform, true},
        Case{"yukawa", Distribution::kEllipsoid, true},
        // Dense (non-FFT) M2L ablation path.
        Case{"laplace", Distribution::kEllipsoid, false},
        // Order 3: FFT grid 6. (Orders >= 5 are covered V-list-only by
        // EvalModeVliParity below.)
        Case{"laplace", Distribution::kUniform, true, 3},
        Case{"stokes", Distribution::kEllipsoid, true, 3}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = c.kernel;
      name += c.dist == Distribution::kUniform ? "Uniform" : "Ellipsoid";
      name += c.fft_vlist ? "Fft" : "Dense";
      if (c.surface_n != 4) name += "N" + std::to_string(c.surface_n);
      return name;
    });

/// The FFT V-list alone at other orders, from identical upward
/// densities: the scalar reference and the batched chunk-major sweep
/// must give the same check potentials (1e-12) and exactly equal
/// flops. End to end, scalar and batched differ by more than 1e-12 at
/// n >= 5 in phases this path does not touch — dense M2L included
/// (1.2e-11 at n = 5, 7.7e-9 at n = 7 on these trees) — because the
/// pinv-based operators amplify GEMM-vs-gemv rounding more as n grows.
/// Grids: 6 (n = 3), 9 (n = 5: 405 half-spectrum frequencies, padded
/// to 416) and 16 (n = 7).
class EvalModeVliParity : public ::testing::TestWithParam<Case> {};

TEST_P(EvalModeVliParity, ScalarMatchesBatchedFromSameDensities) {
  const Case c = GetParam();
  auto kernel = kernels::make_kernel(c.kernel);
  FmmOptions opts;
  opts.surface_n = c.surface_n;
  opts.max_points_per_leaf = 20;
  const Tables batched(*kernel, opts);
  opts.eval_mode = EvalMode::kScalar;
  const Tables scalar = batched.with_options(opts);
  ASSERT_EQ(scalar.spectrum_len() % Tables::kFreqChunk, 0u);

  const int p = 2;
  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(c.dist, 900, ctx.rank(), p,
                                       batched.sdim(), 91);
    ParallelFmm fmm(ctx, batched);
    fmm.setup(std::move(pts));
    Evaluator up(batched, fmm.let(), ctx);
    up.s2u();
    up.u2u();
    up.comm_reduce();

    std::uint64_t flops[2];
    std::vector<double> check[2];
    for (int k = 0; k < 2; ++k) {
      Evaluator ev(k == 0 ? scalar : batched, fmm.let(), ctx);
      std::copy(up.u().begin(), up.u().end(), ev.u_mutable().begin());
      const std::uint64_t f0 = ctx.flops.get("eval.vli");
      ev.vli();
      flops[k] = ctx.flops.get("eval.vli") - f0;
      check[k].assign(ev.checkpot().begin(), ev.checkpot().end());
    }
    EXPECT_GT(flops[0], 0u) << "rank " << ctx.rank();
    EXPECT_EQ(flops[0], flops[1]) << "rank " << ctx.rank();
    EXPECT_LT(rel_l2_error(check[1], check[0]), 1e-12)
        << "rank " << ctx.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndOrders, EvalModeVliParity,
    ::testing::Values(Case{"laplace", Distribution::kUniform, true, 3},
                      Case{"laplace", Distribution::kUniform, true, 5},
                      Case{"laplace", Distribution::kEllipsoid, true, 7},
                      Case{"stokes", Distribution::kEllipsoid, true, 3},
                      Case{"stokes", Distribution::kUniform, true, 5},
                      Case{"yukawa", Distribution::kEllipsoid, true, 5}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = c.kernel;
      name += c.dist == Distribution::kUniform ? "Uniform" : "Ellipsoid";
      return name + "N" + std::to_string(c.surface_n);
    });

}  // namespace
}  // namespace pkifmm::core
