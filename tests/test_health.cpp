/// Numerical-health layer tests (DESIGN.md §5g, obs/health.hpp):
///
///  - options validation: bad FmmOptions::health_sample_rate /
///    health_fatal combinations are rejected at Tables construction,
///    mirroring the set_densities contract style;
///  - sampler determinism: the accuracy sample is a pure function of
///    (gid, seed, step), so its size, membership digest and error sums
///    are identical for any thread count and its membership for any
///    rank count;
///  - clean-run guarantee: across kernels and distributions a healthy
///    run reports ZERO sentinel hits, matching digests on both global
///    digest pairs, and a sampled relative error within the offline
///    accuracy bound for the tables' surface_n;
///  - fault-injection matrix: a corruption injected into any
///    instrumented phase (s2u, reduce, d2t, ghost) is detected by the
///    digest/sentinel that claims that phase, across forced SIMD tiers
///    and thread counts;
///  - health_fatal: a NaN poisoned into the pipeline makes evaluate()
///    throw CheckFailure instead of silently producing NaN potentials;
///  - drift: DriftMonitor unit behavior plus TimeStepper end-to-end
///    drift-step accounting.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/fmm.hpp"
#include "core/timestep.hpp"
#include "kernels/kernel.hpp"
#include "obs/aggregate.hpp"
#include "obs/health.hpp"
#include "simd/simd.hpp"
#include "util/check.hpp"

namespace pkifmm::core {
namespace {

using obs::InjectPhase;
using obs::Injection;
using octree::Distribution;

/// Clears the process-wide test injection on scope exit so a failing
/// assertion cannot leak a corruption into later tests.
struct InjectionGuard {
  ~InjectionGuard() { obs::set_injection(std::nullopt); }
};

struct TierGuard {
  ~TierGuard() { simd::clear_forced_tier(); }
};

FmmOptions health_opts(double rate, bool fatal, int threads) {
  FmmOptions opts;
  opts.surface_n = 4;
  // q = 60 matches bench/repeat_eval: a healthy near/far split whose
  // end-to-end error sits well inside the offline surface_n = 4 bound
  // (test_fmm_properties gates 5e-3 there; this config measures ~1e-5).
  opts.max_points_per_leaf = 60;
  opts.health = true;
  opts.health_sample_rate = rate;
  opts.health_fatal = fatal;
  opts.threads_per_rank = threads;
  opts.clamp_threads = false;
  return opts;
}

/// Full setup + evaluate under the health layer; returns the
/// cross-rank summary document built from the per-rank reports (the
/// same path --summary-out takes).
obs::Json run_health(const std::string& kernel_name, Distribution dist,
                     int p, int threads, double rate, bool fatal,
                     std::uint64_t n = 1600) {
  auto kernel = kernels::make_kernel(kernel_name);
  const Tables tables(*kernel, health_opts(rate, fatal, threads));
  auto body = [&](comm::RankCtx& ctx) {
    auto pts =
        octree::generate_points(dist, n, ctx.rank(), p, tables.sdim(), 91);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    (void)fmm.evaluate();
  };
  auto reports = threads > 1 ? comm::Runtime::run(p, threads, false, body)
                             : comm::Runtime::run(p, body);
  return obs::summarize_metrics(reports);
}

double hfield(const obs::Json& summary, const char* section,
              const char* field) {
  return summary.at("health").at(section).at(field).as_double();
}

// ------------------------------------------------- options validation

TEST(HealthOptions, RejectsInvalidCombinations) {
  auto kernel = kernels::make_kernel("laplace");
  FmmOptions base;
  base.surface_n = 4;

  FmmOptions bad = base;
  bad.health = true;
  bad.health_sample_rate = -0.1;
  EXPECT_THROW(Tables(*kernel, bad), CheckFailure);
  bad.health_sample_rate = 1.5;
  EXPECT_THROW(Tables(*kernel, bad), CheckFailure);
  bad.health_sample_rate = std::nan("");
  EXPECT_THROW(Tables(*kernel, bad), CheckFailure);

  // health_fatal without the health layer is a contradiction: there
  // would be no sentinels to fail on.
  bad = base;
  bad.health_fatal = true;
  EXPECT_THROW(Tables(*kernel, bad), CheckFailure);

  // The flow ring needs room for one event, traced or not.
  for (const int cap : {0, -5}) {
    bad = base;
    bad.flow_capacity = cap;
    EXPECT_THROW(Tables(*kernel, bad), CheckFailure) << cap;
  }

  // with_options revalidates rebound options.
  const Tables tables(*kernel, base);
  FmmOptions rebound = base;
  rebound.health = true;
  rebound.health_sample_rate = 2.0;
  EXPECT_THROW(tables.with_options(rebound), CheckFailure);

  // Boundary values are legal: rate 0 (sentinels/digests only) and
  // rate 1 (sample everything).
  FmmOptions ok = base;
  ok.health = true;
  ok.health_sample_rate = 0.0;
  EXPECT_NO_THROW(tables.with_options(ok));
  ok.health_sample_rate = 1.0;
  ok.health_fatal = true;
  EXPECT_NO_THROW(tables.with_options(ok));
}

// --------------------------------------------------- sampler behavior

TEST(HealthSampler, DeterministicMembership) {
  const std::uint64_t seed = 0x5eed;
  std::set<std::int64_t> first;
  for (std::int64_t gid = 0; gid < 20000; ++gid)
    if (obs::health_sampled(gid, seed, 3, 0.01)) first.insert(gid);
  // Re-evaluation reproduces the same set (pure function).
  for (std::int64_t gid = 0; gid < 20000; ++gid)
    EXPECT_EQ(first.count(gid) == 1,
              obs::health_sampled(gid, seed, 3, 0.01));
  // The rate is honored in expectation: 20000 * 0.01 = 200 expected,
  // binomial stddev ~14 — a 6-sigma band never flakes.
  EXPECT_GT(first.size(), 110u);
  EXPECT_LT(first.size(), 290u);

  // A different step draws a materially different subset.
  std::set<std::int64_t> other;
  for (std::int64_t gid = 0; gid < 20000; ++gid)
    if (obs::health_sampled(gid, seed, 4, 0.01)) other.insert(gid);
  std::size_t common = 0;
  for (std::int64_t gid : first) common += other.count(gid);
  EXPECT_LT(common, first.size() / 4);

  // Edges: rate 0 selects nothing, rate 1 everything.
  EXPECT_FALSE(obs::health_sampled(7, seed, 1, 0.0));
  EXPECT_TRUE(obs::health_sampled(7, seed, 1, 1.0));
}

TEST(HealthSampler, ThreadCountInvariant) {
  const obs::Json t1 =
      run_health("laplace", Distribution::kEllipsoid, 2, 1, 0.05, true);
  const obs::Json t4 =
      run_health("laplace", Distribution::kEllipsoid, 2, 4, 0.05, true);
  ASSERT_GT(hfield(t1, "sample", "count"), 0.0);
  // Same sample set (count + membership digest) and — because the
  // potentials are bitwise identical across thread counts
  // (test_eval_threads) — the same error sums, bit for bit.
  EXPECT_EQ(hfield(t1, "sample", "count"), hfield(t4, "sample", "count"));
  EXPECT_EQ(hfield(t1, "sample", "gid_digest"),
            hfield(t4, "sample", "gid_digest"));
  EXPECT_EQ(hfield(t1, "sample", "err2"), hfield(t4, "sample", "err2"));
  EXPECT_EQ(hfield(t1, "sample", "ref2"), hfield(t4, "sample", "ref2"));
}

TEST(HealthSampler, RankCountInvariantMembership) {
  const obs::Json p1 =
      run_health("laplace", Distribution::kEllipsoid, 1, 1, 0.05, true);
  const obs::Json p2 =
      run_health("laplace", Distribution::kEllipsoid, 2, 1, 0.05, true);
  ASSERT_GT(hfield(p1, "sample", "count"), 0.0);
  // The same gids exist regardless of partition (generate_points
  // splits one global set), so the sampled membership is identical;
  // error sums may differ in the last bits (different reduction
  // orders), so they get a relative band instead of equality.
  EXPECT_EQ(hfield(p1, "sample", "count"), hfield(p2, "sample", "count"));
  EXPECT_EQ(hfield(p1, "sample", "gid_digest"),
            hfield(p2, "sample", "gid_digest"));
  const double e1 = std::sqrt(hfield(p1, "sample", "err2") /
                              hfield(p1, "sample", "ref2"));
  const double e2 = std::sqrt(hfield(p2, "sample", "err2") /
                              hfield(p2, "sample", "ref2"));
  EXPECT_LT(e2, 10.0 * e1 + 1e-12);
  EXPECT_LT(e1, 10.0 * e2 + 1e-12);
}

// ------------------------------------------------ clean-run guarantee

struct CleanCase {
  std::string kernel;
  Distribution dist;
  double err_bound;  ///< sampled rel err bound at surface_n = 4
};

/// gtest appends the printed parameter to each listed test name;
/// without this it prints CleanCase's raw bytes, which include the
/// kernel string's heap address and so change from build to build.
void PrintTo(const CleanCase& c, std::ostream* os) {
  *os << c.kernel << (c.dist == Distribution::kUniform ? " U" : " E")
      << " bound " << c.err_bound;
}

class HealthCleanRun : public ::testing::TestWithParam<CleanCase> {};

TEST_P(HealthCleanRun, NoSentinelHitsAndAccurateSample) {
  const CleanCase c = GetParam();
  // health_fatal on: any sentinel hit would throw out of evaluate()
  // and fail the test via the propagated CheckFailure.
  const obs::Json s = run_health(c.kernel, c.dist, 2, 1, 0.05, true);
  ASSERT_NO_THROW(obs::validate_summary_json(s));
  ASSERT_TRUE(s.contains("health"));

  EXPECT_EQ(hfield(s, "sentinels", "nonfinite"), 0.0);
  EXPECT_EQ(hfield(s, "sentinels", "moment_violations"), 0.0);
  EXPECT_EQ(hfield(s, "sentinels", "injected"), 0.0);
  EXPECT_TRUE(s.at("health").at("digests").at("ghost_match").as_bool());
  EXPECT_TRUE(s.at("health").at("digests").at("payload_match").as_bool());

  EXPECT_GT(hfield(s, "sample", "count"), 0.0);
  EXPECT_GT(hfield(s, "sample", "ref2"), 0.0);
  EXPECT_LT(hfield(s, "sample", "rel_err"), c.err_bound) << c.kernel;
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndDistributions, HealthCleanRun,
    // Bounds: ~5x the observed sampled error per case, all inside the
    // offline surface_n = 4 accuracy gate (5e-3, test_fmm_properties).
    // Uniform clouds see more far-field per target than surface
    // distributions, hence the looser uniform bounds.
    ::testing::Values(
        CleanCase{"laplace", Distribution::kUniform, 1e-3},
        CleanCase{"laplace", Distribution::kEllipsoid, 1e-4},
        CleanCase{"stokes", Distribution::kUniform, 5e-3},
        CleanCase{"stokes", Distribution::kEllipsoid, 1e-3},
        CleanCase{"yukawa", Distribution::kEllipsoid, 1e-3}),
    [](const ::testing::TestParamInfo<CleanCase>& info) {
      const CleanCase& c = info.param;
      return c.kernel + (c.dist == Distribution::kUniform ? "Uniform"
                                                          : "Ellipsoid");
    });

// --------------------------------------------- fault-injection matrix

/// Which summary digest must move when `phase` is corrupted.
double mapped_digest(const obs::Json& s, InjectPhase phase) {
  switch (phase) {
    case InjectPhase::kS2u:
      return hfield(s, "digests", "u");
    case InjectPhase::kReduce:
      return hfield(s, "digests", "reduce");
    case InjectPhase::kD2t:
      return hfield(s, "digests", "pot");
    case InjectPhase::kGhost:
      return hfield(s, "digests", "ghost");
    default:
      return 0.0;
  }
}

TEST(HealthInjection, EveryPhaseDetectedAcrossTiersAndThreads) {
  InjectionGuard inj_guard;
  TierGuard tier_guard;
  const Distribution dist = Distribution::kEllipsoid;
  // rate 0: the digests/sentinels under test don't need sampling, and
  // skipping the direct sums keeps the 16-run matrix fast.
  const double rate = 0.0;

  for (const bool force_scalar : {false, true}) {
    if (force_scalar)
      simd::force_tier(simd::Tier::kScalar);
    else
      simd::clear_forced_tier();
    for (const int threads : {1, 4}) {
      obs::set_injection(std::nullopt);
      const obs::Json clean =
          run_health("laplace", dist, 2, threads, rate, false);
      ASSERT_EQ(hfield(clean, "sentinels", "injected"), 0.0);

      for (const InjectPhase phase :
           {InjectPhase::kS2u, InjectPhase::kReduce, InjectPhase::kD2t,
            InjectPhase::kGhost}) {
        // Bit 40: a mid-mantissa flip — a value-preserving-magnitude
        // corruption that only a bit-exact digest can see.
        obs::set_injection(Injection{phase, /*rank=*/0, /*bit=*/40});
        const obs::Json hurt =
            run_health("laplace", dist, 2, threads, rate, false);
        const std::string label =
            "phase " + std::to_string(static_cast<int>(phase)) + " tier " +
            (force_scalar ? "scalar" : "default") + " threads " +
            std::to_string(threads);
        EXPECT_EQ(hfield(hurt, "sentinels", "injected"), 1.0) << label;
        EXPECT_NE(mapped_digest(hurt, phase), mapped_digest(clean, phase))
            << label;
        if (phase == InjectPhase::kGhost) {
          EXPECT_FALSE(
              hurt.at("health").at("digests").at("ghost_match").as_bool())
              << label;
        }
      }
      obs::set_injection(std::nullopt);
    }
  }
}

TEST(HealthInjection, NanPoisonTripsFatalSentinel) {
  InjectionGuard guard;
  obs::set_injection(Injection{InjectPhase::kS2u, 0, /*bit=*/-1});
  // health_fatal: the post-S2U non-finite scan must throw CheckFailure
  // out of evaluate(), which Runtime::run propagates to the caller.
  EXPECT_THROW(
      run_health("laplace", Distribution::kEllipsoid, 2, 1, 0.0, true),
      CheckFailure);
  // Without health_fatal the same poison is recorded, not thrown.
  const obs::Json s =
      run_health("laplace", Distribution::kEllipsoid, 2, 1, 0.0, false);
  EXPECT_GT(hfield(s, "sentinels", "nonfinite"), 0.0);
  EXPECT_EQ(hfield(s, "sentinels", "injected"), 1.0);
}

TEST(HealthInjection, ParseSpec) {
  const auto inj = obs::parse_injection("s2u:1:40");
  ASSERT_TRUE(inj.has_value());
  EXPECT_EQ(inj->phase, InjectPhase::kS2u);
  EXPECT_EQ(inj->rank, 1);
  EXPECT_EQ(inj->bit, 40);

  const auto nan_inj = obs::parse_injection("ghost:0:nan");
  ASSERT_TRUE(nan_inj.has_value());
  EXPECT_EQ(nan_inj->phase, InjectPhase::kGhost);
  EXPECT_EQ(nan_inj->bit, -1);

  EXPECT_EQ(obs::parse_injection("reduce:2:0")->phase, InjectPhase::kReduce);
  EXPECT_EQ(obs::parse_injection("d2t:0:63")->phase, InjectPhase::kD2t);

  for (const char* bad :
       {"", "s2u", "s2u:0", "bogus:0:1", "s2u:x:1", "s2u:0:64", "s2u:0:-2",
        "s2u:0:", "s2u::1", "s2u:0:1:extra"})
    EXPECT_FALSE(obs::parse_injection(bad).has_value()) << bad;
}

// ----------------------------------------------------- digest algebra

TEST(HealthDigest, OrderIndependentAcrossChunksNotWithin) {
  const std::vector<double> a{1.5, -2.25, 3.0};
  const std::vector<double> b{0.125, 7.75};
  // Summed chunk digests are independent of chunk visit order...
  EXPECT_EQ(obs::chunk_digest(a, 11) + obs::chunk_digest(b, 22),
            obs::chunk_digest(b, 22) + obs::chunk_digest(a, 11));
  // ...but each chunk hash is order-dependent (layout check) and
  // seed-dependent (node identity check).
  const std::vector<double> a_rev{3.0, -2.25, 1.5};
  EXPECT_NE(obs::chunk_digest(a, 11), obs::chunk_digest(a_rev, 11));
  EXPECT_NE(obs::chunk_digest(a, 11), obs::chunk_digest(a, 12));
  // A single-bit change moves the digest.
  std::vector<double> a_flip = a;
  a_flip[1] = std::nextafter(a_flip[1], 0.0);
  EXPECT_NE(obs::chunk_digest(a, 11), obs::chunk_digest(a_flip, 11));
  // Signed zeros that compare equal digest equal.
  EXPECT_EQ(obs::chunk_digest(std::vector<double>{0.0}, 5),
            obs::chunk_digest(std::vector<double>{-0.0}, 5));
}

TEST(HealthDigest, NonfiniteCount) {
  const std::vector<double> v{1.0, std::nan(""), -2.0,
                              std::numeric_limits<double>::infinity()};
  EXPECT_EQ(obs::nonfinite_count(v), 2u);
  EXPECT_EQ(obs::nonfinite_count(std::vector<double>{1.0, 2.0}), 0u);
}

// -------------------------------------------------------------- drift

TEST(HealthDrift, MonitorWarnsPastBaselineRatio) {
  obs::DriftMonitor mon(10.0, /*warmup=*/2, /*floor=*/1e-14);
  EXPECT_FALSE(mon.observe(1e-6));  // warmup
  EXPECT_FALSE(mon.observe(3e-6));  // warmup
  EXPECT_DOUBLE_EQ(mon.baseline(), 2e-6);
  EXPECT_FALSE(mon.observe(1.9e-5));  // 9.5x baseline: under ratio
  EXPECT_TRUE(mon.observe(2.1e-5));   // 10.5x: warns
  EXPECT_FALSE(mon.observe(1e-6));    // recovery is not sticky

  // A ~zero baseline falls back to the floor instead of flagging any
  // nonzero error.
  obs::DriftMonitor zero(10.0, 2, 1e-14);
  EXPECT_FALSE(zero.observe(0.0));
  EXPECT_FALSE(zero.observe(0.0));
  EXPECT_FALSE(zero.observe(5e-14));  // under 10 x floor
  EXPECT_TRUE(zero.observe(2e-13));   // over 10 x floor
}

TEST(HealthDrift, TimeStepperCountsStableSteps) {
  auto kernel = kernels::make_kernel("laplace");
  const Tables tables(*kernel, health_opts(0.05, true, 1));
  const int p = 2, steps = 3;
  auto reports = comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(Distribution::kEllipsoid, 1600,
                                       ctx.rank(), p, tables.sdim(), 91);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    (void)fmm.evaluate();
    TimeStepOptions ts_opts;
    ts_opts.dt = 0.01;
    ts_opts.move_fraction = 0.05;
    const VelocityFn swirl = [](std::uint64_t,
                                const std::array<double, 3>& x, double) {
      return std::array<double, 3>{-(x[1] - 0.5), x[0] - 0.5, 0.0};
    };
    TimeStepper ts(fmm, swirl, ts_opts);
    for (int s = 0; s < steps; ++s) {
      (void)ts.step();
      (void)fmm.evaluate();
    }
  });
  const obs::Json s = obs::summarize_metrics(reports);
  ASSERT_TRUE(s.contains("health"));
  // Every step() found fresh cumulative sample sums from the evaluate
  // before it, and a mild advection never drifts past 10x baseline.
  EXPECT_EQ(hfield(s, "drift", "steps"), static_cast<double>(steps));
  EXPECT_EQ(hfield(s, "drift", "warnings"), 0.0);
  EXPECT_GT(hfield(s, "drift", "err_max"), 0.0);
  EXPECT_LT(hfield(s, "drift", "err_max"), 1e-3);
}

}  // namespace
}  // namespace pkifmm::core
