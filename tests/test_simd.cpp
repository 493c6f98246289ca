/// \file test_simd.cpp
/// \brief Contract tests for the runtime-dispatched SIMD tiers:
/// dispatch/override plumbing, cross-tier numerical parity (<= 1e-12),
/// bitwise invariance to caller window splits within a tier, and the
/// unified coincident-point guard (including negative-zero
/// coordinates).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "kernels/kernel.hpp"
#include "la/matrix.hpp"
#include "simd/ops_impl.hpp"
#include "simd/simd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pkifmm::simd {
namespace {

double rel_err(std::span<const double> a, std::span<const double> b) {
  EXPECT_EQ(a.size(), b.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

std::vector<double> random_vec(std::size_t n, std::uint64_t seed, double lo,
                               double hi) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Restores the pre-test dispatch state after every forced-tier test.
class SimdTest : public ::testing::Test {
 protected:
  void TearDown() override { clear_forced_tier(); }
};

TEST(SimdTier, NamesRoundTrip) {
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512})
    EXPECT_EQ(parse_tier(tier_name(t)), t);
}

TEST(SimdTier, ParseRejectsJunk) {
  EXPECT_THROW(parse_tier("sse9"), CheckFailure);
  EXPECT_THROW(parse_tier(""), CheckFailure);
  EXPECT_THROW(parse_tier("AVX2"), CheckFailure);  // case-sensitive
}

TEST(SimdTier, ScalarAlwaysAvailable) {
  EXPECT_TRUE(tier_compiled(Tier::kScalar));
  EXPECT_TRUE(tier_supported(Tier::kScalar));
  const auto tiers = available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), Tier::kScalar);
  // Ascending, no duplicates.
  for (std::size_t i = 1; i < tiers.size(); ++i)
    EXPECT_LT(tiers[i - 1], tiers[i]);
}

TEST(SimdTier, DetectedTierIsSupported) {
  const Tier t = detect_tier();
  EXPECT_TRUE(tier_supported(t));
  const Ops& o = ops_for_tier(t);
  EXPECT_EQ(o.tier, t);
  EXPECT_GE(o.width, 1u);
}

TEST(SimdTier, TableShapePerTier) {
  for (Tier t : available_tiers()) {
    const Ops& o = ops_for_tier(t);
    EXPECT_EQ(o.tier, t);
    EXPECT_STREQ(o.name, tier_name(t));
    const std::size_t want =
        t == Tier::kScalar ? 1u : (t == Tier::kAvx2 ? 4u : 8u);
    EXPECT_EQ(o.width, want);
    EXPECT_NE(o.axpyn, nullptr);
    EXPECT_NE(o.gemm_rows, nullptr);
    EXPECT_NE(o.cmac, nullptr);
    EXPECT_NE(o.cmac_entries, nullptr);
    EXPECT_NE(o.vli_mac_block, nullptr);
    EXPECT_NE(o.dft_x, nullptr);
    EXPECT_NE(o.dft_yz, nullptr);
    EXPECT_NE(o.laplace, nullptr);
    EXPECT_NE(o.laplace_grad, nullptr);
    EXPECT_NE(o.stokes, nullptr);
    EXPECT_NE(o.stokes_reg, nullptr);
    EXPECT_NE(o.laplace_mutual, nullptr);
    EXPECT_NE(o.stokes_mutual, nullptr);
  }
}

TEST_F(SimdTest, ForceTierSticksAndClears) {
  for (Tier t : available_tiers()) {
    force_tier(t);
    EXPECT_EQ(active_tier(), t);
    EXPECT_EQ(ops().tier, t);
  }
  clear_forced_tier();
  // Re-resolves from CPUID (no PKIFMM_SIMD set under ctest by default;
  // if it is set it can only lower the tier, which is still supported).
  EXPECT_TRUE(tier_supported(active_tier()));
}

// ---------------------------------------------------------------------------
// axpyn
// ---------------------------------------------------------------------------

/// Sequential reference: nk single-row passes, ascending r.
void axpyn_ref(const double* a, const double* const* xs, std::size_t nk,
               double* y, std::size_t n) {
  for (std::size_t r = 0; r < nk; ++r)
    for (std::size_t j = 0; j < n; ++j) y[j] += a[r] * xs[r][j];
}

TEST_F(SimdTest, AxpynMatchesSequentialPasses) {
  // Sizes straddle every tier's vector width to exercise masked tails.
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u,
                              31u, 33u, 128u}) {
    for (std::size_t nk = 1; nk <= kAxpynMaxK; ++nk) {
      const auto a = random_vec(nk, 10 * n + nk, -2.0, 2.0);
      std::vector<std::vector<double>> xs;
      std::vector<const double*> xp;
      for (std::size_t r = 0; r < nk; ++r) {
        xs.push_back(random_vec(n, 100 * n + r, -1.0, 1.0));
        xp.push_back(xs.back().data());
      }
      const auto y0 = random_vec(n, 7 * n + nk, -1.0, 1.0);

      auto ref = y0;
      axpyn_ref(a.data(), xp.data(), nk, ref.data(), n);

      for (Tier t : available_tiers()) {
        auto y = y0;
        ops_for_tier(t).axpyn(a.data(), xp.data(), nk, y.data(), n);
        EXPECT_LT(rel_err(y, ref), 1e-12)
            << tier_name(t) << " n=" << n << " nk=" << nk;
        if (t == Tier::kScalar) {
          // The scalar tier folds k terms in the same association as
          // the sequential passes and cannot contract (its TU has no
          // FMA): bitwise equal.
          for (std::size_t j = 0; j < n; ++j)
            EXPECT_EQ(y[j], ref[j]) << "n=" << n << " nk=" << nk;
        }
      }
    }
  }
}

TEST_F(SimdTest, AxpynBitwiseInvariantToWindowSplit) {
  // y[j] depends only on index j, so computing [0, n) in one call or as
  // [0, cut) + [cut, n) must agree BITWISE — la::gemm_acc's column
  // blocks rely on it.
  const std::size_t n = 67;
  const std::size_t nk = 3;
  const auto a = random_vec(nk, 1, -2.0, 2.0);
  std::vector<std::vector<double>> xs;
  std::vector<const double*> xp;
  for (std::size_t r = 0; r < nk; ++r) {
    xs.push_back(random_vec(n, 2 + r, -1.0, 1.0));
    xp.push_back(xs.back().data());
  }
  const auto y0 = random_vec(n, 9, -1.0, 1.0);

  for (Tier t : available_tiers()) {
    const Ops& o = ops_for_tier(t);
    auto whole = y0;
    o.axpyn(a.data(), xp.data(), nk, whole.data(), n);
    for (const std::size_t cut : {1u, 3u, 8u, 13u, 32u, 66u}) {
      auto split = y0;
      std::vector<const double*> xhi;
      for (std::size_t r = 0; r < nk; ++r) xhi.push_back(xp[r] + cut);
      o.axpyn(a.data(), xp.data(), nk, split.data(), cut);
      o.axpyn(a.data(), xhi.data(), nk, split.data() + cut, n - cut);
      for (std::size_t j = 0; j < n; ++j)
        EXPECT_EQ(split[j], whole[j])
            << tier_name(t) << " cut=" << cut << " j=" << j;
    }
  }
}

// ---------------------------------------------------------------------------
// gemm_rows
// ---------------------------------------------------------------------------

/// One gemm_rows batch: an operator A (rows x cols) and its transpose,
/// n + 2 node-major input rows read in reverse order, and 2n + 1 output
/// rows of which the batch writes the odd ones in a shuffled order; the
/// even rows are guards that must keep their values.
struct RowsCase {
  la::Matrix a, at;
  std::vector<double> x, y0;
  std::vector<std::int32_t> in, out;
};

RowsCase rows_case(std::size_t rows, std::size_t cols, std::size_t n,
                   std::uint64_t seed) {
  RowsCase c;
  Rng rng(seed);
  c.a = la::Matrix(rows, cols);
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t k = 0; k < cols; ++k) c.a(i, k) = rng.uniform(-1, 1);
  c.at = c.a.transposed();
  c.x = random_vec((n + 2) * cols, seed + 1, -1.0, 1.0);
  c.y0 = random_vec((2 * n + 1) * rows, seed + 2, -1.0, 1.0);
  for (std::size_t j = 0; j < n; ++j) {
    c.in.push_back(static_cast<std::int32_t>(n + 1 - j));
    c.out.push_back(static_cast<std::int32_t>(2 * j + 1));
  }
  for (std::size_t j = n; j > 1; --j)
    std::swap(c.out[j - 1], c.out[rng.next_u64() % j]);
  return c;
}

/// The evaluator's former path under tier t, as plain loops around
/// la::gemm_acc: gather the input rows into a column batch, one
/// gemm_acc into a zeroed batch, and add column j into row out[j].
std::vector<double> rows_reference(const RowsCase& c, double alpha, Tier t) {
  force_tier(t);
  const std::size_t rows = c.a.rows(), cols = c.a.cols(), n = c.in.size();
  std::vector<double> b(cols * n), acc(rows * n, 0.0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t k = 0; k < cols; ++k)
      b[k * n + j] = c.x[std::size_t(c.in[j]) * cols + k];
  la::gemm_acc(c.a, b, acc, n, alpha);
  std::vector<double> y = c.y0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < rows; ++i)
      y[std::size_t(c.out[j]) * rows + i] += acc[i * n + j];
  return y;
}

/// gemm_rows under tier t over the windows [cuts[w], cuts[w + 1]).
std::vector<double> rows_op(const RowsCase& c, double alpha, Tier t,
                            const std::vector<std::size_t>& cuts) {
  std::vector<double> y = c.y0;
  for (std::size_t w = 0; w + 1 < cuts.size(); ++w)
    ops_for_tier(t).gemm_rows(c.at.data(), c.a.rows(), c.a.cols(), alpha,
                              c.x.data(), c.in.data() + cuts[w], y.data(),
                              c.out.data() + cuts[w], cuts[w + 1] - cuts[w]);
  return y;
}

/// Elements whose bits differ.
std::size_t bit_mismatches(const std::vector<double>& a,
                           const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    bad += std::memcmp(&a[i], &b[i], sizeof(double)) != 0;
  return bad;
}

TEST_F(SimdTest, GemmRowsMatchesGemmAccPerTier) {
  // Bitwise equal to gather + gemm_acc + scatter within each tier, within
  // 1e-12 of the scalar tier, guard rows untouched. The shapes straddle
  // each tier's vector width and tile (8 x 3 AVX-512, 4 x 3 AVX2, 4 x 4
  // scalar) and cover the surface operators' orders: 56 (Laplace n = 4),
  // 152 (Laplace n = 6), 168 (Stokes n = 4).
  const std::size_t dims[] = {1, 7, 8, 9, 23, 24, 25, 56, 152, 168};
  const double alpha = 0.3;  // not a power of two: alpha a_ik rounds
  for (const std::size_t rows : dims)
    for (const std::size_t cols : dims)
      for (const std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 17u, 64u}) {
        const RowsCase c = rows_case(rows, cols, n, 1000 * rows + cols + n);
        std::vector<double> scalar;
        for (Tier t : available_tiers()) {
          const std::vector<double> y = rows_op(c, alpha, t, {0, n});
          const std::string where = std::string(tier_name(t)) + " " +
                                    std::to_string(rows) + "x" +
                                    std::to_string(cols) +
                                    " n=" + std::to_string(n);
          EXPECT_EQ(bit_mismatches(y, rows_reference(c, alpha, t)), 0u)
              << where;
          for (std::size_t g = 0; g <= 2 * n; g += 2)
            EXPECT_EQ(std::memcmp(y.data() + g * rows, c.y0.data() + g * rows,
                                  rows * sizeof(double)),
                      0)
                << where << " guard row " << g;
          if (t == Tier::kScalar)
            scalar = y;
          else
            EXPECT_LE(rel_err(y, scalar), 1e-12) << where;
        }
      }
}

TEST_F(SimdTest, GemmRowsBitwiseInvariantToWindowSplit) {
  // Each output element is one chain that no other node of the call
  // touches, so any split of [0, n) into windows (the evaluator's
  // kColGrain windows over the pool) gives the unsplit call's bits.
  struct Shape {
    std::size_t rows, cols, n;
  };
  for (const Shape sh : {Shape{152, 152, 64}, Shape{168, 168, 17},
                         Shape{23, 25, 9}, Shape{56, 56, 8}}) {
    const RowsCase c = rows_case(sh.rows, sh.cols, sh.n, 77 + sh.rows);
    for (Tier t : available_tiers()) {
      const std::size_t n = sh.n;
      const std::vector<double> whole = rows_op(c, 0.75, t, {0, n});
      std::vector<std::size_t> singles, fives;
      for (std::size_t j = 0; j <= n; ++j) singles.push_back(j);
      for (std::size_t j = 0; j < n; j += 5) fives.push_back(j);
      fives.push_back(n);
      for (const std::vector<std::size_t>& cuts :
           {std::vector<std::size_t>{0, 1, n}, {0, n - 1, n},
            {0, n / 3, 2 * n / 3, n}, singles, fives})
        EXPECT_EQ(bit_mismatches(rows_op(c, 0.75, t, cuts), whole), 0u)
            << tier_name(t) << " " << sh.rows << "x" << sh.cols
            << " n=" << n << " windows " << cuts.size() - 1;
    }
  }
}

TEST_F(SimdTest, GemmRowsZeroEntriesMatchGemmAccSkip) {
  // gemm_acc skips a_ik == 0; the tile multiplies it. With finite inputs
  // the +0 term adds +-0 to a chain that started at +0 and cannot reach
  // -0, so the results are equal bit for bit (DESIGN.md §5e). Inputs
  // hold zeros of both signs too.
  for (const std::size_t dim : {9u, 56u, 168u}) {
    RowsCase c = rows_case(dim, dim, 7, 5 + dim);
    for (std::size_t i = 0; i < dim; ++i)
      for (std::size_t k = 0; k < dim; ++k)
        if ((i + 2 * k) % 3 == 0 || i == 1 || k == 2) c.a(i, k) = 0.0;
    c.at = c.a.transposed();
    for (std::size_t e = 0; e < c.x.size(); e += 5)
      c.x[e] = e % 10 == 0 ? 0.0 : -0.0;
    for (Tier t : available_tiers())
      EXPECT_EQ(bit_mismatches(rows_op(c, 0.5, t, {0, 7}),
                               rows_reference(c, 0.5, t)),
                0u)
          << tier_name(t) << " " << dim;
  }
}

// ---------------------------------------------------------------------------
// cmac
// ---------------------------------------------------------------------------

/// Hand-rolled two-product reference (the pre-SIMD pointwise_mac body).
void cmac_ref(const double* g, const double* f, double* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double gr = g[2 * i], gi = g[2 * i + 1];
    const double fr = f[2 * i], fi = f[2 * i + 1];
    acc[2 * i] += gr * fr - gi * fi;
    acc[2 * i + 1] += gr * fi + gi * fr;
  }
}

TEST_F(SimdTest, CmacMatchesReference) {
  for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 31u,
                              1024u}) {
    const auto g = random_vec(2 * n, 3 * n, -1.0, 1.0);
    const auto f = random_vec(2 * n, 5 * n, -1.0, 1.0);
    const auto a0 = random_vec(2 * n, 7 * n, -1.0, 1.0);

    auto ref = a0;
    cmac_ref(g.data(), f.data(), ref.data(), n);

    for (Tier t : available_tiers()) {
      auto acc = a0;
      ops_for_tier(t).cmac(g.data(), f.data(), acc.data(), n);
      EXPECT_LT(rel_err(acc, ref), 1e-12) << tier_name(t) << " n=" << n;
      if (t == Tier::kScalar) {
        for (std::size_t i = 0; i < 2 * n; ++i)
          EXPECT_EQ(acc[i], ref[i]) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(SimdTest, CmacBitwiseInvariantToChunking) {
  const std::size_t n = 53;  // odd complex count -> tails everywhere
  const auto g = random_vec(2 * n, 41, -1.0, 1.0);
  const auto f = random_vec(2 * n, 42, -1.0, 1.0);
  const auto a0 = random_vec(2 * n, 43, -1.0, 1.0);

  for (Tier t : available_tiers()) {
    const Ops& o = ops_for_tier(t);
    auto whole = a0;
    o.cmac(g.data(), f.data(), whole.data(), n);
    for (const std::size_t cut : {1u, 2u, 5u, 13u, 26u, 52u}) {
      auto split = a0;
      o.cmac(g.data(), f.data(), split.data(), cut);
      o.cmac(g.data() + 2 * cut, f.data() + 2 * cut, split.data() + 2 * cut,
             n - cut);
      for (std::size_t i = 0; i < 2 * n; ++i)
        EXPECT_EQ(split[i], whole[i])
            << tier_name(t) << " cut=" << cut << " i=" << i;
    }
  }
}

TEST_F(SimdTest, CmacEntriesMatchesPerEntryCmac) {
  // One operator chunk over an entry list, against a loop of the same
  // tier's cmac, bitwise: c = 16 (Tables::kFreqChunk, one held block),
  // 20 (a block plus a remainder), 5 and 1 (narrower than a block).
  // Accumulator 2 is hit twice, so the entry order matters; an empty
  // list leaves the accumulators untouched.
  const std::size_t nslots = 6;
  const std::vector<std::int32_t> fidx = {0, 5, 2, 5, 3};
  const std::vector<std::int32_t> aidx = {2, 0, 2, 4, 1};
  for (const std::size_t c : {16u, 20u, 5u, 1u}) {
    const auto g = random_vec(2 * c, 60 + c, -1.0, 1.0);
    const auto f = random_vec(2 * c * nslots, 61 + c, -1.0, 1.0);
    const auto a0 = random_vec(2 * c * nslots, 62 + c, -1.0, 1.0);
    for (Tier t : available_tiers()) {
      const Ops& o = ops_for_tier(t);
      auto ref = a0;
      for (std::size_t e = 0; e < fidx.size(); ++e)
        o.cmac(g.data(), f.data() + 2 * c * fidx[e],
               ref.data() + 2 * c * aidx[e], c);
      auto acc = a0;
      o.cmac_entries(g.data(), c, f.data(), acc.data(), fidx.data(),
                     aidx.data(), fidx.size());
      for (std::size_t i = 0; i < acc.size(); ++i)
        EXPECT_EQ(acc[i], ref[i]) << tier_name(t) << " c=" << c << " i=" << i;
      auto none = a0;
      o.cmac_entries(g.data(), c, f.data(), none.data(), fidx.data(),
                     aidx.data(), 0);
      EXPECT_EQ(none, a0) << tier_name(t) << " c=" << c;
    }
  }
}

// ---------------------------------------------------------------------------
// vli_mac_block
// ---------------------------------------------------------------------------

/// One frequency block of a sibling-blocked V-list MAC: random operator
/// and source blocks and a plan of three target parents. Parents hold
/// non-target children (tgt -1), colleagues hold missing source
/// children (src -1) and masked pairs, whose op_index entries name
/// random nonzero operators, so a masked pair that is multiplied
/// changes the result. Operator kZeroOp is all zero.
struct VliProblem {
  static constexpr int kOps = 12;
  static constexpr int kZeroOp = kOps - 1;
  static constexpr std::size_t kSrc = 24, kTgt = 20;
  int td, sd;
  std::vector<double> g, s, acc0;
  std::vector<std::int32_t> op_index;
  std::vector<VliParent> parents;
  std::vector<VliColleague> colleagues;
};

VliProblem make_vli_problem(int td, int sd, std::uint64_t seed) {
  constexpr std::size_t B = kVliBlockDoubles;
  VliProblem p;
  p.td = td;
  p.sd = sd;
  p.g = random_vec(VliProblem::kOps * td * sd * B, seed, -1.0, 1.0);
  std::fill(p.g.begin() + VliProblem::kZeroOp * td * sd * B, p.g.end(), 0.0);
  p.s = random_vec(VliProblem::kSrc * sd * B, seed + 1, -1.0, 1.0);
  p.acc0 = random_vec(VliProblem::kTgt * td * B, seed + 2, -1.0, 1.0);
  Rng rng(seed + 3);
  p.op_index.resize(27 * 64);
  for (auto& o : p.op_index)
    o = static_cast<std::int32_t>(rng.uniform_u64(VliProblem::kZeroOp));
  const std::int32_t tgt[3][8] = {{0, 1, -1, 2, 3, -1, 4, 5},
                                  {6, 7, 8, 9, 10, 11, 12, 13},
                                  {-1, 14, 15, -1, -1, 16, 17, -1}};
  for (int pi = 0; pi < 3; ++pi) {
    VliParent par{};
    std::copy(tgt[pi], tgt[pi] + 8, par.tgt);
    par.c0 = static_cast<std::uint32_t>(p.colleagues.size());
    for (int e = 0; e < 4 + pi; ++e) {
      VliColleague col{};
      col.dir = static_cast<std::int32_t>(rng.uniform_u64(26));
      if (col.dir >= 13) ++col.dir;  // never the parent itself
      for (int cs = 0; cs < 8; ++cs) {
        const bool missing = rng.uniform() < 0.2;
        // Slot kSrc - 1 is left for the NaN test.
        col.src[cs] = missing ? -1
                              : static_cast<std::int32_t>(
                                    rng.uniform_u64(VliProblem::kSrc - 1));
        for (int ct = 0; ct < 8; ++ct) {
          const bool pair =
              !missing && par.tgt[ct] >= 0 && rng.uniform() < 0.75;
          if (pair) col.pairs |= std::uint64_t{1} << (8 * cs + ct);
        }
      }
      p.colleagues.push_back(col);
    }
    par.c1 = static_cast<std::uint32_t>(p.colleagues.size());
    p.parents.push_back(par);
  }
  return p;
}

/// Ops::vli_mac_block's per-element chain as a plain loop: fused
/// multiply-adds (std::fma) for the vector tiers, a separate multiply
/// and add for the scalar tier.
std::vector<double> vli_mac_ref(const VliProblem& p, bool fused) {
  constexpr std::size_t B = kVliBlockDoubles, H = kVliBlock;
  const auto fmadd = [fused](double a, double b, double c) {
    return fused ? std::fma(a, b, c) : a * b + c;
  };
  const auto fnmadd = [fused](double a, double b, double c) {
    return fused ? std::fma(-a, b, c) : c - a * b;
  };
  std::vector<double> acc = p.acc0;
  for (const VliParent& par : p.parents) {
    std::vector<double> re(8 * p.td * H, 0.0), im(8 * p.td * H, 0.0);
    for (std::uint32_t e = par.c0; e < par.c1; ++e) {
      const VliColleague& col = p.colleagues[e];
      for (int cs = 0; cs < 8; ++cs)
        for (int ct = 0; ct < 8; ++ct) {
          if (!((col.pairs >> (8 * cs + ct)) & 1)) continue;
          const std::size_t o = p.op_index[64 * col.dir + 8 * cs + ct];
          for (int ti = 0; ti < p.td; ++ti)
            for (int sc = 0; sc < p.sd; ++sc)
              for (std::size_t k = 0; k < H; ++k) {
                const double* g = &p.g[(o * p.td * p.sd + ti * p.sd + sc) * B];
                const double* s = &p.s[(col.src[cs] * p.sd + sc) * B];
                double& r = re[(ct * p.td + ti) * H + k];
                double& i = im[(ct * p.td + ti) * H + k];
                r = fmadd(g[k], s[k], r);
                r = fnmadd(g[H + k], s[H + k], r);
                i = fmadd(g[k], s[H + k], i);
                i = fmadd(g[H + k], s[k], i);
              }
        }
    }
    for (int ct = 0; ct < 8; ++ct) {
      if (par.tgt[ct] < 0) continue;
      for (int ti = 0; ti < p.td; ++ti)
        for (std::size_t k = 0; k < H; ++k) {
          double* a = &acc[(par.tgt[ct] * p.td + ti) * B];
          a[k] = re[(ct * p.td + ti) * H + k];
          a[H + k] = im[(ct * p.td + ti) * H + k];
        }
    }
  }
  return acc;
}

std::vector<double> run_vli_mac(const Ops& o, const VliProblem& p) {
  std::vector<double> acc = p.acc0;
  o.vli_mac_block(p.g.data(), p.op_index.data(), p.s.data(), acc.data(),
                  p.td, p.sd, p.parents.data(), p.parents.size(),
                  p.colleagues.data());
  return acc;
}

TEST_F(SimdTest, VliMacBlockMatchesPlainChainBitwise) {
  // Within a tier the op is the plain chain, whatever its register
  // tiling: same pairs, same order, each element's four steps. Slots no
  // parent names (18, 19) keep their values.
  for (const auto& [td, sd] : {std::pair{1, 1}, std::pair{3, 3}}) {
    const VliProblem p = make_vli_problem(td, sd, 100 + 10 * td);
    for (Tier t : available_tiers()) {
      const std::vector<double> ref = vli_mac_ref(p, t != Tier::kScalar);
      const std::vector<double> acc = run_vli_mac(ops_for_tier(t), p);
      for (std::size_t i = 0; i < acc.size(); ++i)
        ASSERT_EQ(acc[i], ref[i])
            << tier_name(t) << " td=" << td << " sd=" << sd << " i=" << i;
    }
  }
}

TEST_F(SimdTest, VliMacBlockCrossTierParity) {
  for (const auto& [td, sd] : {std::pair{1, 1}, std::pair{3, 3}}) {
    const VliProblem p = make_vli_problem(td, sd, 200 + 10 * td);
    const std::vector<double> ref = run_vli_mac(ops_for_tier(Tier::kScalar), p);
    for (Tier t : available_tiers())
      EXPECT_LT(rel_err(run_vli_mac(ops_for_tier(t), p), ref), 1e-12)
          << tier_name(t) << " td=" << td << " sd=" << sd;
  }
}

TEST_F(SimdTest, VliMacBlockMaskedNaNSourceStaysOut) {
  // A present source child whose pairs are all masked is never read: a
  // NaN spectrum there must not reach any accumulator, not even through
  // a zero operator named by its masked op_index entries.
  for (const auto& [td, sd] : {std::pair{1, 1}, std::pair{3, 3}}) {
    VliProblem p = make_vli_problem(td, sd, 300 + 10 * td);
    VliColleague& col = p.colleagues[1];
    const int cs = 2;
    col.src[cs] = VliProblem::kSrc - 1;
    col.pairs &= ~(std::uint64_t{0xFF} << (8 * cs));
    for (int ct = 0; ct < 8; ++ct)
      p.op_index[64 * col.dir + 8 * cs + ct] = VliProblem::kZeroOp;
    std::fill(p.s.begin() + (VliProblem::kSrc - 1) * sd * kVliBlockDoubles,
              p.s.end(), std::numeric_limits<double>::quiet_NaN());
    for (Tier t : available_tiers())
      for (double v : run_vli_mac(ops_for_tier(t), p))
        ASSERT_TRUE(std::isfinite(v)) << tier_name(t) << " td=" << td;
  }
}

// ---------------------------------------------------------------------------
// DFT stages
// ---------------------------------------------------------------------------

/// Operands of one DFT stage on strided, gapped buffers. Every output
/// value starts as a sentinel, so a write outside the documented
/// elements shows.
struct DftProblem {
  static constexpr double kSentinel = -7.25;
  std::vector<double> tr, ti, xr, xi, yr, yi;
  DftStage st;

  DftProblem(DftStage shape, bool real_in, bool real_out, std::size_t x_len,
             std::size_t y_len, std::uint64_t seed)
      : tr(random_vec(shape.ts * std::max(shape.n_in, shape.n_out), seed,
                      -1, 1)),
        ti(random_vec(tr.size(), seed + 1, -1, 1)),
        xr(random_vec(x_len, seed + 2, -1, 1)),
        xi(random_vec(x_len, seed + 3, -1, 1)),
        yr(y_len, kSentinel),
        yi(y_len, kSentinel),
        st(shape) {
    st.tr = tr.data();
    st.ti = ti.data();
    st.xr = xr.data();
    st.xi = real_in ? nullptr : xi.data();
    st.yr = yr.data();
    st.yi = real_out ? nullptr : yi.data();
  }
};

/// Ops::dft_x's documented chain, one element at a time, with std::fma.
void dft_x_ref(DftProblem& p) {
  const DftStage& st = p.st;
  for (std::size_t l = 0; l < st.lines; ++l)
    for (std::size_t j = 0; j < st.n_out; ++j) {
      double re = 0.0, im = 0.0;
      for (std::size_t t = 0; t < st.n_in; ++t) {
        const double cr = st.tr[t * st.ts + j], ci = st.ti[t * st.ts + j];
        const std::size_t at = l * st.x_line + t * st.x_step;
        re = std::fma(st.xr[at], cr, re);
        if (st.xi) re = std::fma(-st.xi[at], ci, re);
        im = std::fma(st.xr[at], ci, im);
        if (st.xi) im = std::fma(st.xi[at], cr, im);
      }
      p.yr[l * st.y_line + j] = re;
      if (st.yi) p.yi[l * st.y_line + j] = im;
    }
}

/// Ops::dft_yz's documented chain, one element at a time, with std::fma.
void dft_yz_ref(DftProblem& p) {
  const DftStage& st = p.st;
  for (std::size_t l = 0; l < st.lines; ++l)
    for (std::size_t o = 0; o < st.n_out; ++o)
      for (std::size_t k = 0; k < st.lanes; ++k) {
        double re = 0.0, im = 0.0;
        for (std::size_t t = 0; t < st.n_in; ++t) {
          const double cr = st.tr[o * st.ts + t], ci = st.ti[o * st.ts + t];
          const std::size_t at = l * st.x_line + t * st.x_step + k;
          re = std::fma(cr, st.xr[at], re);
          re = std::fma(-ci, st.xi[at], re);
          im = std::fma(cr, st.xi[at], im);
          im = std::fma(ci, st.xr[at], im);
        }
        p.yr[l * st.y_line + o * st.y_step + k] = re;
        p.yi[l * st.y_line + o * st.y_step + k] = im;
      }
}

/// Every implementation of the DFT stages this host can run: each
/// tier's table, plus the baseline-ISA scalar stages (std::fma through
/// libm), which the scalar tier's table replaces on FMA hardware.
struct DftImpl {
  const char* name;
  void (*x)(const DftStage&);
  void (*yz)(const DftStage&);
};

std::vector<DftImpl> dft_impls() {
  std::vector<DftImpl> v{{"scalar, std::fma", &impl::dft_x_t<ScalarPack>,
                          &impl::dft_yz_t<ScalarPack>}};
  for (Tier t : available_tiers())
    v.push_back({tier_name(t), ops_for_tier(t).dft_x, ops_for_tier(t).dft_yz});
  return v;
}

TEST_F(SimdTest, DftStagesBitwiseEqualAcrossTiers) {
  // Each tier's stages are the plain chain of fused multiply-adds, bit
  // for bit, so every tier gives the same bits. The shapes cover lane
  // counts that leave lanes of a vector idle (1, 3, 6, 11: the V-list's
  // hn = n at n = 6 fills 6 of 8 AVX-512 lanes), output and line counts
  // that are not multiples of the blocking (1, 2, 3, 5, 7), and
  // interleaved input (x_step 2).
  for (std::size_t lanes : {1u, 3u, 6u, 8u, 11u})
    for (std::size_t n_out : {1u, 2u, 3u, 5u, 7u}) {
      const std::size_t n_in = 4, lines = 3, row = lanes + 5;
      DftStage sh;
      sh.ts = 9;
      sh.lines = lines;
      sh.n_in = n_in;
      sh.n_out = n_out;
      sh.lanes = lanes;
      sh.x_step = row;
      sh.x_line = n_in * row + 2;
      sh.y_step = row + 1;
      sh.y_line = n_out * sh.y_step + 3;
      const std::size_t seed = 500 + 10 * lanes + n_out;
      DftProblem ref(sh, false, false, lines * sh.x_line,
                     lines * sh.y_line, seed);
      dft_yz_ref(ref);
      for (const DftImpl& d : dft_impls()) {
        DftProblem p(sh, false, false, lines * sh.x_line, lines * sh.y_line,
                     seed);
        d.yz(p.st);
        ASSERT_EQ(p.yr, ref.yr) << d.name << " lanes " << lanes << " n_out "
                                << n_out;
        ASSERT_EQ(p.yi, ref.yi) << d.name << " lanes " << lanes << " n_out "
                                << n_out;
      }
    }
  for (const auto& [real_in, real_out] :
       {std::pair{true, false}, std::pair{false, true},
        std::pair{false, false}})
    for (std::size_t n_out : {1u, 3u, 6u, 8u, 13u})
      for (std::size_t lines : {1u, 5u, 7u}) {
        DftStage sh;
        sh.ts = 16;
        sh.lines = lines;
        sh.n_in = 5;
        sh.n_out = n_out;
        sh.x_step = real_in ? 1 : 2;
        sh.x_line = sh.n_in * sh.x_step + 1;
        sh.y_line = n_out + 2;
        const std::size_t seed = 700 + 10 * n_out + lines;
        DftProblem ref(sh, real_in, real_out, lines * sh.x_line,
                       lines * sh.y_line, seed);
        dft_x_ref(ref);
        for (const DftImpl& d : dft_impls()) {
          DftProblem p(sh, real_in, real_out, lines * sh.x_line,
                       lines * sh.y_line, seed);
          d.x(p.st);
          ASSERT_EQ(p.yr, ref.yr) << d.name << " n_out " << n_out
                                  << " lines " << lines;
          ASSERT_EQ(p.yi, ref.yi) << d.name << " n_out " << n_out
                                  << " lines " << lines;
        }
      }
}

// ---------------------------------------------------------------------------
// Direct kernels
// ---------------------------------------------------------------------------

struct DirectCase {
  const char* name;
  int sd, td;
};

const DirectCase kDirectCases[] = {
    {"laplace", 1, 1}, {"stokes", 3, 3}, {"stokes-reg", 3, 3}};

TEST_F(SimdTest, DirectKernelsCrossTierParityAndFlops) {
  for (const DirectCase& dc : kDirectCases) {
    const auto k = kernels::make_kernel(dc.name);
    // nt values straddle vector widths (tails of every size up to 8).
    for (const std::size_t nt : {1u, 2u, 3u, 5u, 7u, 8u, 9u, 13u, 64u}) {
      const std::size_t ns = 2 * nt + 3;
      const auto tgt = random_vec(3 * nt, 1000 + nt, 0.0, 1.0);
      const auto src = random_vec(3 * ns, 2000 + nt, 0.0, 1.0);
      const auto den = random_vec(ns * dc.sd, 3000 + nt, -1.0, 1.0);

      force_tier(Tier::kScalar);
      std::vector<double> pot_scalar(nt * dc.td, 0.0);
      const auto flops_scalar = k->direct(tgt, src, den, pot_scalar);
      EXPECT_EQ(flops_scalar, nt * ns * k->flops_per_interaction());

      for (Tier t : available_tiers()) {
        force_tier(t);
        std::vector<double> pot(nt * dc.td, 0.0);
        const auto flops = k->direct(tgt, src, den, pot);
        EXPECT_EQ(flops, flops_scalar) << dc.name << " " << tier_name(t);
        EXPECT_LT(rel_err(pot, pot_scalar), 1e-12)
            << dc.name << " " << tier_name(t) << " nt=" << nt;
      }
    }
  }
}

TEST_F(SimdTest, LaplaceGradCrossTierParity) {
  auto base = kernels::make_kernel("laplace");
  const auto k = base->gradient();
  ASSERT_NE(k, nullptr);
  for (const std::size_t nt : {1u, 3u, 7u, 9u, 33u}) {
    const std::size_t ns = nt + 5;
    const auto tgt = random_vec(3 * nt, 50 + nt, 0.0, 1.0);
    const auto src = random_vec(3 * ns, 60 + nt, 0.0, 1.0);
    const auto den = random_vec(ns, 70 + nt, -1.0, 1.0);

    force_tier(Tier::kScalar);
    std::vector<double> ref(3 * nt, 0.0);
    const auto flops_ref = k->direct(tgt, src, den, ref);

    for (Tier t : available_tiers()) {
      force_tier(t);
      std::vector<double> pot(3 * nt, 0.0);
      EXPECT_EQ(k->direct(tgt, src, den, pot), flops_ref);
      EXPECT_LT(rel_err(pot, ref), 1e-12) << tier_name(t) << " nt=" << nt;
    }
  }
}

TEST_F(SimdTest, DirectKernelsEdgeLanesMatchScalarTier) {
  // One source at the origin and 11 targets along x, so every vector
  // tier runs a full-width body and a masked tail. The offsets give r2
  // = +0 and -0, the smallest subnormal (2.3e-162 squared rounds to
  // it), a subnormal, just above DBL_MIN, 1, 1e300, near DBL_MAX, +inf
  // (1e200 squared overflows), NaN, and an ordinary value. Each tier
  // must reproduce the scalar tier's 1/r there: finite values to 1e-12
  // relative, zeros exactly, infinities with their sign, NaN as NaN.
  const double offsets[] = {0.0,     -0.0,  2.3e-162, 1e-160,
                            1.5e-154, 1.0,  1e150,    1.3e154,
                            1e200,   std::numeric_limits<double>::quiet_NaN(),
                            0.5};
  std::vector<double> tgt;
  for (const double x : offsets) tgt.insert(tgt.end(), {x, 0.0, 0.0});
  const std::vector<double> src = {0.0, 0.0, 0.0};
  const std::vector<double> den3 = {1.0, 0.5, -0.25};

  std::vector<std::unique_ptr<kernels::Kernel>> ks;
  ks.push_back(kernels::make_kernel("laplace"));
  ks.push_back(kernels::make_kernel("laplace")->gradient());
  ks.push_back(kernels::make_kernel("stokes"));
  ks.push_back(kernels::make_kernel("stokes-reg"));
  for (const auto& k : ks) {
    const std::size_t td = static_cast<std::size_t>(k->target_dim());
    const std::vector<double> den(den3.begin(),
                                  den3.begin() + k->source_dim());
    force_tier(Tier::kScalar);
    std::vector<double> ref(std::size(offsets) * td, 0.0);
    k->direct(tgt, src, den, ref);

    for (Tier t : available_tiers()) {
      force_tier(t);
      std::vector<double> pot(ref.size(), 0.0);
      k->direct(tgt, src, den, pot);
      for (std::size_t i = 0; i < ref.size(); ++i) {
        SCOPED_TRACE(::testing::Message()
                     << k->name() << " " << tier_name(t) << " x="
                     << offsets[i / td] << " component " << i % td);
        const double r = ref[i], v = pot[i];
        if (std::isnan(r))
          EXPECT_TRUE(std::isnan(v)) << v;
        else if (std::isinf(r) || r == 0.0)
          EXPECT_EQ(v, r);
        else
          EXPECT_LE(std::abs(v - r), 1e-12 * std::abs(r)) << v << " vs " << r;
      }
    }
  }
}

TEST_F(SimdTest, DirectBitwiseInvariantToTargetSplit) {
  // Splitting the target range (as the threaded ULI tiles do) must be
  // bitwise invisible within a tier: each target's source accumulation
  // is independent and runs in source order.
  const auto k = kernels::make_kernel("stokes");
  const std::size_t nt = 29, ns = 17;
  const auto tgt = random_vec(3 * nt, 81, 0.0, 1.0);
  const auto src = random_vec(3 * ns, 82, 0.0, 1.0);
  const auto den = random_vec(3 * ns, 83, -1.0, 1.0);

  for (Tier t : available_tiers()) {
    force_tier(t);
    std::vector<double> whole(3 * nt, 0.0);
    k->direct(tgt, src, den, whole);
    for (const std::size_t cut : {1u, 4u, 7u, 16u, 28u}) {
      std::vector<double> split(3 * nt, 0.0);
      std::span<const double> ts(tgt);
      std::span<double> ps(split);
      k->direct(ts.subspan(0, 3 * cut), src, den, ps.subspan(0, 3 * cut));
      k->direct(ts.subspan(3 * cut), src, den, ps.subspan(3 * cut));
      for (std::size_t i = 0; i < split.size(); ++i)
        EXPECT_EQ(split[i], whole[i])
            << tier_name(t) << " cut=" << cut << " i=" << i;
    }
  }
}

TEST_F(SimdTest, CoincidentPointsSuppressedOnEveryTier) {
  // targets == sources: the diagonal pair has r2 == 0 and must
  // contribute exactly zero on every tier (lane mask == scalar guard);
  // off-diagonal pairs still contribute. Point 2 is stored with
  // negative-zero coordinates: (-0.0)^2 == +0.0, so it must hit the
  // guard exactly like +0.0.
  std::vector<double> pts = {0.25, 0.5,  0.75,  //
                             0.5,  0.25, 0.5,   //
                             -0.0, -0.0, -0.0,  //
                             0.75, 0.75, 0.25,  //
                             0.1,  0.9,  0.4};
  const std::size_t n = pts.size() / 3;

  for (const char* name : {"laplace", "stokes"}) {
    const auto k = kernels::make_kernel(name);
    const int sd = k->source_dim(), td = k->target_dim();
    const auto den = random_vec(n * sd, 91, -1.0, 1.0);

    // Reference from the scalar block() path (shares the guard).
    std::vector<double> ref(n * td, 0.0);
    std::vector<double> blk(td * sd);
    for (std::size_t t = 0; t < n; ++t)
      for (std::size_t s = 0; s < n; ++s) {
        const double d[3] = {pts[3 * t] - pts[3 * s],
                             pts[3 * t + 1] - pts[3 * s + 1],
                             pts[3 * t + 2] - pts[3 * s + 2]};
        k->block(d, blk.data());
        for (int i = 0; i < td; ++i)
          for (int j = 0; j < sd; ++j)
            ref[t * td + i] += blk[i * sd + j] * den[s * sd + j];
      }
    for (double v : ref) ASSERT_TRUE(std::isfinite(v));

    for (Tier t : available_tiers()) {
      force_tier(t);
      std::vector<double> pot(n * td, 0.0);
      k->direct(pts, pts, den, pot);
      for (double v : pot) EXPECT_TRUE(std::isfinite(v)) << name;
      EXPECT_LT(rel_err(pot, ref), 1e-12) << name << " " << tier_name(t);
    }
  }
}

TEST_F(SimdTest, SinglePointSelfInteractionIsExactlyZero) {
  // One coincident pair and nothing else: every tier must produce an
  // exact 0.0 potential (not merely something small).
  for (const char* name : {"laplace", "stokes"}) {
    const auto k = kernels::make_kernel(name);
    const std::vector<double> pt = {0.5, 0.5, 0.5};
    const auto den =
        random_vec(static_cast<std::size_t>(k->source_dim()), 17, 1.0, 2.0);
    for (Tier t : available_tiers()) {
      force_tier(t);
      std::vector<double> pot(k->target_dim(), 0.0);
      k->direct(pt, pt, den, pot);
      for (double v : pot) EXPECT_EQ(v, 0.0) << name << " " << tier_name(t);
    }
  }
}

// ---------------------------------------------------------------------------
// Mutual direct tiles
// ---------------------------------------------------------------------------

/// One even kernel's one-way and mutual Ops entries.
struct MutualKernel {
  const char* name;
  std::size_t dim;
  void one_way(const Ops& o, const std::vector<double>& t,
               const std::vector<double>& s, const std::vector<double>& q,
               double* f) const {
    const std::size_t nt = t.size() / 3, ns = s.size() / 3;
    if (dim == 1)
      o.laplace(t.data(), nt, s.data(), ns, q.data(), f);
    else
      o.stokes(t.data(), nt, s.data(), ns, q.data(), f);
  }
  void mutual(const Ops& o, const std::vector<double>& a,
              const std::vector<double>& qa, double* fa,
              const std::vector<double>& b, const std::vector<double>& qb,
              double* fb) const {
    const std::size_t na = a.size() / 3, nb = b.size() / 3;
    if (dim == 1)
      o.laplace_mutual(a.data(), na, qa.data(), fa, b.data(), nb, qb.data(),
                       fb);
    else
      o.stokes_mutual(a.data(), na, qa.data(), fa, b.data(), nb, qb.data(),
                      fb);
  }
};

const MutualKernel kMutualKernels[] = {{"laplace", 1}, {"stokes", 3}};

/// A potential buffer with guard cells on both sides: the kernel gets
/// data() and the guards must keep their sentinel.
struct Guarded {
  static constexpr std::size_t kGuard = 16;
  static constexpr double kSentinel = -12345.5;
  std::vector<double> buf;
  explicit Guarded(const std::vector<double>& init)
      : buf(init.size() + 2 * kGuard, kSentinel) {
    std::copy(init.begin(), init.end(), buf.begin() + kGuard);
  }
  double* data() { return buf.data() + kGuard; }
  std::vector<double> inner() const {
    return {buf.begin() + kGuard, buf.end() - kGuard};
  }
  bool guards_intact() const {
    for (std::size_t i = 0; i < kGuard; ++i)
      if (buf[i] != kSentinel || buf[buf.size() - 1 - i] != kSentinel)
        return false;
    return true;
  }
};

/// Runs the mutual tile of `k` on tier `o` from seeded potentials and
/// checks both sides against the same tier's one-way calls (1e-13) and
/// the scalar tier's (1e-12), and that nothing outside fa/fb moved.
void check_mutual(const MutualKernel& k, const Ops& o,
                  const std::vector<double>& a, const std::vector<double>& b,
                  const std::string& what) {
  const std::size_t na = a.size() / 3, nb = b.size() / 3, d = k.dim;
  const auto qa = random_vec(na * d, 30 + na, -1.0, 1.0);
  const auto qb = random_vec(nb * d, 40 + nb, -1.0, 1.0);
  const auto fa0 = random_vec(na * d, 50 + na, -1.0, 1.0);
  const auto fb0 = random_vec(nb * d, 60 + nb, -1.0, 1.0);
  const Ops& scalar = ops_for_tier(Tier::kScalar);
  std::vector<double> sa = fa0, sb = fb0, ta = fa0, tb = fb0;
  k.one_way(scalar, a, b, qb, sa.data());
  k.one_way(scalar, b, a, qa, sb.data());
  k.one_way(o, a, b, qb, ta.data());
  k.one_way(o, b, a, qa, tb.data());

  Guarded fa(fa0), fb(fb0);
  k.mutual(o, a, qa, fa.data(), b, qb, fb.data());
  EXPECT_TRUE(fa.guards_intact()) << what;
  EXPECT_TRUE(fb.guards_intact()) << what;
  const auto ma = fa.inner(), mb = fb.inner();
  for (double v : ma) ASSERT_TRUE(std::isfinite(v)) << what;
  for (double v : mb) ASSERT_TRUE(std::isfinite(v)) << what;
  // The A side runs the one-way kernel's arithmetic, in its order.
  EXPECT_EQ(ma, ta) << what << " A side";
  EXPECT_LE(rel_err(mb, tb), 1e-13) << what << " B side";
  // One lane: the B side's partials are its one-way sums.
  if (o.width == 1) {
    EXPECT_EQ(mb, tb) << what << " B side";
  }
  EXPECT_LE(rel_err(ma, sa), 1e-12) << what << " A side vs scalar";
  EXPECT_LE(rel_err(mb, sb), 1e-12) << what << " B side vs scalar";
}

TEST_F(SimdTest, MutualTilesMatchOneWayCalls) {
  // A in the unit box, B in the adjacent box (x + 1), as a U-list pair
  // of leaves. The sizes straddle every tier's width.
  const std::size_t sizes[] = {1, 2, 7, 8, 9, 15, 16, 17, 194};
  for (const MutualKernel& k : kMutualKernels)
    for (Tier t : available_tiers())
      for (const std::size_t na : sizes)
        for (const std::size_t nb : sizes) {
          const auto a = random_vec(3 * na, 100 + na, 0.0, 1.0);
          auto b = random_vec(3 * nb, 200 + nb, 0.0, 1.0);
          for (std::size_t i = 0; i < nb; ++i) b[3 * i] += 1.0;
          check_mutual(k, ops_for_tier(t), a, b,
                       std::string(k.name) + " " + tier_name(t) + " " +
                           std::to_string(na) + " x " + std::to_string(nb));
        }
}

TEST_F(SimdTest, MutualTilesCoincidentPointsAddZero) {
  // B holds copies of A's points 0, 3 and 8 (the last in a second
  // vector group on every tier, and stored as -0.0 in B), between
  // points of its own: the coincident pairs add zero to both sides, as
  // in the one-way kernels, and everything else still counts.
  auto a = random_vec(3 * 11, 301, 0.0, 1.0);
  a[24] = a[25] = a[26] = 0.0;
  auto b = random_vec(3 * 6, 302, 0.0, 1.0);
  for (int c = 0; c < 3; ++c) {
    b[c] = a[c];
    b[6 + c] = a[9 + c];
    b[15 + c] = -0.0;
  }
  for (const MutualKernel& k : kMutualKernels)
    for (Tier t : available_tiers())
      check_mutual(k, ops_for_tier(t), a, b,
                   std::string(k.name) + " " + tier_name(t));

  // One coincident pair alone: exactly zero on both sides.
  const std::vector<double> p = {0.5, 0.25, 0.75};
  for (const MutualKernel& k : kMutualKernels) {
    const std::vector<double> q(k.dim, 1.5), zero(k.dim, 0.0);
    for (Tier t : available_tiers()) {
      Guarded fa(zero), fb(zero);
      k.mutual(ops_for_tier(t), p, q, fa.data(), p, q, fb.data());
      for (double v : fa.inner()) EXPECT_EQ(v, 0.0) << k.name << tier_name(t);
      for (double v : fb.inner()) EXPECT_EQ(v, 0.0) << k.name << tier_name(t);
      EXPECT_TRUE(fa.guards_intact() && fb.guards_intact());
    }
  }
}

TEST_F(SimdTest, RegularizedStokesKeepsSelfInteractionOnEveryTier) {
  // stokes-reg is smooth at r = 0: the self term is finite and KEPT.
  const kernels::RegularizedStokesKernel k(0.05);
  const std::vector<double> pt = {0.5, 0.5, 0.5};
  const std::vector<double> den = {1.0, 0.0, 0.0};
  // diag = 1/(4 pi eps) (see test_kernels RegularizedStokes).
  const double expect = 1.0 / (4.0 * std::numbers::pi * 0.05);
  for (Tier t : available_tiers()) {
    force_tier(t);
    std::vector<double> pot(3, 0.0);
    k.direct(pt, pt, den, pot);
    EXPECT_NEAR(pot[0], expect, 1e-12) << tier_name(t);
    EXPECT_NEAR(pot[1], 0.0, 1e-15) << tier_name(t);
  }
}

}  // namespace
}  // namespace pkifmm::simd
