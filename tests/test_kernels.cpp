#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <vector>

#include "kernels/kernel.hpp"
#include "util/rng.hpp"

namespace pkifmm::kernels {
namespace {

TEST(Laplace, PointValueMatchesFormula) {
  LaplaceKernel k;
  const double d[3] = {3.0, 0.0, 4.0};  // r = 5
  double v;
  k.block(d, &v);
  EXPECT_NEAR(v, 1.0 / (4.0 * std::numbers::pi * 5.0), 1e-15);
}

TEST(Laplace, SelfInteractionIsZero) {
  LaplaceKernel k;
  const double d[3] = {0.0, 0.0, 0.0};
  double v = 99.0;
  k.block(d, &v);
  EXPECT_EQ(v, 0.0);
}

TEST(Laplace, EvenSymmetry) {
  LaplaceKernel k;
  const double d[3] = {0.1, -0.2, 0.3};
  const double nd[3] = {-0.1, 0.2, -0.3};
  double a, b;
  k.block(d, &a);
  k.block(nd, &b);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Laplace, HomogeneityDegreeMinusOne) {
  LaplaceKernel k;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    double d[3] = {rng.uniform(0.1, 1), rng.uniform(0.1, 1), rng.uniform(0.1, 1)};
    double s[3] = {2.0 * d[0], 2.0 * d[1], 2.0 * d[2]};
    double v1, v2;
    k.block(d, &v1);
    k.block(s, &v2);
    EXPECT_NEAR(v2, 0.5 * v1, 1e-14);
  }
}

TEST(Stokes, BlockIsSymmetricTensor) {
  StokesKernel k;
  const double d[3] = {0.2, -0.4, 0.7};
  double b[9];
  k.block(d, b);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(b[i * 3 + j], b[j * 3 + i]);
}

TEST(Stokes, MatchesOseenFormula) {
  StokesKernel k;
  const double d[3] = {1.0, 2.0, 2.0};  // r = 3
  double b[9];
  k.block(d, b);
  const double c = 1.0 / (8.0 * std::numbers::pi);
  EXPECT_NEAR(b[0], c * (1.0 / 3.0 + 1.0 / 27.0), 1e-14);       // ii with d_i=1
  EXPECT_NEAR(b[1], c * (1.0 * 2.0 / 27.0), 1e-14);             // ij
}

TEST(Stokes, SelfInteractionIsZeroBlock) {
  StokesKernel k;
  const double d[3] = {0, 0, 0};
  double b[9];
  k.block(d, b);
  for (double v : b) EXPECT_EQ(v, 0.0);
}

TEST(Stokes, HomogeneityDegreeMinusOne) {
  StokesKernel k;
  const double d[3] = {0.3, 0.1, -0.2};
  const double s[3] = {0.9, 0.3, -0.6};
  double b1[9], b3[9];
  k.block(d, b1);
  k.block(s, b3);
  for (int i = 0; i < 9; ++i) EXPECT_NEAR(b3[i], b1[i] / 3.0, 1e-13);
}

TEST(Yukawa, DecaysFasterThanLaplace) {
  YukawaKernel y(5.0);
  LaplaceKernel l;
  const double d[3] = {0.5, 0.0, 0.0};
  double vy, vl;
  y.block(d, &vy);
  l.block(d, &vl);
  EXPECT_LT(vy, vl);
  EXPECT_NEAR(vy, vl * std::exp(-2.5), 1e-14);
}

TEST(Yukawa, IsNotHomogeneous) {
  YukawaKernel y;
  EXPECT_FALSE(y.homogeneous());
}

TEST(Direct, MatchesManualSumLaplace) {
  LaplaceKernel k;
  const std::vector<double> tgt = {0.0, 0.0, 0.0};
  const std::vector<double> src = {1.0, 0.0, 0.0, 0.0, 2.0, 0.0};
  const std::vector<double> den = {2.0, 4.0};
  std::vector<double> pot(1, 0.0);
  k.direct(tgt, src, den, pot);
  const double expect = (2.0 / 1.0 + 4.0 / 2.0) / (4.0 * std::numbers::pi);
  EXPECT_NEAR(pot[0], expect, 1e-14);
}

TEST(Direct, AccumulatesIntoExistingPotential) {
  LaplaceKernel k;
  const std::vector<double> tgt = {0.0, 0.0, 0.0};
  const std::vector<double> src = {1.0, 0.0, 0.0};
  const std::vector<double> den = {4.0 * std::numbers::pi};
  std::vector<double> pot(1, 10.0);
  k.direct(tgt, src, den, pot);
  EXPECT_NEAR(pot[0], 11.0, 1e-13);
}

TEST(Direct, SkipsCoincidentPoints) {
  LaplaceKernel k;
  const std::vector<double> pts = {0.5, 0.5, 0.5};
  const std::vector<double> den = {1.0};
  std::vector<double> pot(1, 0.0);
  k.direct(pts, pts, den, pot);
  EXPECT_EQ(pot[0], 0.0);
}

TEST(Block, CoincidentGuardUnifiedAcrossKernels) {
  // Every singular kernel uses the same r2 == 0.0 predicate. A
  // negative-zero displacement squares to +0.0 and must hit the guard;
  // a NaN displacement must propagate (NaN compares false against
  // zero) instead of being silently mapped to 0, which the old
  // `r2 > 0.0` ordering in LaplaceKernel did.
  const double zero[3] = {0.0, 0.0, 0.0};
  const double nzero[3] = {-0.0, -0.0, -0.0};
  const double dnan[3] = {std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0};

  LaplaceKernel lap;
  LaplaceGradKernel grad;
  StokesKernel stk;
  YukawaKernel yuk(5.0);

  double v;
  lap.block(zero, &v);
  EXPECT_EQ(v, 0.0);
  lap.block(nzero, &v);
  EXPECT_EQ(v, 0.0);
  lap.block(dnan, &v);
  EXPECT_TRUE(std::isnan(v));

  double g3[3];
  grad.block(nzero, g3);
  for (double x : g3) EXPECT_EQ(x, 0.0);
  grad.block(dnan, g3);
  EXPECT_TRUE(std::isnan(g3[0]));

  double b9[9];
  stk.block(nzero, b9);
  for (double x : b9) EXPECT_EQ(x, 0.0);
  stk.block(dnan, b9);
  EXPECT_TRUE(std::isnan(b9[0]));

  yuk.block(nzero, &v);
  EXPECT_EQ(v, 0.0);
  yuk.block(dnan, &v);
  EXPECT_TRUE(std::isnan(v));
}

TEST(Direct, NegativeZeroCoordinatesStillSkipSelfPair) {
  // Target at (-0.0, -0.0, -0.0) against a source at (0.0, 0.0, 0.0):
  // the displacement is -0.0 per axis, r2 == +0.0, so the pair is a
  // self-interaction and must contribute exactly zero.
  LaplaceKernel k;
  const std::vector<double> tgt = {-0.0, -0.0, -0.0};
  const std::vector<double> src = {0.0, 0.0, 0.0};
  const std::vector<double> den = {3.0};
  std::vector<double> pot(1, 0.0);
  k.direct(tgt, src, den, pot);
  EXPECT_EQ(pot[0], 0.0);
}

TEST(Direct, StokesVectorPotentialShape) {
  StokesKernel k;
  Rng rng(4);
  std::vector<double> tgt(3 * 5), src(3 * 7), den(3 * 7);
  for (auto& v : tgt) v = rng.uniform();
  for (auto& v : src) v = rng.uniform();
  for (auto& v : den) v = rng.uniform(-1, 1);
  std::vector<double> pot(3 * 5, 0.0);
  const auto flops = k.direct(tgt, src, den, pot);
  EXPECT_EQ(flops, 5u * 7u * k.flops_per_interaction());
  // Compare one target against a manual block sum.
  double manual[3] = {0, 0, 0};
  double blk[9];
  for (int s = 0; s < 7; ++s) {
    const double d[3] = {tgt[0] - src[3 * s], tgt[1] - src[3 * s + 1],
                         tgt[2] - src[3 * s + 2]};
    k.block(d, blk);
    for (int i = 0; i < 3; ++i)
      for (int j = 0; j < 3; ++j) manual[i] += blk[i * 3 + j] * den[3 * s + j];
  }
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(pot[i], manual[i], 1e-13);
}

TEST(Assemble, MatrixActionEqualsDirect) {
  for (const char* name : {"laplace", "stokes", "yukawa"}) {
    auto k = make_kernel(name);
    Rng rng(8);
    std::vector<double> tgt(3 * 4), src(3 * 6);
    for (auto& v : tgt) v = rng.uniform();
    for (auto& v : src) v = rng.uniform(1.5, 2.5);  // disjoint from targets
    std::vector<double> den(6 * k->source_dim());
    for (auto& v : den) v = rng.uniform(-1, 1);

    std::vector<double> pot_direct(4 * k->target_dim(), 0.0);
    k->direct(tgt, src, den, pot_direct);

    const la::Matrix m = k->assemble(tgt, src);
    std::vector<double> pot_mat(4 * k->target_dim(), 0.0);
    la::gemv_acc(m, den, pot_mat);

    for (std::size_t i = 0; i < pot_direct.size(); ++i)
      EXPECT_NEAR(pot_mat[i], pot_direct[i], 1e-12) << name;
  }
}

TEST(Factory, KnownNames) {
  EXPECT_EQ(make_kernel("laplace")->source_dim(), 1);
  EXPECT_EQ(make_kernel("stokes")->source_dim(), 3);
  EXPECT_EQ(make_kernel("yukawa")->target_dim(), 1);
  EXPECT_EQ(make_kernel("stokes-reg")->target_dim(), 3);
}

TEST(RegularizedStokes, ConvergesToStokesAwayFromOrigin) {
  // At distances >> epsilon, the mollified kernel matches Stokes.
  RegularizedStokesKernel reg(1e-4);
  StokesKernel exact;
  const double d[3] = {0.3, -0.2, 0.5};
  double br[9], be[9];
  reg.block(d, br);
  exact.block(d, be);
  for (int i = 0; i < 9; ++i)
    EXPECT_NEAR(br[i], be[i], 1e-6 * (std::abs(be[i]) + 1.0));
}

TEST(RegularizedStokes, FiniteAndIsotropicAtOrigin) {
  RegularizedStokesKernel reg(0.05);
  const double d[3] = {0, 0, 0};
  double b[9];
  reg.block(d, b);
  // Self-interaction finite: diag = 2 eps^2 / (8 pi eps^3) = 1/(4 pi eps).
  const double expect = 1.0 / (4.0 * std::numbers::pi * 0.05);
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(b[4 * i], expect, 1e-12);
  EXPECT_EQ(b[1], 0.0);
}

TEST(RegularizedStokes, SymmetricTensor) {
  RegularizedStokesKernel reg(0.02);
  const double d[3] = {0.11, 0.07, -0.05};
  double b[9];
  reg.block(d, b);
  // Bit for bit: core::Tables relies on K(x, y) = K(y, x)^T exactly.
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j) EXPECT_EQ(b[3 * i + j], b[3 * j + i]);
}

TEST(Factory, UnknownNameThrows) {
  EXPECT_ANY_THROW(make_kernel("biharmonic"));
}

/// Laplace satisfies the mean value property: the average of 1/(4 pi r)
/// over a sphere centered at c with radius a equals the value at the
/// sphere's center when the source is outside — sanity for the
/// equivalent-density idea underlying KIFMM.
TEST(Laplace, MeanValuePropertyOnSphere) {
  LaplaceKernel k;
  const double src[3] = {2.0, 0.0, 0.0};
  const double a = 0.5;
  double sum = 0.0;
  const int n = 4000;
  Rng rng(17);
  for (int i = 0; i < n; ++i) {
    // Uniform point on the sphere via normalized gaussian-ish rejection.
    double p[3];
    double norm2;
    do {
      for (double& c : p) c = rng.uniform(-1, 1);
      norm2 = p[0] * p[0] + p[1] * p[1] + p[2] * p[2];
    } while (norm2 > 1.0 || norm2 < 1e-8);
    const double inv = a / std::sqrt(norm2);
    const double d[3] = {p[0] * inv - src[0], p[1] * inv - src[1],
                         p[2] * inv - src[2]};
    double v;
    k.block(d, &v);
    sum += v;
  }
  double center;
  const double dc[3] = {-src[0], -src[1], -src[2]};
  k.block(dc, &center);
  EXPECT_NEAR(sum / n, center, 0.02 * center);
}

// ---------------------------------------------------------------------
// direct_mutual: one tile for A <- B and B <- A.

std::vector<double> uniform_vec(std::size_t n, std::uint64_t seed, double lo,
                                double hi) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

double rel_l2(const std::vector<double>& a, const std::vector<double>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / den);
}

/// Both sides of direct_mutual against direct(A <- B) and direct(B <- A)
/// on adjacent boxes, with A's last point copied into B so one pair is
/// coincident, and potentials seeded to check the accumulation. Returns
/// the worse side's relative l2 difference; exact is set if both sides
/// equal the two direct() calls bit for bit.
double mutual_vs_direct(const Kernel& k, std::size_t na, std::size_t nb,
                        bool& exact) {
  const std::size_t sd = static_cast<std::size_t>(k.source_dim());
  const std::size_t td = static_cast<std::size_t>(k.target_dim());
  std::vector<double> a = uniform_vec(3 * na, 10 + na, 0.0, 1.0);
  std::vector<double> b = uniform_vec(3 * nb, 20 + nb, 0.0, 1.0);
  for (std::size_t i = 0; i < nb; ++i) b[3 * i] += 1.0;
  for (int c = 0; c < 3; ++c) b[c] = a[3 * (na - 1) + c];
  const auto qa = uniform_vec(na * sd, 30 + na, -1.0, 1.0);
  const auto qb = uniform_vec(nb * sd, 40 + nb, -1.0, 1.0);
  const auto fa0 = uniform_vec(na * td, 50 + na, -1.0, 1.0);
  const auto fb0 = uniform_vec(nb * td, 60 + nb, -1.0, 1.0);

  std::vector<double> ra = fa0, rb = fb0, fa = fa0, fb = fb0;
  const std::uint64_t one_way = k.direct(a, b, qb, ra) + k.direct(b, a, qa, rb);
  const std::uint64_t mutual = k.direct_mutual(a, qa, fa, b, qb, fb);
  EXPECT_EQ(mutual, 2 * na * nb * k.flops_per_interaction()) << k.name();
  EXPECT_EQ(mutual, one_way) << k.name();
  for (double v : fa) EXPECT_TRUE(std::isfinite(v)) << k.name();
  for (double v : fb) EXPECT_TRUE(std::isfinite(v)) << k.name();
  exact = fa == ra && fb == rb;
  return std::max(rel_l2(fa, ra), rel_l2(fb, rb));
}

TEST(DirectMutual, MatchesTwoDirectCalls) {
  // The SIMD tiles: the A side is the one-way kernel's, the B side
  // reduces per-lane partials, so it agrees to rounding.
  for (const char* name : {"laplace", "stokes"}) {
    const auto k = make_kernel(name);
    for (const std::size_t na : {1u, 5u, 9u, 40u})
      for (const std::size_t nb : {1u, 8u, 17u, 33u}) {
        bool exact = false;
        EXPECT_LT(mutual_vs_direct(*k, na, nb, exact), 1e-13)
            << name << " " << na << " x " << nb;
      }
  }
}

TEST(DirectMutual, DefaultEqualsTwoDirectCallsBitwise) {
  // The kernels without a mutual tile run the default, which is the two
  // direct() calls: the regularized Stokeslet, Yukawa and the odd
  // Laplace gradient.
  std::vector<std::unique_ptr<Kernel>> ks;
  ks.push_back(make_kernel("stokes-reg"));
  ks.push_back(make_kernel("yukawa"));
  ks.push_back(make_kernel("laplace")->gradient());
  for (const auto& k : ks)
    for (const std::size_t na : {1u, 7u, 31u, 32u, 33u, 70u})
      for (const std::size_t nb : {1u, 2u, 45u}) {
        bool exact = false;
        mutual_vs_direct(*k, na, nb, exact);
        EXPECT_TRUE(exact) << k->name() << " " << na << " x " << nb;
      }
}

TEST(DirectMutual, RejectsMismatchedSpans) {
  const auto k = make_kernel("stokes");
  const std::vector<double> a(6, 0.5), b(9, 0.25);
  std::vector<double> qa(6), qb(9), fa(6), fb(9), short_fb(6);
  EXPECT_NO_THROW(k->direct_mutual(a, qa, fa, b, qb, fb));
  EXPECT_ANY_THROW(k->direct_mutual(a, qa, fa, b, qb, short_fb));
  EXPECT_ANY_THROW(k->direct_mutual(a, qb, fa, b, qb, fb));
}

}  // namespace
}  // namespace pkifmm::kernels
