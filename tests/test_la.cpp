#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "la/matrix.hpp"
#include "la/svd.hpp"
#include "util/rng.hpp"

namespace pkifmm::la {
namespace {

Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
  return a;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

TEST(Matrix, TransposeRoundTrip) {
  const Matrix a = random_matrix(7, 4, 1);
  EXPECT_EQ(max_abs_diff(a.transposed().transposed(), a), 0.0);
}

TEST(Matrix, GemvMatchesManual) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const double x[] = {1.0, -1.0, 2.0};
  double y[2] = {0.0, 0.0};
  gemv_acc(a, x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 11.0);
}

TEST(Matrix, GemvAccAccumulatesWithAlpha) {
  Matrix a = identity(3);
  const double x[] = {1.0, 2.0, 3.0};
  double y[3] = {10.0, 10.0, 10.0};
  gemv_acc(a, x, y, 2.0);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[2], 16.0);
}

TEST(Matrix, GemmAssociatesWithIdentity) {
  const Matrix a = random_matrix(5, 5, 2);
  EXPECT_LT(max_abs_diff(gemm(a, identity(5)), a), 1e-14);
  EXPECT_LT(max_abs_diff(gemm(identity(5), a), a), 1e-14);
}

TEST(Matrix, GemvFlopsFormula) {
  const Matrix a(10, 20);
  EXPECT_EQ(gemv_flops(a), 400u);
}

TEST(Matrix, GemmAccMatchesColumnwiseGemvAcc) {
  // gemm_acc over a node-major batch must agree with applying gemv_acc
  // to every column; sizes straddle the internal k/j tile boundaries.
  const std::size_t m = 152, n = 152, nb = 150;
  const Matrix a = random_matrix(m, n, 31);
  Rng rng(32);
  std::vector<double> b(n * nb), c(m * nb, 0.5), ref(m * nb, 0.5);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const double alpha = 0.75;

  gemm_acc(a, b, c, nb, alpha);

  std::vector<double> x(n), y(m);
  for (std::size_t j = 0; j < nb; ++j) {
    for (std::size_t r = 0; r < n; ++r) x[r] = b[r * nb + j];
    std::fill(y.begin(), y.end(), 0.0);
    gemv_acc(a, x, y, alpha);
    for (std::size_t r = 0; r < m; ++r) ref[r * nb + j] += y[r];
  }
  double err = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i)
    err = std::max(err, std::abs(c[i] - ref[i]));
  EXPECT_LT(err, 1e-12);
}

TEST(Matrix, GemmAccEmptyBatchIsNoOp) {
  const Matrix a = random_matrix(4, 4, 33);
  std::vector<double> c;
  gemm_acc(a, {}, c, 0);  // must not touch memory or throw
}

TEST(Matrix, GemmFlopsCountsBatchColumns) {
  const Matrix a(10, 20);
  EXPECT_EQ(gemm_flops(a, 7), 7u * gemv_flops(a));
}

TEST(Matrix, GemmRowsAppliesOperatorToNodeRows) {
  // Node-major rows in place: y row out[j] += alpha A (x row in[j]), the
  // operator passed as its transpose; rows not listed keep their bits.
  const std::size_t m = 5, n = 3;
  const Matrix a = random_matrix(m, n, 34);
  Rng rng(35);
  std::vector<double> x(4 * n), y(3 * m);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  for (auto& v : y) v = rng.uniform(-1.0, 1.0);
  const std::vector<std::int32_t> in = {3, 0}, out = {2, 0};
  const double alpha = 0.5;
  std::vector<double> ref = y;
  for (std::size_t j = 0; j < in.size(); ++j)
    gemv_acc(a, std::span<const double>(x.data() + in[j] * n, n),
             std::span<double>(ref.data() + out[j] * m, m), alpha);

  gemm_rows(a.transposed(), alpha, x, in, y, out);
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (i / m == 1)
      EXPECT_EQ(y[i], ref[i]) << i;  // untouched row
    else
      EXPECT_NEAR(y[i], ref[i], 1e-14) << i;
  }
}

TEST(Matrix, GemmRowsRejectsRowsOutsideTheirSpans) {
  const Matrix at = random_matrix(3, 5, 36);  // A is 5 x 3
  std::vector<double> x(2 * 3), y(2 * 5);
  using Rows = std::vector<std::int32_t>;
  EXPECT_THROW(gemm_rows(at, 1.0, x, Rows{2}, y, Rows{0}), CheckFailure);
  EXPECT_THROW(gemm_rows(at, 1.0, x, Rows{-1}, y, Rows{0}), CheckFailure);
  EXPECT_THROW(gemm_rows(at, 1.0, x, Rows{0}, y, Rows{2}), CheckFailure);
  EXPECT_THROW(gemm_rows(at, 1.0, x, Rows{0, 1}, y, Rows{0}), CheckFailure);
  EXPECT_NO_THROW(gemm_rows(at, 1.0, x, Rows{1, 0}, y, Rows{0, 1}));
}

TEST(Svd, ReconstructsSquareMatrix) {
  const Matrix a = random_matrix(12, 12, 5);
  const Svd s = svd(a);
  // A = U diag(sigma) V^T
  Matrix us = s.u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= s.sigma[j];
  EXPECT_LT(max_abs_diff(gemm(us, s.v.transposed()), a), 1e-10);
}

TEST(Svd, ReconstructsTallMatrix) {
  const Matrix a = random_matrix(20, 8, 6);
  const Svd s = svd(a);
  Matrix us = s.u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= s.sigma[j];
  EXPECT_LT(max_abs_diff(gemm(us, s.v.transposed()), a), 1e-10);
}

TEST(Svd, ReconstructsWideMatrix) {
  const Matrix a = random_matrix(8, 20, 7);
  const Svd s = svd(a);
  Matrix us = s.u;
  for (std::size_t i = 0; i < us.rows(); ++i)
    for (std::size_t j = 0; j < us.cols(); ++j) us(i, j) *= s.sigma[j];
  EXPECT_LT(max_abs_diff(gemm(us, s.v.transposed()), a), 1e-10);
}

TEST(Svd, SingularValuesSortedDescending) {
  const Svd s = svd(random_matrix(15, 10, 8));
  for (std::size_t i = 0; i + 1 < s.sigma.size(); ++i)
    EXPECT_GE(s.sigma[i], s.sigma[i + 1]);
}

TEST(Svd, OrthonormalFactors) {
  const Svd s = svd(random_matrix(14, 9, 9));
  const Matrix utu = gemm(s.u.transposed(), s.u);
  const Matrix vtv = gemm(s.v.transposed(), s.v);
  EXPECT_LT(max_abs_diff(utu, identity(9)), 1e-10);
  EXPECT_LT(max_abs_diff(vtv, identity(9)), 1e-10);
}

TEST(Svd, DiagonalMatrixSingularValues) {
  Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -5.0;  // singular value is 5
  a(2, 2) = 1.0;
  const Svd s = svd(a);
  EXPECT_NEAR(s.sigma[0], 5.0, 1e-12);
  EXPECT_NEAR(s.sigma[1], 3.0, 1e-12);
  EXPECT_NEAR(s.sigma[2], 1.0, 1e-12);
}

TEST(Svd, RejectsNonFiniteInput) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    Matrix a = random_matrix(4, 4, 13);
    a(2, 1) = bad;
    EXPECT_THROW(svd(a), CheckFailure) << bad;
    EXPECT_THROW(pinv(a), CheckFailure) << bad;
  }
}

TEST(Pinv, InvertsWellConditionedSquare) {
  Matrix a = random_matrix(10, 10, 10);
  for (std::size_t i = 0; i < 10; ++i) a(i, i) += 5.0;  // well-conditioned
  const Matrix p = pinv(a);
  EXPECT_LT(max_abs_diff(gemm(p, a), identity(10)), 1e-9);
}

TEST(Pinv, LeastSquaresPropertyTall) {
  // For tall full-rank A, pinv(A) * A = I.
  const Matrix a = random_matrix(25, 7, 11);
  const Matrix p = pinv(a);
  EXPECT_LT(max_abs_diff(gemm(p, a), identity(7)), 1e-9);
}

TEST(Pinv, MoorePenroseConditions) {
  const Matrix a = random_matrix(9, 6, 12);
  const Matrix p = pinv(a);
  // A p A = A and p A p = p.
  EXPECT_LT(max_abs_diff(gemm(gemm(a, p), a), a), 1e-9);
  EXPECT_LT(max_abs_diff(gemm(gemm(p, a), p), p), 1e-9);
}

TEST(Pinv, TruncatesTinySingularValues) {
  // Rank-1 matrix: pinv must not blow up.
  Matrix a(4, 4);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = (i + 1.0) * (j + 1.0);
  const Matrix p = pinv(a, 1e-10);
  EXPECT_LT(p.frobenius_norm(), 1.0);  // 1/sigma_1 of this matrix is small
  EXPECT_LT(max_abs_diff(gemm(gemm(a, p), a), a), 1e-9);
}

TEST(Svd, IdentityHasUnitSingularValues) {
  const Svd s = svd(identity(6));
  for (double v : s.sigma) EXPECT_NEAR(v, 1.0, 1e-13);
}

TEST(Pinv, OrthogonalMatrixInverseIsTranspose) {
  // Build an orthogonal Q from the SVD of a random matrix.
  const Svd s = svd(random_matrix(8, 8, 21));
  const Matrix& q = s.u;
  const Matrix p = pinv(q);
  EXPECT_LT(max_abs_diff(p, q.transposed()), 1e-10);
}

TEST(Pinv, ScalesInverselyWithMatrixScale) {
  Matrix a = random_matrix(6, 6, 22);
  for (std::size_t i = 0; i < 6; ++i) a(i, i) += 4.0;
  Matrix a2 = a;
  a2.scale(8.0);
  const Matrix p = pinv(a), p2 = pinv(a2);
  Matrix p_scaled = p;
  p_scaled.scale(1.0 / 8.0);
  EXPECT_LT(max_abs_diff(p2, p_scaled), 1e-10);
}

TEST(Pinv, IllConditionedSolveStaysBounded) {
  // Hilbert-like matrix: classic ill-conditioning.
  const std::size_t n = 12;
  Matrix h(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      h(i, j) = 1.0 / static_cast<double>(i + j + 1);
  const Matrix p = pinv(h, 1e-12);
  // A pinv(A) A = A still holds to good accuracy under truncation.
  EXPECT_LT(max_abs_diff(gemm(gemm(h, p), h), h), 1e-6);
}

}  // namespace
}  // namespace pkifmm::la
