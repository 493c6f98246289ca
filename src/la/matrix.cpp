#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "simd/simd.hpp"

namespace pkifmm::la {

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

void gemv_acc(const Matrix& a, std::span<const double> x,
              std::span<double> y, double alpha) {
  PKIFMM_CHECK(x.size() == a.cols() && y.size() == a.rows());
  const std::size_t n = a.cols();
  // alpha scales each term (not the finished sum), as gemm_acc does, so
  // the GPU engine's host S2U rounds each term like the CPU engine.
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.data() + r * n;
    double acc = 0.0;
    for (std::size_t c = 0; c < n; ++c) acc += (alpha * row[c]) * x[c];
    y[r] += acc;
  }
}

Matrix gemm(const Matrix& a, const Matrix& b) {
  PKIFMM_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  // ikj loop order keeps the inner loop contiguous in both b and c.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      const double* brow = b.data() + k * b.cols();
      double* crow = c.data() + i * c.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  return c;
}

void gemm_acc(const Matrix& a, std::span<const double> b,
              std::span<double> c, std::size_t ncols, double alpha) {
  PKIFMM_CHECK(b.size() == a.cols() * ncols && c.size() == a.rows() * ncols);
  if (ncols == 0 || a.empty()) return;
  // Tile the k (reduction) and j (batch-column) dimensions so the B
  // panel stays in cache while every row of A streams over it; the
  // inner loop is contiguous in both B and C. Every c[i][j] sums its
  // k terms in ascending order whatever the blocking.
  //
  // Within a k block, nonzero terms are grouped (up to simd::kAxpynMaxK
  // at a time) and flushed through the SIMD tier's axpyn, which folds
  // the group in ascending k with one fused multiply-add each — the
  // same association as the one-row-at-a-time loop it replaces, so the
  // k grouping only changes how many times the C row streams through
  // cache, never the rounding. Zero terms are skipped BEFORE grouping.
  const simd::Ops& ops = simd::ops();
  constexpr std::size_t kKBlock = 64;
  constexpr std::size_t kJBlock = 128;
  double ak[simd::kAxpynMaxK];
  const double* bk[simd::kAxpynMaxK];
  for (std::size_t j0 = 0; j0 < ncols; j0 += kJBlock) {
    const std::size_t j1 = std::min(ncols, j0 + kJBlock);
    for (std::size_t k0 = 0; k0 < a.cols(); k0 += kKBlock) {
      const std::size_t k1 = std::min(a.cols(), k0 + kKBlock);
      for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* arow = a.data() + i * a.cols();
        double* crow = c.data() + i * ncols;
        std::size_t nk = 0;
        for (std::size_t k = k0; k < k1; ++k) {
          const double aik = alpha * arow[k];
          if (aik == 0.0) continue;
          ak[nk] = aik;
          bk[nk] = b.data() + k * ncols + j0;
          if (++nk == simd::kAxpynMaxK) {
            ops.axpyn(ak, bk, nk, crow + j0, j1 - j0);
            nk = 0;
          }
        }
        if (nk > 0) ops.axpyn(ak, bk, nk, crow + j0, j1 - j0);
      }
    }
  }
}

void gemm_rows(const Matrix& at, double alpha, std::span<const double> x,
               std::span<const std::int32_t> in, std::span<double> y,
               std::span<const std::int32_t> out) {
  PKIFMM_CHECK(in.size() == out.size());
  if (in.empty() || at.empty()) return;
  const std::size_t xrows = x.size() / at.rows();
  const std::size_t yrows = y.size() / at.cols();
  for (std::size_t j = 0; j < in.size(); ++j) {
    PKIFMM_CHECK_MSG(in[j] >= 0 && std::size_t(in[j]) < xrows,
                     "gemm_rows: in row " << in[j] << " outside " << xrows);
    PKIFMM_CHECK_MSG(out[j] >= 0 && std::size_t(out[j]) < yrows,
                     "gemm_rows: out row " << out[j] << " outside " << yrows);
  }
  simd::ops().gemm_rows(at.data(), at.cols(), at.rows(), alpha, x.data(),
                        in.data(), y.data(), out.data(), in.size());
}

Matrix identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

}  // namespace pkifmm::la
