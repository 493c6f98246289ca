#pragma once
/// \file matrix.hpp
/// \brief Dense row-major matrices and BLAS-lite operations.
///
/// The KIFMM translation operators (Table I of the paper: S, U, D, E, Q,
/// R, T) are small dense matrices (order 100-1000). This module provides
/// the storage and the handful of operations the FMM needs: gemv with
/// accumulation, gemm, transpose, scaling, and gemm_rows, which applies
/// an operator in place to a batch of node-major rows (the evaluator's
/// surface translations). Everything is double precision; the GPU path
/// re-implements its kernels in float.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace pkifmm::la {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    PKIFMM_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    PKIFMM_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    PKIFMM_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    PKIFMM_DCHECK(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void fill(double v) { std::fill(data_.begin(), data_.end(), v); }

  /// In-place scalar multiply.
  void scale(double s) {
    for (auto& x : data_) x *= s;
  }

  Matrix transposed() const;

  /// Frobenius norm.
  double frobenius_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// y += alpha * A x  (accumulating matrix-vector product).
void gemv_acc(const Matrix& a, std::span<const double> x,
              std::span<double> y, double alpha = 1.0);

/// C = A B.
Matrix gemm(const Matrix& a, const Matrix& b);

/// C += alpha * A B for row-major operands held in flat spans:
/// B is (a.cols() x ncols), C is (a.rows() x ncols). Cache-tiled over
/// the k and column dimensions; each c[i][j] folds its nonzero terms
/// alpha a_ik b_kj (alpha a_ik rounded once) in ascending k through
/// simd::Ops::axpyn. The reference for gemm_rows, and the call
/// wallbench's la.gemm_gflops times.
void gemm_acc(const Matrix& a, std::span<const double> b,
              std::span<double> c, std::size_t ncols, double alpha = 1.0);

/// y row out[j] += alpha A (x row in[j]) for j < in.size(), in place on
/// node-major rows (A.cols() values per x row, A.rows() per y row),
/// through simd::Ops::gemm_rows. The operator comes as its transpose
/// `at` (A.cols() x A.rows()). Each output element is the chain
/// gemm_acc forms for one column of a gathered batch, added once into
/// y, so it equals gather + gemm_acc + scatter bit for bit wherever A
/// has no zero entry (DESIGN.md §5e: with finite inputs, everywhere).
/// The out rows must be distinct, and when x and y are one array no out
/// row may be an in row. Checks that every in row lies inside x and
/// every out row inside y.
void gemm_rows(const Matrix& at, double alpha, std::span<const double> x,
               std::span<const std::int32_t> in, std::span<double> y,
               std::span<const std::int32_t> out);

/// Identity matrix of order n.
Matrix identity(std::size_t n);

/// Number of flops in one gemv_acc application (2 per matrix entry).
inline std::uint64_t gemv_flops(const Matrix& a) {
  return 2ull * a.rows() * a.cols();
}

/// Number of flops in one gemm_acc application: exactly ncols gemvs, so
/// a batch counts what its columns would count one by one. Symmetric in
/// a's shape, so it also counts a gemm_rows call given a = A^T.
inline std::uint64_t gemm_flops(const Matrix& a, std::size_t ncols) {
  return 2ull * a.rows() * a.cols() * ncols;
}

}  // namespace pkifmm::la
