#pragma once
/// \file matrix.hpp
/// \brief Dense row-major matrices and BLAS-lite operations.
///
/// The KIFMM translation operators (Table I of the paper: S, U, D, E, Q,
/// R, T) are small dense matrices (order 100-1000). This module provides
/// the storage and the handful of operations the FMM needs: gemv with
/// accumulation, gemm, transpose, and scaling. Everything is double
/// precision; the GPU path re-implements its kernels in float.

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
/// the k and column dimensions; the batched-evaluation workhorse
/// (one call applies a translation operator to ncols octants at once).
void gemm_acc(const Matrix& a, std::span<const double> b,
              std::span<double> c, std::size_t ncols, double alpha = 1.0);

/// gemm_acc restricted to batch columns [col0, col1) of the same
/// (a.cols() x ncols) B and (a.rows() x ncols) C panels. Each output
/// column's reduction order is independent of the column blocking, so
/// splitting a gemm_acc into disjoint windows (util::TaskPool chunks)
/// reproduces the unsplit result bitwise.
void gemm_acc_cols(const Matrix& a, std::span<const double> b,
                   std::span<double> c, std::size_t ncols, std::size_t col0,
                   std::size_t col1, double alpha = 1.0);

/// Gathers per-node vectors into the column-major batch layout gemm_acc
/// consumes: dst[r*slots.size() + j] = src[slots[j]*len + r]. `src` is
/// a node-major state vector (len values per node), `slots` the node
/// indices forming the batch.
void gather_columns(std::span<const double> src,
                    std::span<const std::int32_t> slots, std::size_t len,
                    std::span<double> dst);

/// Inverse of gather_columns with accumulation:
/// dst[slots[j]*len + r] += src[r*slots.size() + j].
void scatter_columns_acc(std::span<const double> src,
                         std::span<const std::int32_t> slots, std::size_t len,
                         std::span<double> dst);

/// Identity matrix of order n.
Matrix identity(std::size_t n);

/// Number of flops in one gemv_acc application (2 per matrix entry).
inline std::uint64_t gemv_flops(const Matrix& a) {
  return 2ull * a.rows() * a.cols();
}

/// Number of flops in one gemm_acc application: exactly ncols gemvs, so
/// a batch counts what its columns would count one by one.
inline std::uint64_t gemm_flops(const Matrix& a, std::size_t ncols) {
  return 2ull * a.rows() * a.cols() * ncols;
}

}  // namespace pkifmm::la
