#pragma once
/// \file svd.hpp
/// \brief Thin SVD (QR-preconditioned one-sided Jacobi) and truncated
/// pseudo-inverse.
///
/// The kernel-independent FMM converts check-surface potentials into
/// equivalent densities by applying the truncated pseudo-inverse of the
/// equivalent-to-check interaction matrix. That matrix is ill-conditioned
/// by construction (sigma_min / sigma_max ~ 1e-9 for Laplace at n = 6,
/// below 1e-12 at n = 8), so plain LU is not an option.
///
/// Algorithm (Drmac & Veselic, SIAM J. Matrix Anal. Appl. 29, 2008). A
/// wide A is transposed first, so m >= n. Householder QR with column
/// pivoting (largest remaining column norm first) gives A P = Q R. Cyclic
/// one-sided Jacobi then runs on the columns of X = R^T, accumulating V,
/// until every pair has |x_p^T x_q| <= sqrt(n) DBL_EPSILON ||x_p|| ||x_q||.
/// Then sigma_j = ||x_j|| (sorted descending), U = Q [V; 0] and
/// V_A = P X / sigma, with a zero column where sigma = 0. All working
/// storage is column-contiguous. The preconditioned X starts nearly
/// column-orthogonal, so the FMM's operators converge in 10-11 sweeps
/// (152^2 Laplace n = 6, 168^2 Stokes n = 4), where Jacobi on A itself
/// took 21-24.
///
/// Accuracy: backward stable, U Sigma V_A^T = A + E with ||E|| ~
/// DBL_EPSILON ||A||; U is orthonormal to working precision and the
/// columns of V_A to within the Jacobi tolerance. The singular values
/// near a tiny cutoff carry that absolute error, so the pseudo-inverse
/// of an operator with sigma_min ~ 1e-12 sigma_max is defined only to
/// rounding noise in those directions.
///
/// Sweep cap: at most 60 Jacobi sweeps; if pairs still rotate then, the
/// current factors are returned.
///
/// SIMD-tier independence: plain C++ with no simd::ops() dispatch, so the
/// factors depend on the build but never on the runtime SIMD tier.
/// core::Tables relies on this for bitwise-equal operators under every
/// tier.

#include "la/matrix.hpp"

#include <vector>

namespace pkifmm::la {

/// Thin SVD A = U diag(sigma) V^T with U: m x k, V: n x k, k = min(m,n).
/// Singular values are returned in descending order.
struct Svd {
  Matrix u;
  std::vector<double> sigma;
  Matrix v;
};

/// Computes the thin SVD as described above. Throws CheckFailure on an
/// empty matrix or a non-finite entry.
Svd svd(const Matrix& a);

/// Moore-Penrose pseudo-inverse V diag(1/sigma) U^T with relative
/// singular-value cutoff: singular values at or below
/// rel_cutoff * sigma_max are treated as zero. The FMM uses
/// rel_cutoff ~ 1e-12 (double path). Throws as svd() does.
Matrix pinv(const Matrix& a, double rel_cutoff = 1e-12);

}  // namespace pkifmm::la
