#include "la/svd.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <numeric>

namespace pkifmm::la {

namespace {

// The rounding-level conventions here (the partial-sum order in dot(),
// the reflector sign, the side pinv() scales by 1/sigma) fix the last
// bits of every FMM operator. Fmm.HigherOrderIsMoreAccurate (n = 8
// against n = 7) and Tables.PinvMoorePenroseAtWallbenchShapes sit at
// that level, so changing any of them can flip those tests
// (EXPERIMENTS.md, "Choice of rounding conventions").

constexpr int kMaxSweeps = 60;

/// Dot product over four independent partial sums (shorter dependency
/// chain than one running sum), combined the way a two-lane vector
/// reduction would: (s0 + s2) + (s1 + s3). The summation order depends
/// only on n.
double dot(const double* x, const double* y, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += x[i] * y[i];
    s1 += x[i + 1] * y[i + 1];
    s2 += x[i + 2] * y[i + 2];
    s3 += x[i + 3] * y[i + 3];
  }
  for (; i < n; ++i) s0 += x[i] * y[i];
  return (s0 + s2) + (s1 + s3);
}

/// (x, y) <- (c x - s y, s x + c y).
void rotate(double* x, double* y, std::size_t n, double c, double s) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i], yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

/// Applies the reflector H = I - tau v v^T (v[0] = 1 implicit, v[1..n)
/// given) to the length-n vector x.
void reflect(const double* v, double tau, double* x, std::size_t n) {
  if (tau == 0.0) return;
  const double s = tau * (x[0] + dot(v + 1, x + 1, n - 1));
  x[0] -= s;
  for (std::size_t i = 1; i < n; ++i) x[i] -= s * v[i];
}

/// One-sided cyclic Jacobi on the n columns of x (column-contiguous,
/// n x n), accumulating the rotations into v. On exit the columns of x
/// are mutually orthogonal to within tol = sqrt(n) * DBL_EPSILON of
/// their norms (or kMaxSweeps ran out).
void jacobi_sweeps(std::vector<double>& x, std::vector<double>& v,
                   std::size_t n) {
  const double tol = std::sqrt(static_cast<double>(n)) * DBL_EPSILON;
  std::vector<double> d(n);  // squared column norms
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    for (std::size_t j = 0; j < n; ++j) {
      const double* xj = x.data() + j * n;
      d[j] = dot(xj, xj, n);
    }
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      double* xp = x.data() + p * n;
      for (std::size_t q = p + 1; q < n; ++q) {
        double* xq = x.data() + q * n;
        const double apq = dot(xp, xq, n);
        if (std::abs(apq) <= tol * std::sqrt(d[p]) * std::sqrt(d[q])) continue;
        rotated = true;

        // Rotation that zeroes the (p, q) inner product (Rutishauser).
        const double tau = (d[q] - d[p]) / (2.0 * apq);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        rotate(xp, xq, n, c, s);
        rotate(v.data() + p * n, v.data() + q * n, n, c, s);

        // Exact in exact arithmetic; a norm that cancels to below half
        // its old value has lost digits and is recomputed.
        const double dp = d[p] - t * apq, dq = d[q] + t * apq;
        d[p] = dp < 0.5 * d[p] ? dot(xp, xp, n) : dp;
        d[q] = dq < 0.5 * d[q] ? dot(xq, xq, n) : dq;
      }
    }
    if (!rotated) break;
  }
}

}  // namespace

Svd svd(const Matrix& a) {
  PKIFMM_CHECK(!a.empty());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (const double e : a.row(i))
      PKIFMM_CHECK_MSG(std::isfinite(e), "svd: non-finite input entry");

  // Factor W = A (or A^T if A is wide, so m >= n), column-contiguous:
  // column j of W is w[j*m, (j+1)*m).
  const bool transpose = a.rows() < a.cols();
  const std::size_t m = transpose ? a.cols() : a.rows();
  const std::size_t n = transpose ? a.rows() : a.cols();
  std::vector<double> w(m * n);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      (transpose ? w[r * m + c] : w[c * m + r]) = a(r, c);

  // Householder QR with column pivoting, W P = Q R: the reflector
  // vectors stay below the diagonal of w, R on and above it.
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<double> htau(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = -1.0;
    for (std::size_t j = k; j < n; ++j) {
      const double* col = w.data() + j * m + k;
      const double nrm = dot(col, col, m - k);
      if (nrm > best) best = nrm, piv = j;
    }
    if (piv != k) {
      std::swap_ranges(w.begin() + k * m, w.begin() + (k + 1) * m,
                       w.begin() + piv * m);
      std::swap(perm[k], perm[piv]);
    }

    double* x = w.data() + k * m + k;
    const std::size_t len = m - k;
    const double tail = dot(x + 1, x + 1, len - 1);
    if (tail == 0.0) continue;  // already upper triangular: H = I
    // H x = beta e_1, beta of the opposite sign to alpha so that
    // alpha - beta does not cancel.
    const double alpha = x[0];
    const double beta = -std::copysign(std::sqrt(alpha * alpha + tail), alpha);
    htau[k] = (beta - alpha) / beta;
    const double scale = 1.0 / (alpha - beta);
    for (std::size_t i = 1; i < len; ++i) x[i] *= scale;
    x[0] = beta;
    for (std::size_t j = k + 1; j < n; ++j)
      reflect(x, htau[k], w.data() + j * m + k, len);
  }

  // One-sided Jacobi on the columns of X = R^T (n x n, lower
  // triangular): X V = U_x Sigma, so R = V Sigma U_x^T and
  // W = (Q [V; 0]) Sigma (P U_x)^T.
  std::vector<double> x(n * n, 0.0), v(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) x[i * n + j] = w[j * m + i];
    v[i * n + i] = 1.0;
  }
  jacobi_sweeps(x, v, n);

  std::vector<double> sigma(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double* xj = x.data() + j * n;
    sigma[j] = std::sqrt(dot(xj, xj, n));
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t i, std::size_t j) {
    return sigma[i] > sigma[j];
  });

  Svd out;
  out.sigma.resize(n);
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  std::vector<double> u(m);
  for (std::size_t jj = 0; jj < n; ++jj) {
    const std::size_t j = order[jj];
    const double* xj = x.data() + j * n;
    out.sigma[jj] = sigma[j];

    // U column = Q [v_j; 0] = H_0 H_1 ... H_{n-1} [v_j; 0].
    std::fill(u.begin(), u.end(), 0.0);
    std::copy_n(v.data() + j * n, n, u.data());
    for (std::size_t k = n; k-- > 0;)
      reflect(w.data() + k * m + k, htau[k], u.data() + k, m - k);
    for (std::size_t i = 0; i < m; ++i) out.u(i, jj) = u[i];

    // V_W column = P x_j / sigma_j (zero where sigma_j = 0).
    const double inv = sigma[j] > 0.0 ? 1.0 / sigma[j] : 0.0;
    for (std::size_t i = 0; i < n; ++i) out.v(perm[i], jj) = xj[i] * inv;
  }

  if (transpose) std::swap(out.u, out.v);
  return out;
}

Matrix pinv(const Matrix& a, double rel_cutoff) {
  Svd s = svd(a);
  const double smax = s.sigma.empty() ? 0.0 : s.sigma.front();
  const double cutoff = smax * rel_cutoff;

  // pinv(A) = V (diag(1/sigma) U^T) over the retained spectrum.
  Matrix su = s.u.transposed();
  for (std::size_t j = 0; j < s.sigma.size(); ++j) {
    const double inv = s.sigma[j] > cutoff ? 1.0 / s.sigma[j] : 0.0;
    for (double& e : su.row(j)) e *= inv;
  }
  return gemm(s.v, su);
}

}  // namespace pkifmm::la
