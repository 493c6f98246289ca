#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "simd/simd.hpp"
#include "util/check.hpp"

namespace pkifmm::fft {

namespace {

bool is_pow2(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

constexpr double kSin60 = 0.86602540378443864676;  // sqrt(3) / 2

/// Radix-2 butterflies over nc columns: rows a and b = a + span.
void bfly2(double* __restrict ar, double* __restrict ai,
           double* __restrict br, double* __restrict bi, double wr, double wi,
           std::size_t nc) {
  for (std::size_t c = 0; c < nc; ++c) {
    const double vr = br[c] * wr - bi[c] * wi;
    const double vi = br[c] * wi + bi[c] * wr;
    const double xr = ar[c], xi = ai[c];
    br[c] = xr - vr;
    bi[c] = xi - vi;
    ar[c] = xr + vr;
    ai[c] = xi + vi;
  }
}

/// Radix-3 butterflies over nc columns: rows 0, 1, 2 at one span apart;
/// w1, w2 are the row-1/row-2 twiddles, sgn = -1 conjugates W_3.
void bfly3(double* __restrict r0, double* __restrict i0,
           double* __restrict r1, double* __restrict i1,
           double* __restrict r2, double* __restrict i2, const double* w,
           double sgn, std::size_t nc) {
  const double w1r = w[0], w1i = sgn * w[1], w2r = w[2], w2i = sgn * w[3];
  const double h = sgn * kSin60;
  for (std::size_t c = 0; c < nc; ++c) {
    const double br = r1[c] * w1r - i1[c] * w1i;
    const double bi = r1[c] * w1i + i1[c] * w1r;
    const double cr = r2[c] * w2r - i2[c] * w2i;
    const double ci = r2[c] * w2i + i2[c] * w2r;
    const double sr = br + cr, si = bi + ci;
    const double dr = h * (br - cr), di = h * (bi - ci);
    const double xr = r0[c], xi = i0[c];
    const double tr = xr - 0.5 * sr, ti = xi - 0.5 * si;
    r0[c] = xr + sr;
    i0[c] = xi + si;
    r1[c] = tr + di;
    i1[c] = ti - dr;
    r2[c] = tr - di;
    i2[c] = ti + dr;
  }
}

}  // namespace

void fft_inplace(std::span<Complex> a, bool inverse) {
  const std::size_t n = a.size();
  PKIFMM_CHECK_MSG(is_pow2(n), "FFT size must be a power of two, got " << n);
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  // Iterative Cooley-Tukey butterflies.
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang =
        2.0 * std::numbers::pi / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const Complex wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Complex w(1.0, 0.0);
      for (std::size_t j = 0; j < len / 2; ++j) {
        const Complex u = a[i + j];
        const Complex v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv;
  }
}

Fft3d::Fft3d(std::size_t n) : n_(n) {
  PKIFMM_CHECK_MSG(n >= 1, "Fft3d size must be positive");
  std::size_t rest = n;
  for (int r : {2, 3})
    while (rest % r == 0) {
      radix_.push_back(r);
      rest /= r;
    }
  PKIFMM_CHECK_MSG(rest == 1, "Fft3d size must be 2^a 3^b, got "
                                  << n << " (prime factor " << rest << ")");

  // Decimation in time: appending a stage of radix r to a transform of
  // size m splits the input into r decimated subsequences, subsequence
  // t taking rows [t*m, (t+1)*m). Hence perm[t*m + p] = prev[p]*r + t.
  perm_ = {0};
  std::size_t m = 1;
  for (int r : radix_) {
    std::vector<std::size_t> next(m * r);
    for (int t = 0; t < r; ++t)
      for (std::size_t p = 0; p < m; ++p) next[t * m + p] = perm_[p] * r + t;
    perm_ = std::move(next);

    // Stage twiddles W_len^(j t), j in [0, m), t in [1, r).
    const std::size_t len = m * r;
    for (std::size_t j = 0; j < m; ++j)
      for (int t = 1; t < r; ++t) {
        const double ang = -2.0 * std::numbers::pi *
                           static_cast<double>(j * t) /
                           static_cast<double>(len);
        tw_.push_back(std::cos(ang));
        tw_.push_back(std::sin(ang));
      }
    line_flops_ += r == 2 ? 5 * n : 28 * (n / 3);
    m = len;
  }
}

void Fft3d::stages(double* re, double* im, std::size_t nc,
                   bool inverse) const {
  const double sgn = inverse ? -1.0 : 1.0;
  const double* tw = tw_.data();
  std::size_t m = 1;
  for (int r : radix_) {
    const std::size_t len = m * r;
    const std::size_t span = m * nc;
    for (std::size_t base = 0; base < n_; base += len)
      for (std::size_t j = 0; j < m; ++j) {
        const double* w = tw + 2 * (r - 1) * j;
        double* r0 = re + (base + j) * nc;
        double* i0 = im + (base + j) * nc;
        if (r == 2)
          bfly2(r0, i0, r0 + span, i0 + span, w[0], sgn * w[1], nc);
        else
          bfly3(r0, i0, r0 + span, i0 + span, r0 + 2 * span, i0 + 2 * span,
                w, sgn, nc);
      }
    tw += 2 * (r - 1) * m;
    m = len;
  }
}

void Fft3d::pass(Complex* data, std::size_t row_stride, std::size_t nblk,
                 std::size_t blk_stride, std::size_t ncb,
                 std::size_t in_rows, std::size_t out_rows, bool inverse,
                 double scale) const {
  const std::size_t n = n_;
  const std::size_t nc = nblk * ncb;
  std::vector<double> buf(2 * n * nc);
  double* re = buf.data();
  double* im = re + n * nc;
  for (std::size_t p = 0; p < n; ++p) {
    double* dr = re + p * nc;
    double* di = im + p * nc;
    const std::size_t t = perm_[p];
    if (t >= in_rows) {
      std::fill(dr, dr + nc, 0.0);
      std::fill(di, di + nc, 0.0);
      continue;
    }
    for (std::size_t b = 0; b < nblk; ++b) {
      const double* src = reinterpret_cast<const double*>(
          data + t * row_stride + b * blk_stride);
      for (std::size_t k = 0; k < ncb; ++k) {
        dr[b * ncb + k] = src[2 * k];
        di[b * ncb + k] = src[2 * k + 1];
      }
    }
  }
  stages(re, im, nc, inverse);
  for (std::size_t t = 0; t < out_rows; ++t) {
    const double* sr = re + t * nc;
    const double* si = im + t * nc;
    for (std::size_t b = 0; b < nblk; ++b) {
      double* dst =
          reinterpret_cast<double*>(data + t * row_stride + b * blk_stride);
      for (std::size_t k = 0; k < ncb; ++k) {
        dst[2 * k] = sr[b * ncb + k] * scale;
        dst[2 * k + 1] = si[b * ncb + k] * scale;
      }
    }
  }
}

void Fft3d::forward(std::span<Complex> vol) const {
  PKIFMM_CHECK(vol.size() == volume());
  const std::size_t n = n_;
  pass(vol.data(), 1, n * n, n, 1, n, n, false, 1.0);      // x-lines
  pass(vol.data(), n, n, n * n, n, n, n, false, 1.0);      // y-lines
  pass(vol.data(), n * n, 1, 0, n * n, n, n, false, 1.0);  // z-lines
}

void Fft3d::inverse(std::span<Complex> vol) const {
  PKIFMM_CHECK(vol.size() == volume());
  const std::size_t n = n_;
  const double norm = 1.0 / static_cast<double>(volume());
  pass(vol.data(), 1, n * n, n, 1, n, n, true, 1.0);
  pass(vol.data(), n, n, n * n, n, n, n, true, 1.0);
  pass(vol.data(), n * n, 1, 0, n * n, n, n, true, norm);
}

// The x-pass of both real transforms packs two real lines into one
// complex line z = a + i b. Forward: A[k] = (Z[k] + conj Z[n-k]) / 2,
// B[k] = (Z[k] - conj Z[n-k]) / 2i. Inverse: Z = ext(A) + i ext(B),
// whose inverse transform carries a in its real and b in its imaginary
// part. Lines are the (y, z) rows of the corner cube, line l = z*s + y.

void Fft3d::forward_r2c(std::span<const double> cube, std::size_t s,
                        std::span<Complex> half) const {
  const std::size_t n = n_, hn = n / 2 + 1;
  PKIFMM_CHECK(s >= 1 && s <= n);
  PKIFMM_CHECK(cube.size() == s * s * s && half.size() == half_volume());
  const std::size_t nl = s * s, nc = (nl + 1) / 2;

  std::vector<double> buf(2 * n * nc);
  double* re = buf.data();
  double* im = re + n * nc;
  for (std::size_t p = 0; p < n; ++p) {
    double* dr = re + p * nc;
    double* di = im + p * nc;
    const std::size_t x = perm_[p];
    if (x >= s) {
      std::fill(dr, dr + nc, 0.0);
      std::fill(di, di + nc, 0.0);
      continue;
    }
    for (std::size_t c = 0; c < nc; ++c) {
      dr[c] = cube[2 * c * s + x];
      di[c] = 2 * c + 1 < nl ? cube[(2 * c + 1) * s + x] : 0.0;
    }
  }
  stages(re, im, nc, false);
  for (std::size_t l = 0; l < nl; ++l) {
    const std::size_t c = l / 2;
    Complex* out = half.data() + ((l / s) * n + l % s) * hn;
    for (std::size_t k = 0; k < hn; ++k) {
      const std::size_t k2 = (n - k) % n;
      const double zr = re[k * nc + c], zi = im[k * nc + c];
      const double wr = re[k2 * nc + c], wi = -im[k2 * nc + c];
      out[k] = l % 2 == 0 ? Complex(0.5 * (zr + wr), 0.5 * (zi + wi))
                          : Complex(0.5 * (zi - wi), -0.5 * (zr - wr));
    }
  }

  pass(half.data(), hn, s, n * hn, hn, s, n, false, 1.0);      // y-lines
  pass(half.data(), n * hn, 1, 0, n * hn, s, n, false, 1.0);   // z-lines
}

void Fft3d::inverse_c2r(std::span<Complex> half, std::size_t s,
                        std::span<double> cube) const {
  const std::size_t n = n_, hn = n / 2 + 1;
  PKIFMM_CHECK(s >= 1 && s <= n);
  PKIFMM_CHECK(cube.size() == s * s * s && half.size() == half_volume());
  const std::size_t nl = s * s, nc = (nl + 1) / 2;

  pass(half.data(), n * hn, 1, 0, n * hn, n, s, true, 1.0);    // z-lines
  pass(half.data(), hn, s, n * hn, hn, n, s, true, 1.0);       // y-lines

  std::vector<double> buf(2 * n * nc, 0.0);
  double* re = buf.data();
  double* im = re + n * nc;
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t k = perm_[p];
    const bool mirror = k >= hn;
    const std::size_t kk = mirror ? n - k : k;
    const bool real_only = kk == 0 || 2 * kk == n;
    for (std::size_t l = 0; l < nl; ++l) {
      const Complex v = half[((l / s) * n + l % s) * hn + kk];
      const double vr = v.real();
      const double vi = real_only ? 0.0 : (mirror ? -v.imag() : v.imag());
      if (l % 2 == 0) {  // + ext(A)
        re[p * nc + l / 2] += vr;
        im[p * nc + l / 2] += vi;
      } else {  // + i ext(B)
        re[p * nc + l / 2] -= vi;
        im[p * nc + l / 2] += vr;
      }
    }
  }
  stages(re, im, nc, true);
  const double norm = 1.0 / static_cast<double>(volume());
  for (std::size_t l = 0; l < nl; ++l) {
    const double* src = (l % 2 == 0 ? re : im) + l / 2;
    double* dst = cube.data() + l * s;
    for (std::size_t x = 0; x < s; ++x) dst[x] = src[x * nc] * norm;
  }
}

std::uint64_t Fft3d::transform_flops() const {
  return 3ull * n_ * n_ * line_flops_;
}

std::uint64_t Fft3d::real_transform_flops(std::size_t s) const {
  const std::uint64_t hn = n_ / 2 + 1;
  const std::uint64_t lines = (s * s + 1) / 2 + s * hn + n_ * hn;
  return lines * line_flops_;
}

std::size_t smooth_size(std::size_t x) {
  // Largest representable power of two; a 2^a 3^b search beyond it
  // would overflow (and a request that large is a caller bug).
  constexpr std::size_t kMaxPow2 =
      std::numeric_limits<std::size_t>::max() / 2 + 1;
  PKIFMM_CHECK_MSG(x <= kMaxPow2,
                   "smooth_size: " << x << " exceeds the largest size_t "
                                   << "power of two (" << kMaxPow2 << ")");
  // For each power of three p3 <= x (and the first one above), the
  // smallest p3 * 2^a >= x; v < x <= kMaxPow2 keeps v * 2 in range.
  std::size_t best = kMaxPow2;
  for (std::size_t p3 = 1;; p3 *= 3) {
    std::size_t v = p3;
    while (v < x) v *= 2;
    best = std::min(best, v);
    if (p3 >= x) break;
  }
  return best;
}

// The complex MACs below route through the runtime-dispatched SIMD
// tiers (src/simd/). The scalar tier keeps the hand-rolled 4-mul/4-add
// form (no __muldc3 Annex-G call); the vector tiers use the interleaved
// fmaddsub idiom on the same [re, im] layout. Within a tier the
// accumulation per frequency index is a single two-product update, so
// any chunking of the index range gives bitwise-identical results.

void pointwise_mac(std::span<const Complex> g, std::span<const Complex> f,
                   std::span<Complex> acc) {
  PKIFMM_CHECK(g.size() == f.size() && f.size() == acc.size());
  simd::ops().cmac(reinterpret_cast<const double*>(g.data()),
                   reinterpret_cast<const double*>(f.data()),
                   reinterpret_cast<double*>(acc.data()), g.size());
}

void pointwise_mac_chunked(const Complex* g, std::size_t c,
                           const Complex* f_base, Complex* acc_base,
                           std::span<const std::int32_t> fidx,
                           std::span<const std::int32_t> aidx) {
  PKIFMM_CHECK(fidx.size() == aidx.size());
  const simd::Ops& ops = simd::ops();
  const double* gd = reinterpret_cast<const double*>(g);
  for (std::size_t e = 0; e < fidx.size(); ++e) {
    const double* fd =
        reinterpret_cast<const double*>(f_base + std::size_t(fidx[e]) * c);
    double* ad =
        reinterpret_cast<double*>(acc_base + std::size_t(aidx[e]) * c);
    ops.cmac(gd, fd, ad, c);
  }
}

}  // namespace pkifmm::fft
