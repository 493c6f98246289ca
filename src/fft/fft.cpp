#include "fft/fft.hpp"

#include <cmath>
#include <numbers>

#include "simd/simd.hpp"
#include "util/check.hpp"

namespace pkifmm::fft {

namespace {

/// Per-thread work space of at least n doubles. It grows and is never
/// freed: a thread allocates only on its first transform at a larger
/// size.
double* scratch(std::size_t n) {
  thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

/// e^(-2 pi i j / n), exact at the multiples of a quarter turn.
Complex unit_root(std::size_t j, std::size_t n) {
  j %= n;
  if (j == 0) return {1, 0};
  if (2 * j == n) return {-1, 0};
  if (4 * j == n) return {0, -1};
  if (4 * j == 3 * n) return {0, 1};
  // Angles in (0, pi] keep the argument small; the rest mirror.
  const bool mirror = 2 * j > n;
  const double ang = 2.0 * std::numbers::pi *
                     static_cast<double>(mirror ? n - j : j) /
                     static_cast<double>(n);
  return {std::cos(ang), mirror ? std::sin(ang) : -std::sin(ang)};
}

}  // namespace

Fft3d::Fft3d(std::size_t n) : n_(n) {
  PKIFMM_CHECK_MSG(n >= 1, "Fft3d size must be positive");
  const std::size_t nn = n * n, hn = half_n();
  const double norm = 1.0 / static_cast<double>(volume());
  tw_.assign(8 * nn, 0.0);
  const auto set = [&](Table t, std::size_t e, Complex v) {
    tw_[2 * t * nn + e] = v.real();
    tw_[2 * t * nn + nn + e] = v.imag();
  };
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = 0; b < n; ++b) {
      const Complex w = unit_root(a * b, n), winv = std::conj(w) * norm;
      set(kFwd, a * n + b, w);
      set(kBwd, a * n + b, std::conj(w));
      set(kBwdNorm, a * n + b, winv);
      if (a < hn)
        set(kHerm, a * n + b, a == 0 || 2 * a == n ? winv : 2.0 * winv);
    }
}

// The stages keep lane data in rows of L = lanes reals followed by L
// imaginary parts. r2c runs x (s^2 lines (z, y) of s reals -> rows of
// hn kx values), y (per z, rows y < s -> ky < N) and z (per ky, rows
// z < s -> kz < N, written into the spectrum); c2r runs z, y and x back,
// computing only the outputs below s.

void Fft3d::forward_r2c(std::span<const double> cube, std::size_t s,
                        double* re, double* im) const {
  PKIFMM_CHECK(s >= 1 && s <= n_ && cube.size() == s * s * s);
  const std::size_t n = n_, hn = half_n(), row = 2 * hn;
  double* xs = scratch(row * s * (s + n));  // rows (z, y), y < s
  double* ys = xs + row * s * s;            // rows (z, ky)
  const simd::Ops& ops = simd::ops();
  ops.dft_x({.tr = tw_re(kFwd), .ti = tw_im(kFwd), .ts = n, .lines = s * s,
             .n_in = s, .n_out = hn, .xr = cube.data(), .x_line = s,
             .x_step = 1, .yr = xs, .yi = xs + hn, .y_line = row});
  ops.dft_yz({.tr = tw_re(kFwd), .ti = tw_im(kFwd), .ts = n, .lines = s,
              .n_in = s, .n_out = n, .lanes = hn, .xr = xs, .xi = xs + hn,
              .x_line = row * s, .x_step = row, .yr = ys, .yi = ys + hn,
              .y_line = row * n, .y_step = row});
  ops.dft_yz({.tr = tw_re(kFwd), .ti = tw_im(kFwd), .ts = n, .lines = n,
              .n_in = s, .n_out = n, .lanes = hn, .xr = ys, .xi = ys + hn,
              .x_line = row, .x_step = row * n, .yr = re, .yi = im,
              .y_line = hn, .y_step = n * hn});
}

void Fft3d::inverse_c2r(const double* re, const double* im, std::size_t s,
                        std::span<double> cube) const {
  PKIFMM_CHECK(s >= 1 && s <= n_ && cube.size() == s * s * s);
  const std::size_t n = n_, hn = half_n(), row = 2 * hn;
  double* zs = scratch(row * s * (s + n));  // rows (z, ky), z < s
  double* ys = zs + row * s * n;            // rows (z, y)
  const simd::Ops& ops = simd::ops();
  ops.dft_yz({.tr = tw_re(kBwd), .ti = tw_im(kBwd), .ts = n, .lines = n,
              .n_in = n, .n_out = s, .lanes = hn, .xr = re, .xi = im,
              .x_line = hn, .x_step = n * hn, .yr = zs, .yi = zs + hn,
              .y_line = row, .y_step = row * n});
  ops.dft_yz({.tr = tw_re(kBwd), .ti = tw_im(kBwd), .ts = n, .lines = s,
              .n_in = n, .n_out = s, .lanes = hn, .xr = zs, .xi = zs + hn,
              .x_line = row * n, .x_step = row, .yr = ys, .yi = ys + hn,
              .y_line = row * s, .y_step = row});
  ops.dft_x({.tr = tw_re(kHerm), .ti = tw_im(kHerm), .ts = n,
             .lines = s * s, .n_in = hn, .n_out = s, .xr = ys, .xi = ys + hn,
             .x_line = row, .x_step = 1, .yr = cube.data(), .y_line = s});
}

void Fft3d::complex_transform(std::span<Complex> vol, Table x,
                              Table yz) const {
  PKIFMM_CHECK(vol.size() == volume());
  const std::size_t n = n_, row = 2 * n;
  double* a = scratch(2 * row * n * n);  // rows (z, y), then (kz, ky)
  double* b = a + row * n * n;           // rows (z, ky)
  const double* v = reinterpret_cast<const double*>(vol.data());
  const simd::Ops& ops = simd::ops();
  ops.dft_x({.tr = tw_re(x), .ti = tw_im(x), .ts = n, .lines = n * n,
             .n_in = n, .n_out = n, .xr = v, .xi = v + 1, .x_line = 2 * n,
             .x_step = 2, .yr = a, .yi = a + n, .y_line = row});
  ops.dft_yz({.tr = tw_re(yz), .ti = tw_im(yz), .ts = n, .lines = n,
              .n_in = n, .n_out = n, .lanes = n, .xr = a, .xi = a + n,
              .x_line = row * n, .x_step = row, .yr = b, .yi = b + n,
              .y_line = row * n, .y_step = row});
  ops.dft_yz({.tr = tw_re(yz), .ti = tw_im(yz), .ts = n, .lines = n,
              .n_in = n, .n_out = n, .lanes = n, .xr = b, .xi = b + n,
              .x_line = row, .x_step = row * n, .yr = a, .yi = a + n,
              .y_line = row, .y_step = row * n});
  for (std::size_t r = 0; r < n * n; ++r)
    for (std::size_t k = 0; k < n; ++k)
      vol[r * n + k] = {a[r * row + k], a[r * row + n + k]};
}

void Fft3d::forward(std::span<Complex> vol) const {
  complex_transform(vol, kFwd, kFwd);
}

void Fft3d::inverse(std::span<Complex> vol) const {
  complex_transform(vol, kBwdNorm, kBwd);
}

std::uint64_t Fft3d::transform_flops() const {
  const std::uint64_t n = n_;
  return 24 * n * n * n * n;
}

std::uint64_t Fft3d::real_transform_flops(std::size_t s) const {
  const std::uint64_t n = n_, hn = half_n(), t = s;
  return 4 * t * t * t * hn + 8 * t * t * n * hn + 8 * t * n * n * hn;
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
  simd::ops().cmac_entries(reinterpret_cast<const double*>(g), c,
                           reinterpret_cast<const double*>(f_base),
                           reinterpret_cast<double*>(acc_base), fidx.data(),
                           aidx.data(), fidx.size());
}

}  // namespace pkifmm::fft
