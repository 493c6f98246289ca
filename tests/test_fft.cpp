#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "fft/fft.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace pkifmm::fft {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& x : v) x = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  return v;
}

double max_err(std::span<const Complex> a, std::span<const Complex> b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

/// O(n^2) reference DFT.
std::vector<Complex> dft(std::span<const Complex> a, bool inverse) {
  const std::size_t n = a.size();
  std::vector<Complex> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = sign * 2.0 * std::numbers::pi *
                         static_cast<double>(k * j) / static_cast<double>(n);
      acc += a[j] * Complex(std::cos(ang), std::sin(ang));
    }
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

TEST(Fft, SizeOneIsIdentity) {
  std::vector<Complex> a = {Complex(3.0, -2.0)};
  fft_inplace(a, false);
  EXPECT_EQ(a[0], Complex(3.0, -2.0));
}

TEST(Fft, MatchesReferenceDft) {
  for (std::size_t n : {2u, 4u, 8u, 16u, 64u}) {
    auto a = random_signal(n, n);
    auto ref = dft(a, false);
    fft_inplace(a, false);
    EXPECT_LT(max_err(a, ref), 1e-10) << "n=" << n;
  }
}

TEST(Fft, InverseMatchesReferenceDft) {
  auto a = random_signal(32, 77);
  auto ref = dft(a, true);
  fft_inplace(a, true);
  EXPECT_LT(max_err(a, ref), 1e-10);
}

TEST(Fft, RoundTripIsIdentity) {
  for (std::size_t n : {8u, 128u, 1024u}) {
    auto a = random_signal(n, 100 + n);
    auto orig = a;
    fft_inplace(a, false);
    fft_inplace(a, true);
    EXPECT_LT(max_err(a, orig), 1e-11) << "n=" << n;
  }
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Complex> a(12);
  EXPECT_ANY_THROW(fft_inplace(a, false));
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<Complex> a(16, Complex(0.0, 0.0));
  a[0] = 1.0;
  fft_inplace(a, false);
  for (const auto& x : a) EXPECT_NEAR(std::abs(x - Complex(1.0, 0.0)), 0.0, 1e-12);
}

TEST(Fft, LinearityHolds) {
  auto a = random_signal(64, 1);
  auto b = random_signal(64, 2);
  std::vector<Complex> sum(64);
  for (int i = 0; i < 64; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  fft_inplace(a, false);
  fft_inplace(b, false);
  fft_inplace(sum, false);
  for (int i = 0; i < 64; ++i)
    EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 1e-10);
}

TEST(Fft3d, RoundTrip) {
  Fft3d plan(8);
  auto vol = random_signal(plan.volume(), 9);
  auto orig = vol;
  plan.forward(vol);
  plan.inverse(vol);
  EXPECT_LT(max_err(vol, orig), 1e-11);
}

TEST(Fft3d, SeparableProductTransform) {
  // FFT of a separable function f(x,y,z) = gx(x) gy(y) gz(z) is the
  // tensor product of 1-D FFTs.
  const std::size_t n = 8;
  auto gx = random_signal(n, 11), gy = random_signal(n, 12),
       gz = random_signal(n, 13);
  Fft3d plan(n);
  std::vector<Complex> vol(plan.volume());
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x)
        vol[(z * n + y) * n + x] = gx[x] * gy[y] * gz[z];
  plan.forward(vol);
  auto fx = gx, fy = gy, fz = gz;
  fft_inplace(fx, false);
  fft_inplace(fy, false);
  fft_inplace(fz, false);
  double err = 0.0;
  for (std::size_t z = 0; z < n; ++z)
    for (std::size_t y = 0; y < n; ++y)
      for (std::size_t x = 0; x < n; ++x)
        err = std::max(err, std::abs(vol[(z * n + y) * n + x] -
                                     fx[x] * fy[y] * fz[z]));
  EXPECT_LT(err, 1e-10);
}

TEST(Fft3d, CircularConvolutionViaFrequencyProduct) {
  // IFFT(FFT(f) .* FFT(g)) equals the circular convolution of f and g.
  const std::size_t n = 4;
  Fft3d plan(n);
  auto f = random_signal(plan.volume(), 21);
  auto g = random_signal(plan.volume(), 22);

  // Direct circular convolution.
  std::vector<Complex> direct(plan.volume(), Complex(0, 0));
  auto idx = [&](std::size_t x, std::size_t y, std::size_t z) {
    return (z * n + y) * n + x;
  };
  for (std::size_t az = 0; az < n; ++az)
    for (std::size_t ay = 0; ay < n; ++ay)
      for (std::size_t ax = 0; ax < n; ++ax)
        for (std::size_t bz = 0; bz < n; ++bz)
          for (std::size_t by = 0; by < n; ++by)
            for (std::size_t bx = 0; bx < n; ++bx)
              direct[idx(ax, ay, az)] +=
                  f[idx(bx, by, bz)] *
                  g[idx((ax - bx + n) % n, (ay - by + n) % n,
                        (az - bz + n) % n)];

  auto fh = f, gh = g;
  plan.forward(fh);
  plan.forward(gh);
  std::vector<Complex> prod(plan.volume(), Complex(0, 0));
  pointwise_mac(gh, fh, prod);
  plan.inverse(prod);
  EXPECT_LT(max_err(prod, direct), 1e-10);
}

TEST(FftSmoothSize, Values) {
  EXPECT_EQ(smooth_size(0), 1u);
  EXPECT_EQ(smooth_size(1), 1u);
  EXPECT_EQ(smooth_size(5), 6u);
  EXPECT_EQ(smooth_size(7), 8u);
  EXPECT_EQ(smooth_size(8), 8u);
  EXPECT_EQ(smooth_size(9), 9u);
  EXPECT_EQ(smooth_size(11), 12u);
  EXPECT_EQ(smooth_size(13), 16u);
  EXPECT_EQ(smooth_size(15), 16u);
  EXPECT_EQ(smooth_size(17), 18u);
  EXPECT_EQ(smooth_size(25), 27u);
  EXPECT_EQ(smooth_size(100), 108u);
}

TEST(FftSmoothSize, LargestPowerOfTwoIsFixpoint) {
  constexpr std::size_t kMaxPow2 =
      std::numeric_limits<std::size_t>::max() / 2 + 1;
  EXPECT_EQ(smooth_size(kMaxPow2), kMaxPow2);
  // 2^63 - 1 has prime factors above 3, and no 2^a 3^b lies between.
  EXPECT_EQ(smooth_size(kMaxPow2 - 1), kMaxPow2);
}

TEST(FftSmoothSize, RejectsUnrepresentableRequest) {
  // Above the top power of two the search could overflow; it must
  // throw instead of wrapping around.
  constexpr std::size_t kMaxPow2 =
      std::numeric_limits<std::size_t>::max() / 2 + 1;
  EXPECT_THROW(smooth_size(kMaxPow2 + 1), CheckFailure);
  EXPECT_THROW(smooth_size(std::numeric_limits<std::size_t>::max()),
               CheckFailure);
}

TEST(PointwiseMac, Accumulates) {
  std::vector<Complex> g = {Complex(1, 1), Complex(2, 0)};
  std::vector<Complex> f = {Complex(0, 1), Complex(3, 0)};
  std::vector<Complex> acc = {Complex(1, 0), Complex(0, 0)};
  pointwise_mac(g, f, acc);
  EXPECT_EQ(acc[0], Complex(1, 0) + Complex(1, 1) * Complex(0, 1));
  EXPECT_EQ(acc[1], Complex(6, 0));
}

TEST(PointwiseMacChunked, MatchesPerEntryMac) {
  // Chunk-major layout: slot s's frequencies [q0, q0+c) live at
  // base + s*c. Each (fidx, aidx) entry is one translation applied to
  // one chunk; duplicates must accumulate.
  const std::size_t c = 16, nf = 6, na = 4;
  const auto g = random_signal(c, 220);
  const auto f = random_signal(c * nf, 221);
  auto acc = random_signal(c * na, 222);
  auto ref = acc;
  const std::vector<std::int32_t> fidx = {0, 5, 2, 5};
  const std::vector<std::int32_t> aidx = {3, 0, 3, 1};
  for (std::size_t e = 0; e < fidx.size(); ++e)
    for (std::size_t i = 0; i < c; ++i)
      ref[std::size_t(aidx[e]) * c + i] +=
          g[i] * f[std::size_t(fidx[e]) * c + i];
  pointwise_mac_chunked(g.data(), c, f.data(), acc.data(), fidx, aidx);
  EXPECT_LT(max_err(acc, ref), 1e-14);
}

/// Reference 3-D DFT: the O(n) 1-D DFT along each axis in turn.
std::vector<Complex> dft3(std::span<const Complex> v, std::size_t n,
                          bool inverse) {
  std::vector<Complex> out(v.begin(), v.end()), line(n);
  const std::size_t stride[3] = {1, n, n * n};
  for (int axis = 0; axis < 3; ++axis) {
    const std::size_t st = stride[axis];
    for (std::size_t base = 0; base < n * n * n; ++base) {
      if ((base / st) % n != 0) continue;  // visit each line once
      for (std::size_t t = 0; t < n; ++t) line[t] = out[base + t * st];
      const auto f = dft(line, inverse);
      for (std::size_t t = 0; t < n; ++t) out[base + t * st] = f[t];
    }
  }
  return out;
}

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

/// The s^3 corner cube embedded in a zeroed n^3 complex volume.
std::vector<Complex> embed_corner(std::span<const double> cube,
                                  std::size_t s, std::size_t n) {
  std::vector<Complex> vol(n * n * n, Complex(0, 0));
  for (std::size_t z = 0; z < s; ++z)
    for (std::size_t y = 0; y < s; ++y)
      for (std::size_t x = 0; x < s; ++x)
        vol[(z * n + y) * n + x] = cube[(z * s + y) * s + x];
  return vol;
}

TEST(Fft3d, RejectsPrimeFactorAboveThree) {
  for (std::size_t n : {0u, 5u, 7u, 10u, 14u, 15u, 22u})
    EXPECT_THROW(Fft3d plan(n), CheckFailure) << "n=" << n;
  for (std::size_t n : {1u, 2u, 3u, 6u, 9u, 12u, 18u})
    EXPECT_NO_THROW(Fft3d plan(n)) << "n=" << n;
}

TEST(Fft3d, MixedRadixMatchesReferenceDft) {
  for (std::size_t n : {3u, 6u, 9u, 12u}) {
    Fft3d plan(n);
    const auto v = random_signal(plan.volume(), 30 + n);
    auto f = v;
    plan.forward(f);
    EXPECT_LT(max_err(f, dft3(v, n, false)), 1e-10) << "n=" << n;
    auto b = v;
    plan.inverse(b);
    EXPECT_LT(max_err(b, dft3(v, n, true)), 1e-12) << "n=" << n;
  }
}

TEST(Fft3dReal, ForwardMatchesComplexTransform) {
  for (std::size_t n : {6u, 8u, 9u, 12u, 16u})
    for (std::size_t s : {n / 2, n}) {
      Fft3d plan(n);
      const std::size_t hn = n / 2 + 1;
      const auto cube = random_real(s * s * s, 40 + n + s);
      std::vector<Complex> half(plan.half_volume());
      plan.forward_r2c(cube, s, half);
      auto full = embed_corner(cube, s, n);
      plan.forward(full);
      double err = 0.0;
      for (std::size_t kz = 0; kz < n; ++kz)
        for (std::size_t ky = 0; ky < n; ++ky)
          for (std::size_t kx = 0; kx < hn; ++kx)
            err = std::max(err, std::abs(half[(kz * n + ky) * hn + kx] -
                                         full[(kz * n + ky) * n + kx]));
      EXPECT_LT(err, 1e-11) << "n=" << n << " s=" << s;
    }
}

TEST(Fft3dReal, InverseMatchesComplexTransform) {
  // c2r of a Hermitian half spectrum is the real part of the complex
  // inverse of its full spectrum, restricted to the corner.
  for (std::size_t n : {6u, 8u, 9u, 12u, 16u})
    for (std::size_t s : {n / 2, n}) {
      Fft3d plan(n);
      const std::size_t hn = n / 2 + 1;
      auto full = embed_corner(random_real(n * n * n, 50 + n), n, n);
      plan.forward(full);
      std::vector<Complex> half(plan.half_volume());
      for (std::size_t kz = 0; kz < n; ++kz)
        for (std::size_t ky = 0; ky < n; ++ky)
          for (std::size_t kx = 0; kx < hn; ++kx)
            half[(kz * n + ky) * hn + kx] = full[(kz * n + ky) * n + kx];
      std::vector<double> cube(s * s * s);
      plan.inverse_c2r(half, s, cube);
      plan.inverse(full);
      double err = 0.0;
      for (std::size_t z = 0; z < s; ++z)
        for (std::size_t y = 0; y < s; ++y)
          for (std::size_t x = 0; x < s; ++x)
            err = std::max(err, std::abs(cube[(z * s + y) * s + x] -
                                         full[(z * n + y) * n + x].real()));
      EXPECT_LT(err, 1e-12) << "n=" << n << " s=" << s;
    }
}

TEST(Fft3dReal, RoundTripIsIdentity) {
  for (std::size_t n : {6u, 8u, 9u, 12u, 16u}) {
    Fft3d plan(n);
    const std::size_t s = (n + 1) / 2;
    const auto cube = random_real(s * s * s, 60 + n);
    std::vector<Complex> half(plan.half_volume());
    plan.forward_r2c(cube, s, half);
    std::vector<double> back(cube.size());
    plan.inverse_c2r(half, s, back);
    double err = 0.0;
    for (std::size_t i = 0; i < cube.size(); ++i)
      err = std::max(err, std::abs(back[i] - cube[i]));
    EXPECT_LT(err, 1e-13) << "n=" << n;
  }
}

TEST(Fft3dReal, CircularConvolutionViaHalfSpectrumProduct) {
  // The V-list's use: f on an s^3 corner, g on the whole grid; the
  // half-spectrum product's c2r is their circular convolution.
  for (std::size_t n : {6u, 9u}) {
    Fft3d plan(n);
    const std::size_t s = 3;
    const auto f = random_real(s * s * s, 70 + n);
    const auto g = random_real(n * n * n, 80 + n);
    std::vector<double> direct(s * s * s, 0.0);
    for (std::size_t az = 0; az < s; ++az)
      for (std::size_t ay = 0; ay < s; ++ay)
        for (std::size_t ax = 0; ax < s; ++ax)
          for (std::size_t bz = 0; bz < s; ++bz)
            for (std::size_t by = 0; by < s; ++by)
              for (std::size_t bx = 0; bx < s; ++bx)
                direct[(az * s + ay) * s + ax] +=
                    f[(bz * s + by) * s + bx] *
                    g[(((az - bz + n) % n) * n + (ay - by + n) % n) * n +
                      (ax - bx + n) % n];

    std::vector<Complex> fh(plan.half_volume()), gh(plan.half_volume()),
        prod(plan.half_volume(), Complex(0, 0));
    plan.forward_r2c(f, s, fh);
    plan.forward_r2c(g, n, gh);
    pointwise_mac(gh, fh, prod);
    std::vector<double> conv(s * s * s);
    plan.inverse_c2r(prod, s, conv);
    double err = 0.0;
    for (std::size_t i = 0; i < conv.size(); ++i)
      err = std::max(err, std::abs(conv[i] - direct[i]));
    EXPECT_LT(err, 1e-12) << "n=" << n;
  }
}

TEST(Fft3dReal, FlopModel) {
  // Power-of-two lines keep the 5 n log2 n count; radix 3 adds 28 n/3.
  EXPECT_EQ(Fft3d(8).line_flops(), 5u * 8 * 3);
  EXPECT_EQ(Fft3d(16).line_flops(), 5u * 16 * 4);
  EXPECT_EQ(Fft3d(12).line_flops(), 5u * 12 * 2 + 28u * 4);
  EXPECT_EQ(Fft3d(9).line_flops(), 2u * 28 * 3);
  // n = 12 at the V-list extent 6: 18 paired x-lines, 6*7 y-lines and
  // 12*7 z-lines, against 3*144 lines for a complex transform.
  const Fft3d plan(12);
  EXPECT_EQ(plan.real_transform_flops(6), (18u + 42 + 84) * 232);
  EXPECT_EQ(plan.transform_flops(), 3u * 144 * 232);
  EXPECT_EQ(plan.half_volume(), 12u * 12 * 7);
}

TEST(Fft3d, TransformFlopsPositiveAndScales) {
  Fft3d a(8), b(16);
  EXPECT_GT(a.transform_flops(), 0u);
  EXPECT_GT(b.transform_flops(), a.transform_flops());
}

TEST(Fft, ParsevalIdentityHolds) {
  auto a = random_signal(256, 55);
  double time_energy = 0.0;
  for (const auto& x : a) time_energy += std::norm(x);
  fft_inplace(a, false);
  double freq_energy = 0.0;
  for (const auto& x : a) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-10 * time_energy);
}

TEST(Fft, RealSignalHasConjugateSymmetricSpectrum) {
  Rng rng(66);
  std::vector<Complex> a(64);
  for (auto& x : a) x = Complex(rng.uniform(-1, 1), 0.0);
  fft_inplace(a, false);
  for (std::size_t k = 1; k < a.size(); ++k)
    EXPECT_LT(std::abs(a[k] - std::conj(a[a.size() - k])), 1e-10);
}

TEST(Fft, ShiftTheoremPhaseRamp) {
  // FFT of a cyclically shifted signal = phase-ramped spectrum.
  auto a = random_signal(32, 67);
  std::vector<Complex> shifted(32);
  for (int i = 0; i < 32; ++i) shifted[i] = a[(i + 31) % 32];  // shift by 1
  auto fa = a, fs = shifted;
  fft_inplace(fa, false);
  fft_inplace(fs, false);
  for (int k = 0; k < 32; ++k) {
    const double ang = -2.0 * std::numbers::pi * k / 32.0;
    const Complex ramp(std::cos(ang), std::sin(ang));
    EXPECT_LT(std::abs(fs[k] - fa[k] * ramp), 1e-10) << k;
  }
}

}  // namespace
}  // namespace pkifmm::fft
