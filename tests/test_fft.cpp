#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <numbers>

#include "fft/fft.hpp"
#include "simd/simd.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

// Counts every operator new of this binary, for
// Fft3d.TransformsDoNotAllocate.
namespace {
std::atomic<long> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// GCC takes the inlined free() for a mismatch with operator new.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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

/// Reference 3-D DFT: the O(n^2) 1-D DFT along each axis in turn.
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

/// The kx < n/2 + 1 half of a full n^3 spectrum.
std::vector<Complex> half_of(std::span<const Complex> full, std::size_t n) {
  const std::size_t hn = n / 2 + 1;
  std::vector<Complex> half(n * n * hn);
  for (std::size_t r = 0; r < n * n; ++r)
    for (std::size_t kx = 0; kx < hn; ++kx)
      half[r * hn + kx] = full[r * n + kx];
  return half;
}

/// forward_r2c into an interleaved half spectrum.
std::vector<Complex> r2c(const Fft3d& plan, std::span<const double> cube,
                         std::size_t s) {
  std::vector<double> re(plan.half_volume()), im(plan.half_volume());
  plan.forward_r2c(cube, s, re.data(), im.data());
  std::vector<Complex> half(re.size());
  for (std::size_t q = 0; q < half.size(); ++q) half[q] = {re[q], im[q]};
  return half;
}

/// inverse_c2r from an interleaved half spectrum.
void c2r(const Fft3d& plan, std::span<const Complex> half, std::size_t s,
         std::span<double> cube) {
  std::vector<double> re(half.size()), im(half.size());
  for (std::size_t q = 0; q < half.size(); ++q) {
    re[q] = half[q].real();
    im[q] = half[q].imag();
  }
  plan.inverse_c2r(re.data(), im.data(), s, cube);
}

/// Every grid the transforms are checked on: 1 through 17, the primes
/// 5, 7, 11 and 13 and the V-list grids 2n - 1 included.
constexpr std::size_t kMaxN = 17;

TEST(Fft, SizeOneIsIdentity) {
  const Fft3d plan(1);
  std::vector<Complex> a = {Complex(3.0, -2.0)};
  plan.forward(a);
  EXPECT_EQ(a[0], Complex(3.0, -2.0));
  plan.inverse(a);
  EXPECT_EQ(a[0], Complex(3.0, -2.0));
  const std::vector<double> x = {-1.5};
  const auto h = r2c(plan, x, 1);
  EXPECT_EQ(h[0], Complex(-1.5, 0.0));
  std::vector<double> back(1);
  c2r(plan, h, 1, back);
  EXPECT_EQ(back[0], -1.5);
}

TEST(Fft, MatchesReferenceDft) {
  for (std::size_t n = 1; n <= kMaxN; ++n) {
    const Fft3d plan(n);
    auto a = random_signal(plan.volume(), n);
    const auto ref = dft3(a, n, false);
    plan.forward(a);
    EXPECT_LT(max_err(a, ref), 1e-11) << "n=" << n;
  }
}

TEST(Fft, InverseMatchesReferenceDft) {
  for (std::size_t n = 1; n <= kMaxN; ++n) {
    const Fft3d plan(n);
    auto a = random_signal(plan.volume(), 77 + n);
    const auto ref = dft3(a, n, true);
    plan.inverse(a);
    EXPECT_LT(max_err(a, ref), 1e-14) << "n=" << n;
  }
}

TEST(Fft, RoundTripIsIdentity) {
  for (std::size_t n : {2u, 5u, 11u, 12u, 16u}) {
    const Fft3d plan(n);
    auto a = random_signal(plan.volume(), 100 + n);
    const auto orig = a;
    plan.forward(a);
    plan.inverse(a);
    EXPECT_LT(max_err(a, orig), 1e-13) << "n=" << n;
  }
}

TEST(Fft, ImpulseGivesFlatSpectrum) {
  // A unit impulse at the origin has the all-ones spectrum, through the
  // complex transform and through r2c.
  for (std::size_t n : {7u, 8u}) {
    const Fft3d plan(n);
    std::vector<Complex> a(plan.volume(), Complex(0.0, 0.0));
    a[0] = 1.0;
    plan.forward(a);
    for (const auto& x : a) EXPECT_EQ(x, Complex(1.0, 0.0)) << "n=" << n;
    std::vector<double> cube(n * n * n, 0.0);
    cube[0] = 1.0;
    for (const auto& x : r2c(plan, cube, n))
      EXPECT_EQ(x, Complex(1.0, 0.0)) << "n=" << n;
  }
}

TEST(Fft, LinearityHolds) {
  for (std::size_t n : {8u, 11u}) {
    const Fft3d plan(n);
    auto a = random_signal(plan.volume(), 1);
    auto b = random_signal(plan.volume(), 2);
    std::vector<Complex> sum(plan.volume());
    for (std::size_t i = 0; i < sum.size(); ++i)
      sum[i] = 2.0 * a[i] + 3.0 * b[i];
    plan.forward(a);
    plan.forward(b);
    plan.forward(sum);
    for (std::size_t i = 0; i < sum.size(); ++i)
      EXPECT_LT(std::abs(sum[i] - (2.0 * a[i] + 3.0 * b[i])), 1e-11)
          << "n=" << n << " i=" << i;
  }
}

TEST(Fft, ParsevalIdentityHolds) {
  // sum |x|^2 = sum |X|^2 / N^3 for the complex transform, and for r2c
  // with each kx counted twice except kx = 0 (and kx = N/2, N even).
  for (std::size_t n : {9u, 12u}) {
    const Fft3d plan(n);
    auto a = random_signal(plan.volume(), 55 + n);
    double time_energy = 0.0;
    for (const auto& x : a) time_energy += std::norm(x);
    plan.forward(a);
    double freq_energy = 0.0;
    for (const auto& x : a) freq_energy += std::norm(x);
    const double vol = static_cast<double>(plan.volume());
    EXPECT_NEAR(freq_energy / vol, time_energy, 1e-12 * time_energy)
        << "n=" << n;

    const auto cube = random_real(plan.volume(), 56 + n);
    const auto half = r2c(plan, cube, n);
    double real_energy = 0.0, half_energy = 0.0;
    for (double x : cube) real_energy += x * x;
    const std::size_t hn = plan.half_n();
    for (std::size_t q = 0; q < half.size(); ++q) {
      const std::size_t kx = q % hn;
      half_energy += (kx == 0 || 2 * kx == n ? 1.0 : 2.0) * std::norm(half[q]);
    }
    EXPECT_NEAR(half_energy / vol, real_energy, 1e-12 * real_energy)
        << "n=" << n;
  }
}

TEST(Fft, RealSignalHasConjugateSymmetricSpectrum) {
  // X[k] = conj X[-k] componentwise mod N, at odd and even N.
  for (std::size_t n : {7u, 8u}) {
    const Fft3d plan(n);
    auto vol = embed_corner(random_real(plan.volume(), 66 + n), n, n);
    plan.forward(vol);
    const auto at = [&](std::size_t x, std::size_t y, std::size_t z) {
      return vol[((z % n) * n + y % n) * n + x % n];
    };
    for (std::size_t z = 0; z < n; ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          EXPECT_LT(std::abs(at(x, y, z) - std::conj(at(n - x, n - y, n - z))),
                    1e-12)
              << "n=" << n;
  }
}

TEST(Fft, ShiftTheoremPhaseRamp) {
  // Shifting the signal by one along an axis multiplies its spectrum by
  // W^k along that axis, at odd and even N.
  for (std::size_t n : {6u, 11u})
    for (std::size_t axis = 0; axis < 3; ++axis) {
      const Fft3d plan(n);
      const std::size_t st = axis == 0 ? 1 : axis == 1 ? n : n * n;
      auto a = random_signal(plan.volume(), 67 + n);
      std::vector<Complex> shifted(a.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        const std::size_t c = (i / st) % n;
        shifted[i] = a[i - c * st + ((c + n - 1) % n) * st];
      }
      plan.forward(a);
      plan.forward(shifted);
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double ang = -2.0 * std::numbers::pi *
                           static_cast<double>((i / st) % n) /
                           static_cast<double>(n);
        const Complex ramp(std::cos(ang), std::sin(ang));
        EXPECT_LT(std::abs(shifted[i] - a[i] * ramp), 1e-11)
            << "n=" << n << " axis " << axis << " i=" << i;
      }
    }
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
  // The 3-D transform of f(x,y,z) = gx(x) gy(y) gz(z) is the tensor
  // product of the 1-D transforms, at odd and even N.
  for (std::size_t n : {8u, 11u}) {
    auto gx = random_signal(n, 11), gy = random_signal(n, 12),
         gz = random_signal(n, 13);
    Fft3d plan(n);
    std::vector<Complex> vol(plan.volume());
    for (std::size_t z = 0; z < n; ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          vol[(z * n + y) * n + x] = gx[x] * gy[y] * gz[z];
    plan.forward(vol);
    const auto fx = dft(gx, false), fy = dft(gy, false), fz = dft(gz, false);
    double err = 0.0;
    for (std::size_t z = 0; z < n; ++z)
      for (std::size_t y = 0; y < n; ++y)
        for (std::size_t x = 0; x < n; ++x)
          err = std::max(err, std::abs(vol[(z * n + y) * n + x] -
                                       fx[x] * fy[y] * fz[z]));
    EXPECT_LT(err, 1e-10) << "n=" << n;
  }
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
  // one chunk; duplicates must accumulate in entry order. On every SIMD
  // tier the result is bitwise that of one pointwise_mac per entry.
  const std::size_t c = 16, nf = 6, na = 4;
  const auto g = random_signal(c, 220);
  const auto f = random_signal(c * nf, 221);
  const auto acc0 = random_signal(c * na, 222);
  const std::vector<std::int32_t> fidx = {0, 5, 2, 5};
  const std::vector<std::int32_t> aidx = {3, 0, 3, 1};
  for (const simd::Tier t : simd::available_tiers()) {
    simd::force_tier(t);
    auto ref = acc0;
    for (std::size_t e = 0; e < fidx.size(); ++e)
      pointwise_mac(g, std::span(f).subspan(std::size_t(fidx[e]) * c, c),
                    std::span(ref).subspan(std::size_t(aidx[e]) * c, c));
    auto acc = acc0;
    pointwise_mac_chunked(g.data(), c, f.data(), acc.data(), fidx, aidx);
    for (std::size_t i = 0; i < acc.size(); ++i)
      EXPECT_EQ(acc[i], ref[i]) << simd::tier_name(t) << " i=" << i;
  }
  simd::clear_forced_tier();
}

TEST(Fft3d, ConstructsAtEverySizeButZero) {
  EXPECT_THROW(Fft3d plan(0), CheckFailure);
  for (std::size_t n = 1; n <= 40; ++n) EXPECT_NO_THROW(Fft3d plan(n)) << n;
}

TEST(Fft3d, MixedRadixMatchesReferenceDft) {
  // Sizes with factors 2 and 3, with their own seeds: the sizes of the
  // former radix-2/3 plan, kept as a fixed regression point.
  for (std::size_t n : {3u, 6u, 9u, 12u}) {
    const Fft3d plan(n);
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
  // r2c of an s^3 corner is the kx < N/2 + 1 half of the reference
  // complex DFT of the zero-padded volume.
  for (std::size_t n = 1; n <= kMaxN; ++n)
    for (std::size_t s : {std::size_t{1}, (n + 1) / 2, n}) {
      const Fft3d plan(n);
      const auto cube = random_real(s * s * s, 40 + n + s);
      const auto ref = half_of(dft3(embed_corner(cube, s, n), n, false), n);
      EXPECT_LT(max_err(r2c(plan, cube, s), ref), 1e-11)
          << "n=" << n << " s=" << s;
    }
}

TEST(Fft3dReal, InverseMatchesComplexTransform) {
  // c2r of a Hermitian half spectrum is the reference complex inverse
  // of its full spectrum, restricted to the corner.
  for (std::size_t n = 1; n <= kMaxN; ++n)
    for (std::size_t s : {std::size_t{1}, (n + 1) / 2, n}) {
      const Fft3d plan(n);
      const auto full =
          dft3(embed_corner(random_real(n * n * n, 50 + n), n, n), n, false);
      const auto ref = dft3(full, n, true);
      const auto half = half_of(full, n);
      std::vector<double> cube(s * s * s);
      c2r(plan, half, s, cube);
      double err = 0.0;
      for (std::size_t z = 0; z < s; ++z)
        for (std::size_t y = 0; y < s; ++y)
          for (std::size_t x = 0; x < s; ++x)
            err = std::max(err, std::abs(cube[(z * s + y) * s + x] -
                                         ref[(z * n + y) * n + x].real()));
      EXPECT_LT(err, 1e-13) << "n=" << n << " s=" << s;
    }
}

TEST(Fft3dReal, RoundTripIsIdentity) {
  for (std::size_t n : {6u, 7u, 8u, 9u, 11u, 12u, 15u, 16u}) {
    Fft3d plan(n);
    const std::size_t s = (n + 1) / 2;
    const auto cube = random_real(s * s * s, 60 + n);
    std::vector<double> back(cube.size());
    c2r(plan, r2c(plan, cube, s), s, back);
    double err = 0.0;
    for (std::size_t i = 0; i < cube.size(); ++i)
      err = std::max(err, std::abs(back[i] - cube[i]));
    EXPECT_LT(err, 1e-13) << "n=" << n;
  }
}

TEST(Fft3dReal, CircularConvolutionViaHalfSpectrumProduct) {
  // The V-list's use: f on an s^3 corner, g on the whole grid; the
  // half-spectrum product's c2r is their circular convolution.
  for (std::size_t n : {5u, 6u, 9u}) {
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

    const auto fh = r2c(plan, f, s), gh = r2c(plan, g, n);
    std::vector<Complex> prod(plan.half_volume(), Complex(0, 0));
    pointwise_mac(gh, fh, prod);
    std::vector<double> conv(s * s * s);
    c2r(plan, prod, s, conv);
    double err = 0.0;
    for (std::size_t i = 0; i < conv.size(); ++i)
      err = std::max(err, std::abs(conv[i] - direct[i]));
    EXPECT_LT(err, 1e-12) << "n=" << n;
  }
}

TEST(Fft3dReal, FlopModel) {
  // Tensor-product stages counted on the N/2 + 1 valid kx values. The
  // V-list shape (N, s) = (11, 6): x 36 lines x 6 x 6 x 4, y 36 lines
  // x 6 x 11 x 8, z 66 lines x 6 x 11 x 8.
  const Fft3d plan(11);
  EXPECT_EQ(plan.half_volume(), 11u * 11 * 6);
  EXPECT_EQ(plan.real_transform_flops(6), 5184u + 19008 + 34848);
  EXPECT_EQ(Fft3d(7).real_transform_flops(4),
            4u * 64 * 4 + 8u * 16 * 7 * 4 + 8u * 4 * 49 * 4);
  EXPECT_EQ(plan.transform_flops(), 24u * 11 * 11 * 11 * 11);
}

TEST(Fft3d, TransformFlopsPositiveAndScales) {
  Fft3d a(8), b(16);
  EXPECT_GT(a.transform_flops(), 0u);
  EXPECT_GT(b.transform_flops(), a.transform_flops());
}

TEST(Fft3d, TransformsDoNotAllocate) {
  // Every transform runs on per-thread scratch that grows once: after
  // one warm-up call of each, repeated calls allocate nothing.
  const Fft3d plan(11);
  const std::size_t s = 6, hv = plan.half_volume();
  auto vol = random_signal(plan.volume(), 90);
  const auto cube = random_real(s * s * s, 91);
  std::vector<double> re(hv), im(hv), out(cube.size());
  const auto all = [&] {
    plan.forward(vol);
    plan.inverse(vol);
    plan.forward_r2c(cube, s, re.data(), im.data());
    plan.inverse_c2r(re.data(), im.data(), s, out);
  };
  all();
  const long before = g_news.load();
  for (int i = 0; i < 5; ++i) all();
  EXPECT_EQ(g_news.load(), before);
}

}  // namespace
}  // namespace pkifmm::fft
