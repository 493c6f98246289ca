#pragma once
/// \file fft.hpp
/// \brief Tensor-product 3-D DFTs, real-to-complex and complex-to-real,
/// and the frequency-space MACs of the V-list.
///
/// The paper's V-list translation is diagonalized by FFT: equivalent
/// densities live on the surface points of a regular n^3 lattice, so
/// the check-potential evaluation is a lattice convolution. A circular
/// convolution on an N^3 grid is exact for any N >= 2n-1, and
/// core::Tables takes N = 2n-1 (11 at the default n = 6). Densities and
/// kernels are real, so the V-list carries only the Hermitian half
/// spectrum (N * N * (N/2+1) values, real and imaginary parts in
/// separate arrays) through Fft3d::forward_r2c / inverse_c2r.
///
/// At these sizes (N <= 15 for n <= 8) a transform is fastest as three
/// small dense complex matrix products, one per axis, run as straight
/// vector arithmetic with no data shuffling: the x stage broadcasts the
/// data against a row of twiddles in lanes, the y and z stages
/// broadcast a twiddle against rows of data in lanes. The lanes hold
/// the half-spectrum index kx, so every order n <= 8 fits one AVX-512
/// vector. The stages are simd::Ops::dft_x and dft_yz, bitwise equal in
/// every SIMD tier. Any N >= 1 works.

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pkifmm::fft {

using Complex = std::complex<double>;

/// Plan for N x N x N transforms, any N >= 1 (the constructor throws
/// CheckFailure for N = 0): the N x N DFT matrices of both signs, the
/// normalized inverse, and the Hermitian-weighted inverse of the c2r x
/// stage. A complex volume is stored as v[(z*N + y)*N + x]; a half
/// spectrum as h[(kz*N + ky)*hn + kx], kx in [0, hn), hn = N/2 + 1.
///
/// Thread-safety contract: after construction a plan is immutable. The
/// transforms read the plan, write the caller's buffers and use
/// per-thread scratch that grows once and is never freed, so no
/// transform allocates after its thread's first call at that size.
/// core::Evaluator relies on this to run transforms on util::TaskPool
/// lanes concurrently against ONE shared plan.
class Fft3d {
 public:
  explicit Fft3d(std::size_t n);

  std::size_t n() const { return n_; }
  std::size_t volume() const { return n_ * n_ * n_; }
  /// kx extent of a Hermitian half spectrum: N/2 + 1.
  std::size_t half_n() const { return n_ / 2 + 1; }
  /// Values of a Hermitian half spectrum: N * N * (N/2 + 1).
  std::size_t half_volume() const { return n_ * n_ * half_n(); }

  /// Complex 3-D transforms in place on volume() values.
  void forward(std::span<Complex> vol) const;
  /// Inverse including the 1/N^3 normalization.
  void inverse(std::span<Complex> vol) const;

  /// Real-to-complex forward transform of the N^3 volume that is zero
  /// outside the corner cube [0, s)^3. `cube` holds that corner as s^3
  /// reals, cube[(z*s + y)*s + x]. The first half_volume() values of
  /// the spectrum (the rest follow from Hermitian symmetry) are written
  /// split: real parts re[q], imaginary parts im[q].
  void forward_r2c(std::span<const double> cube, std::size_t s, double* re,
                   double* im) const;

  /// Complex-to-real inverse (1/N^3 included) of the Hermitian
  /// extension of the split half spectrum re[q] + i im[q],
  /// q < half_volume(), returning only the [0, s)^3 corner in `cube`
  /// (s^3 reals, layout as in forward_r2c). The imaginary parts at
  /// kx = 0 and, for even N, kx = N/2 are ignored, as any real signal's
  /// are zero.
  void inverse_c2r(const double* re, const double* im, std::size_t s,
                   std::span<double> cube) const;

  /// Flops of one complex 3-D transform: three stages of N^2 lines,
  /// each N outputs of N complex multiply-adds (8 flops): 24 N^4.
  std::uint64_t transform_flops() const;

  /// Flops of one forward_r2c or inverse_c2r with corner extent s,
  /// counted on the hn = N/2 + 1 valid kx values: the x stage's s^2
  /// lines of s x hn real-by-complex terms (4 flops), the y stage's
  /// s hn lines of s x N complex terms (8 flops) and the z stage's
  /// N hn lines of s x N: 4 s^3 hn + 8 s^2 N hn + 8 s N^2 hn.
  std::uint64_t real_transform_flops(std::size_t s) const;

 private:
  /// The stage twiddles: four split N x N matrices, entry (a, b) at
  /// a N + b. kFwd = W^(ab) with W = e^(-2 pi i/N); kBwd = W^(-ab);
  /// kBwdNorm = W^(-ab) / N^3, the complex inverse's x stage; kHerm
  /// (rows a < hn) = w_a W^(-ab) / N^3, the c2r x stage, with Hermitian
  /// weight w_a = 1 at kx = 0 and, for even N, at kx = N/2, else 2.
  enum Table { kFwd, kBwd, kBwdNorm, kHerm };
  const double* tw_re(Table t) const { return tw_.data() + 2 * t * n_ * n_; }
  const double* tw_im(Table t) const { return tw_re(t) + n_ * n_; }

  /// The complex transform in place: forward with (kFwd, kFwd),
  /// inverse with (kBwdNorm, kBwd).
  void complex_transform(std::span<Complex> vol, Table x, Table yz) const;

  std::size_t n_;
  std::vector<double> tw_;
};

/// Pointwise multiply-accumulate in frequency space:
/// acc[i] += g[i] * f[i]. This is the "diagonal translation" the paper
/// runs on the GPU.
void pointwise_mac(std::span<const Complex> g, std::span<const Complex> f,
                   std::span<Complex> acc);

/// One frequency chunk of a chunk-major frequency MAC: entry e does
/// acc_base[aidx[e]*c + i] += g[i] * f_base[fidx[e]*c + i] for
/// i in [0, c), entries in order, with spectra and accumulators stored
/// chunk-major (all slots' values for one c-frequency chunk
/// contiguous). The whole entry list is one simd::Ops::cmac_entries
/// call, bitwise equal to a pointwise_mac per entry. fidx and aidx must
/// have equal length. The evaluator's V-list no longer calls this (it
/// runs simd::Ops::vli_mac_block); it stays for the wall-clock
/// benchmark's fft.mac_gflops micro-call.
void pointwise_mac_chunked(const Complex* g, std::size_t c,
                           const Complex* f_base, Complex* acc_base,
                           std::span<const std::int32_t> fidx,
                           std::span<const std::int32_t> aidx);

}  // namespace pkifmm::fft
