#pragma once
/// \file fft.hpp
/// \brief Mixed-radix (2, 3) FFTs, real-to-complex 3-D transforms and
/// the frequency-space MACs of the V-list.
///
/// The paper's V-list translation is diagonalized by FFT: equivalent
/// densities live on the surface points of a regular n^3 lattice, so
/// the check-potential evaluation is a lattice convolution. A circular
/// convolution on an N^3 grid is exact for any N >= 2n-1; pkifmm pads
/// to the smallest {2,3}-smooth such N (smooth_size) — 12 at the
/// default n = 6 — and transforms with a mixed-radix (2, 3)
/// Cooley-Tukey FFT. Densities and kernels are real, so the V-list
/// carries only the Hermitian half spectrum (N * N * (N/2+1) values)
/// through Fft3d::forward_r2c / inverse_c2r. FFTW is deliberately not a
/// dependency (unavailable substrate, see DESIGN.md).

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pkifmm::fft {

using Complex = std::complex<double>;

/// In-place power-of-two complex FFT (the 1-D radix-2 reference).
/// inverse=true applies the inverse transform including the 1/n
/// normalization.
void fft_inplace(std::span<Complex> a, bool inverse);

/// Plan for n x n x n transforms, n = 2^a 3^b (the constructor throws
/// CheckFailure for a size with a prime factor above 3). Precomputes
/// the digit-reversal permutation and per-stage twiddles. A complex
/// volume is stored as v[(z*n + y)*n + x]; a half spectrum as
/// h[(kz*n + ky)*(n/2+1) + kx], kx in [0, n/2].
///
/// Every pass transforms many lines at once: the lines are gathered
/// as the columns of a small split re/im matrix (rows in digit-reversed
/// order) so each butterfly is a contiguous, vectorizable loop over
/// columns.
///
/// Thread-safety contract: after construction a plan is immutable —
/// the transforms only read the plan tables and write the caller's
/// buffers plus call-local scratch. core::Evaluator relies on this to
/// run FFT slots on util::TaskPool lanes concurrently against ONE
/// shared plan.
class Fft3d {
 public:
  explicit Fft3d(std::size_t n);

  std::size_t n() const { return n_; }
  std::size_t volume() const { return n_ * n_ * n_; }
  /// Values of a Hermitian half spectrum: n * n * (n/2 + 1).
  std::size_t half_volume() const { return n_ * n_ * (n_ / 2 + 1); }

  /// Complex 3-D transforms in place on volume() values.
  void forward(std::span<Complex> vol) const;
  /// Inverse including the 1/n^3 normalization.
  void inverse(std::span<Complex> vol) const;

  /// Real-to-complex forward transform of the n^3 volume that is zero
  /// outside the corner cube [0, s)^3. `cube` holds that corner as s^3
  /// reals, cube[(z*s + y)*s + x]; `half` receives the first
  /// half_volume() values of the spectrum (the rest follow from
  /// Hermitian symmetry). Lines that are all zero are skipped.
  void forward_r2c(std::span<const double> cube, std::size_t s,
                   std::span<Complex> half) const;

  /// Complex-to-real inverse (1/n^3 included) of the Hermitian
  /// extension of `half` (half_volume() values, overwritten as
  /// scratch), returning only the [0, s)^3 corner in `cube` (s^3 reals,
  /// layout as in forward_r2c). The imaginary parts at kx = 0 and, for
  /// even n, kx = n/2 are ignored, as any real signal's are zero. Lines
  /// no corner value depends on are skipped.
  void inverse_c2r(std::span<Complex> half, std::size_t s,
                   std::span<double> cube) const;

  /// Model flops of one 1-D complex line: per butterfly stage, 5 n
  /// for radix 2 (one complex multiply + two adds per pair) and 28 n/3
  /// for radix 3 (two complex multiplies + 16 flops per triple). For a
  /// power of two this is the standard 5 n log2 n.
  std::uint64_t line_flops() const { return line_flops_; }

  /// Flops of one complex 3-D transform: 3 n^2 lines.
  std::uint64_t transform_flops() const;

  /// Flops of one forward_r2c or inverse_c2r with corner extent s:
  /// ceil(s^2/2) x-lines (two real lines ride one complex line), s
  /// (n/2+1) y-lines and n (n/2+1) z-lines.
  std::uint64_t real_transform_flops(std::size_t s) const;

 private:
  /// Butterfly stages over `nc` columns of an n-row split matrix whose
  /// rows are already in digit-reversed order; leaves natural order.
  void stages(double* re, double* im, std::size_t nc, bool inverse) const;

  /// One pass along an axis: the lines are the columns of an n-row
  /// array whose element (t, b, k) sits at data[t*row_stride +
  /// b*blk_stride + k] (nblk blocks of ncb contiguous columns). Rows
  /// >= in_rows are taken as zero without being read; only rows <
  /// out_rows are written back, multiplied by `scale`.
  void pass(Complex* data, std::size_t row_stride, std::size_t nblk,
            std::size_t blk_stride, std::size_t ncb, std::size_t in_rows,
            std::size_t out_rows, bool inverse, double scale) const;

  std::size_t n_;
  std::vector<int> radix_;          ///< stage radices, first stage first
  std::vector<std::size_t> perm_;   ///< digit-reversed input row of each row
  std::vector<double> tw_;          ///< per-stage twiddles (forward sign)
  std::uint64_t line_flops_ = 0;
};

/// Smallest {2,3}-smooth size (2^a 3^b) >= x, the FFT grid edge for a
/// lattice convolution needing x points per side. Throws CheckFailure
/// if x exceeds the largest size_t power of two (no silent
/// wraparound).
std::size_t smooth_size(std::size_t x);

/// Pointwise multiply-accumulate in frequency space:
/// acc[i] += g[i] * f[i]. This is the "diagonal translation" the paper
/// runs on the GPU.
void pointwise_mac(std::span<const Complex> g, std::span<const Complex> f,
                   std::span<Complex> acc);

/// One frequency chunk of the chunk-major V-list sweep: entry e does
/// acc_base[aidx[e]*c + i] += g[i] * f_base[fidx[e]*c + i] for
/// i in [0, c). Callers store spectra and accumulators chunk-major
/// (all slots' values for one c-frequency chunk contiguous), so a
/// sweep with the chunk loop OUTSIDE the entry loop touches only
/// c complex values per referenced slot — the whole level's diagonal
/// translation runs out of L2 instead of re-streaming full spectra
/// per pair (see core::Evaluator::vli_mac_chunks). fidx and aidx
/// must have equal length.
void pointwise_mac_chunked(const Complex* g, std::size_t c,
                           const Complex* f_base, Complex* acc_base,
                           std::span<const std::int32_t> fidx,
                           std::span<const std::int32_t> aidx);

}  // namespace pkifmm::fft
