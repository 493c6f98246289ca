#pragma once
/// \file tables.hpp
/// \brief Precomputed KIFMM translation operators (paper Table I's
/// S/U/D/E/Q/R/T operators in matrix or FFT-spectrum form).
///
/// The FFT V-list works on the N^3 grid with N = 2n-1, the smallest on
/// which the circular convolution is exact (11 at n = 6, 7 at n = 4),
/// and keeps only Hermitian half spectra: N * N * (N/2+1) = (2n-1)^2 n
/// frequencies, padded to a multiple of kFreqChunk (spectrum_len()). The
/// V-list flop model (vli_flops()) is defined here once for the
/// evaluators and the load-balance weights.
/// The CPU engine reads the operator spectra in the sibling-blocked
/// MAC's layout (vli_operator_blocks(), vli_pair_slots()).
///
/// uc2ue and dc2de are the truncated pseudo-inverses (la::pinv, relative
/// cutoff 1e-12) of K(uc, ue) and K(dc, de). The surfaces mirror each
/// other (core/surface.hpp: upward_equiv = down_check, upward_check =
/// down_equiv), and every kernel here has K(x, y) = K(y, x)^T, so
/// K(dc, de) equals K(uc, ue)^T entry for entry, bit for bit, and dc2de
/// is uc2ue^T: pinv(A^T) = pinv(A)^T with the same singular values, so
/// the same truncation, and only one SVD runs. Each level's build
/// checks that property on the assembled matrices. The evaluator's
/// la::gemm_rows reads every operator transposed: uc2ue and dc2de serve
/// as each other's transpose, and M2M, L2L and the dense M2L matrices
/// keep a transposed copy next to them (LevelOps::*_t, m2l_dense_t).
///
/// For homogeneous kernels (Laplace, Stokes: degree -1) one reference
/// table serves all octree levels through a power-of-two scaling; for
/// non-homogeneous kernels (Yukawa) tables are built lazily per level.
/// A Tables instance is immutable after construction except for the
/// guarded lazy caches, so one instance is shared read-only by all
/// simulated ranks (on a real cluster each process would build its own
/// identical copy — precomputation is embarrassingly replicated).
///
/// Scale conventions (deg = kernel homogeneity degree, -1 for
/// Laplace/Stokes; level-l octant distances are 2^-l of the reference):
///   K_l               = 2^(-l deg) K_ref
///   pinv (uc2ue etc.) = 2^(+l deg) pinv_ref
///   M2M (pinv*K)      = level-independent
///   M2L spectra       = 2^(-l deg) g_ref
///   L2L (child l)     = 2^(-(l-1) deg) K_ref   (reference pair 0->1)

#include <array>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/options.hpp"
#include "fft/fft.hpp"
#include "kernels/kernel.hpp"
#include "la/matrix.hpp"
#include "morton/key.hpp"
#include "simd/simd.hpp"

namespace pkifmm::core {

/// Flattened index of a V-list offset (dx, dy, dz), each in [-3, 3].
int offset_index(int dx, int dy, int dz);

/// Number of offset_index values (7^3); indices run over [0, kNumOffsets).
inline constexpr int kNumOffsets = 7 * 7 * 7;

/// offset_index of a same-level (target, source) octant pair: the
/// target anchor minus the source anchor, in octant sides.
int vlist_offset_index(const morton::Key& target, const morton::Key& source);

/// True iff (dx,dy,dz) is a legal V-list offset: Chebyshev distance 2 or
/// 3 (same-level, parents are colleagues, boxes not adjacent).
bool is_vlist_offset(int dx, int dy, int dz);

/// Number of legal V-list offsets (7^3 - 3^3).
inline constexpr int kNumVlistOffsets = 316;

/// Rank of offset_index `off` among the legal V-list offsets in
/// offset_index order (the offset axis of Tables::vli_operator_blocks),
/// or -1 if off is not a V-list offset.
int vlist_offset_slot(int off);

/// The child pairs of the sibling-blocked V-list MAC. For a target
/// parent P and its colleague P + D, D in {-1, 0, 1}^3 \ {0} with
/// direction dir = 9 (Dx + 1) + 3 (Dy + 1) + (Dz + 1), entry
/// [64 dir + 8 cs + ct] is the vlist_offset_slot of target child ct and
/// source child cs: the offset -2 D + (bits(ct) - bits(cs)) per axis
/// (Morton child bits, x = bit 0). It is -1 where the two children are
/// adjacent, and on the whole row dir = 13 (D = 0).
const std::array<std::int32_t, 27 * 64>& vli_pair_slots();

/// 64-byte-aligned doubles whose values start uninitialized: the
/// V-list's operator blocks, source spectra and accumulators are each
/// written in full before they are read. resize() only grows, and
/// discards the values when it does.
class AlignedBuffer {
 public:
  static constexpr std::size_t kAlign = 64;

  void resize(std::size_t n);
  double* data() { return aligned(raw_.get()); }
  const double* data() const { return aligned(raw_.get()); }
  std::size_t capacity() const { return raw_ ? cap_ : 0; }  ///< in doubles

 private:
  static double* aligned(char* p) {
    if (p == nullptr) return nullptr;
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<double*>(p + (kAlign - at % kAlign) % kAlign);
  }
  struct Free {
    void operator()(char* p) const { std::free(p); }
  };
  std::unique_ptr<char[], Free> raw_;
  std::size_t cap_ = 0;
};

/// Level-resolved view of the translation operators, with the scale
/// factors already worked out for the requested level. The *_t members
/// are the operators' transposes, bit for bit, which la::gemm_rows
/// reads: uc2ue and dc2de serve as each other's (dc2de = uc2ue^T), and
/// M2M and L2L keep a transposed copy built with them.
struct LevelOps {
  const la::Matrix* uc2ue;                 ///< pinv of K(uc, ue)
  const la::Matrix* uc2ue_t;               ///< = dc2de
  double uc2ue_scale;
  const la::Matrix* dc2de;                 ///< pinv of K(dc, de)
  const la::Matrix* dc2de_t;               ///< = uc2ue
  double dc2de_scale;
  const std::array<la::Matrix, 8>* m2m;    ///< child-eq -> parent-eq
  const std::array<la::Matrix, 8>* m2m_t;
  const std::array<la::Matrix, 8>* l2l;    ///< parent-eq -> child check pot
  const std::array<la::Matrix, 8>* l2l_t;
  double l2l_scale;
  double m2l_scale;                        ///< applied to V-list output
};

class Tables {
 public:
  Tables(const kernels::Kernel& kernel, const FmmOptions& opts);

  /// Copy sharing the (expensive) precomputed operator cache but with
  /// different non-geometric options (q, m2l mode, reduce mode, load
  /// balancing). surface_n, the one geometry-affecting field, must
  /// match the original.
  Tables with_options(const FmmOptions& opts) const;

  const kernels::Kernel& kernel() const { return kernel_; }
  const FmmOptions& options() const { return opts_; }

  int n() const { return opts_.surface_n; }
  int m() const { return m_; }                  ///< surface points
  int sdim() const { return sdim_; }
  int tdim() const { return tdim_; }
  /// Length of an equivalent-density vector (m * sdim).
  int eq_len() const { return m_ * sdim_; }
  /// Length of a check-potential vector (m * tdim).
  int check_len() const { return m_ * tdim_; }

  /// spectrum_len() is a multiple of this: two simd::kVliBlock blocks.
  static constexpr std::size_t kFreqChunk = 16;

  /// FFT grid edge N = 2n-1, the N^3 complex volume, and the plan.
  std::size_t fft_n() const { return fft_->n(); }
  std::size_t fft_volume() const { return fft_->volume(); }
  const fft::Fft3d& fft() const { return *fft_; }

  /// Stored length of one half spectrum: fft().half_volume() =
  /// (2n-1)^2 n rounded up to a multiple of kFreqChunk (the tail is
  /// zero): 208 at n = 4, 736 at n = 6.
  std::size_t spectrum_len() const { return spectrum_len_; }

  /// Index of each surface lattice point (i, j, k) in the n^3 corner
  /// cube that Fft3d::forward_r2c reads and inverse_c2r writes:
  /// (k*n + j)*n + i.
  const std::vector<int>& embed_index() const { return embed_; }

  /// The FFT V-list flop model, shared by every evaluator and by
  /// leaf_work_estimates: a diagonal MAC of 8 flops per stored
  /// frequency per td x sd component for each (target, source) pair,
  /// sdim r2c transforms per source box, tdim c2r transforms per
  /// target box (Fft3d::real_transform_flops at corner extent n, the
  /// tensor-product arithmetic on the n valid kx lanes).
  struct VliFlops {
    std::uint64_t mac_per_pair;
    std::uint64_t fwd_per_source;
    std::uint64_t inv_per_target;
  };
  const VliFlops& vli_flops() const { return vli_flops_; }

  /// Level-scaled operator set. Thread-safe.
  LevelOps at(int level) const;

  /// FFT M2L: the td*sd half spectra for a given offset index,
  /// concatenated component-major (component c = ti*sdim+si occupies
  /// [c*spectrum_len(), (c+1)*spectrum_len())). Unscaled reference
  /// values; multiply the *output* by LevelOps::m2l_scale. Thread-safe
  /// (lazy).
  std::span<const fft::Complex> m2l_spectra(int level, int off_index) const;

  /// The m2l_spectra of all kNumVlistOffsets offsets in the layout of
  /// simd::Ops::vli_mac_block, one allocation per kVliBlock-frequency
  /// block b: offset slot o (vlist_offset_slot), component c at
  /// blocks[b].data() + (o td sd + c) 16, the 8 real parts of
  /// frequencies [8 b, 8 b + 8) then their 8 imaginary parts. Unscaled
  /// like m2l_spectra. Built on first use under the cache mutex, and
  /// without filling the m2l_spectra cache. Thread-safe (lazy).
  const std::vector<AlignedBuffer>& vli_operator_blocks(int level) const;

  /// Dense M2L matrix for an offset (ablation path), and its transpose,
  /// which la::gemm_rows reads; both are built on first use of either.
  /// Thread-safe (lazy).
  const la::Matrix& m2l_dense(int level, int off_index) const;
  const la::Matrix& m2l_dense_t(int level, int off_index) const;

 private:
  struct LevelTables {
    la::Matrix uc2ue;
    la::Matrix dc2de;
    std::array<la::Matrix, 8> m2m, m2m_t;
    std::array<la::Matrix, 8> l2l, l2l_t;
  };

  struct DenseM2l {
    la::Matrix m, t;
  };

  /// Shared, mutex-guarded precompute cache so option-rebound copies
  /// (with_options) and all simulated ranks reuse one set of operators.
  struct Cache {
    std::mutex mu;
    std::map<int, std::unique_ptr<LevelTables>> levels;
    std::map<std::pair<int, int>, std::vector<fft::Complex>> spectra;
    std::map<int, std::vector<AlignedBuffer>> vli_blocks;
    std::map<std::pair<int, int>, std::unique_ptr<DenseM2l>> dense;
  };

  std::unique_ptr<LevelTables> build_level(int level) const;
  std::vector<fft::Complex> build_spectra(int level, int off_index) const;
  std::vector<AlignedBuffer> build_vli_blocks(int level) const;
  la::Matrix build_dense(int level, int off_index) const;
  const DenseM2l& dense_m2l(int level, int off_index) const;

  /// Reference level used for table geometry. Homogeneous kernels use
  /// level 0 for everything; non-homogeneous kernels build per level.
  const LevelTables& level_tables(int level) const;

  const kernels::Kernel& kernel_;
  FmmOptions opts_;
  int m_, sdim_, tdim_;
  std::shared_ptr<fft::Fft3d> fft_;
  std::size_t spectrum_len_ = 0;
  VliFlops vli_flops_{};
  std::vector<int> embed_;
  std::shared_ptr<Cache> cache_;
};

}  // namespace pkifmm::core
