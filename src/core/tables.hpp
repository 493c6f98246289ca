#pragma once
/// \file tables.hpp
/// \brief Precomputed KIFMM translation operators (paper Table I's
/// S/U/D/E/Q/R/T operators in matrix or FFT-spectrum form).
///
/// The FFT V-list works on an N^3 grid, N the smallest {2,3}-smooth
/// size >= 2n-1 (12 at n = 6, 8 at n = 4), and keeps only Hermitian
/// half spectra: N * N * (N/2+1) frequencies, padded to a multiple of
/// the kFreqChunk-frequency chunk of the chunk-major MAC sweep
/// (spectrum_len()). The V-list flop model (vli_flops()) is defined
/// here once for the evaluators and the load-balance weights.
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
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/options.hpp"
#include "fft/fft.hpp"
#include "kernels/kernel.hpp"
#include "la/matrix.hpp"

namespace pkifmm::core {

/// Flattened index of a V-list offset (dx, dy, dz), each in [-3, 3].
int offset_index(int dx, int dy, int dz);

/// True iff (dx,dy,dz) is a legal V-list offset: Chebyshev distance 2 or
/// 3 (same-level, parents are colleagues, boxes not adjacent).
bool is_vlist_offset(int dx, int dy, int dz);

/// Level-resolved view of the translation operators, with the scale
/// factors already worked out for the requested level.
struct LevelOps {
  const la::Matrix* uc2ue;                 ///< pinv of K(uc, ue)
  double uc2ue_scale;
  const la::Matrix* dc2de;                 ///< pinv of K(dc, de)
  double dc2de_scale;
  const std::array<la::Matrix, 8>* m2m;    ///< child-eq -> parent-eq
  const std::array<la::Matrix, 8>* l2l;    ///< parent-eq -> child check pot
  double l2l_scale;
  double m2l_scale;                        ///< applied to V-list output
};

class Tables {
 public:
  Tables(const kernels::Kernel& kernel, const FmmOptions& opts);

  /// Copy sharing the (expensive) precomputed operator cache but with
  /// different non-geometric options (q, m2l mode, reduce mode, load
  /// balancing). Geometry-affecting fields (surface_n, radii,
  /// pinv_cutoff) must match the original.
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

  /// Frequencies per chunk of the chunk-major V-list MAC sweep.
  static constexpr std::size_t kFreqChunk = 16;

  /// FFT grid edge N (smallest {2,3}-smooth size >= 2n-1), the N^3
  /// complex volume, and the plan.
  std::size_t fft_n() const { return fft_->n(); }
  std::size_t fft_volume() const { return fft_->volume(); }
  const fft::Fft3d& fft() const { return *fft_; }

  /// Stored length of one half spectrum: fft().half_volume() rounded up
  /// to a multiple of kFreqChunk (the tail is zero).
  std::size_t spectrum_len() const { return spectrum_len_; }

  /// Index of each surface lattice point (i, j, k) in the n^3 corner
  /// cube that Fft3d::forward_r2c reads and inverse_c2r writes:
  /// (k*n + j)*n + i.
  const std::vector<int>& embed_index() const { return embed_; }

  /// The FFT V-list flop model, shared by every evaluator and by
  /// leaf_work_estimates: a diagonal MAC of 8 flops per stored
  /// frequency per td x sd component for each (target, source) pair,
  /// sdim r2c transforms per source box, tdim c2r transforms per
  /// target box (Fft3d::real_transform_flops at corner extent n).
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

  /// Dense M2L matrix for an offset (ablation path). Thread-safe (lazy).
  const la::Matrix& m2l_dense(int level, int off_index) const;

  /// Persists the precomputed operator cache (level tables + M2L
  /// spectra; the dense ablation matrices are cheap and not saved) so a
  /// later run can skip the SVD/FFT precomputation. Returns bytes
  /// written. Thread-safe.
  std::size_t save_cache(const std::string& path) const;

  /// Loads a cache written by save_cache. Returns false — leaving the
  /// in-memory cache untouched — if the file is missing, corrupt, in
  /// an older layout, belongs to a different kernel/geometry, or holds
  /// a spectrum entry that is not exactly td*sd*spectrum_len() values
  /// under a legal V-list offset. Thread-safe.
  bool load_cache(const std::string& path);

 private:
  struct LevelTables {
    la::Matrix uc2ue;
    la::Matrix dc2de;
    std::array<la::Matrix, 8> m2m;
    std::array<la::Matrix, 8> l2l;
  };

  /// Shared, mutex-guarded precompute cache so option-rebound copies
  /// (with_options) and all simulated ranks reuse one set of operators.
  struct Cache {
    std::mutex mu;
    std::map<int, std::unique_ptr<LevelTables>> levels;
    std::map<std::pair<int, int>, std::vector<fft::Complex>> spectra;
    std::map<std::pair<int, int>, std::unique_ptr<la::Matrix>> dense;
  };

  std::unique_ptr<LevelTables> build_level(int level) const;
  std::vector<fft::Complex> build_spectra(int level, int off_index) const;
  la::Matrix build_dense(int level, int off_index) const;

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
