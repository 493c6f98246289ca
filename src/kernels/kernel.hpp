#pragma once
/// \file kernel.hpp
/// \brief Interaction kernels K(x, y) for the N-body sums of Eq. (1).
///
/// The paper evaluates the Stokes single-layer kernel (3 unknowns per
/// point, used for the Kraken runs) and the Laplace single-layer kernel
/// (scalar, used for the GPU runs). pkifmm additionally ships the
/// modified-Laplace (Yukawa) kernel as a non-homogeneous test case,
/// which exercises the per-level translation-table path.
///
/// A kernel exposes:
///  - the tensor block K(x, y) (target_dim x source_dim),
///  - a tuned direct-summation loop (the ULI inner kernel on the CPU)
///    and its mutual form for pairs of leaves, which Laplace and Stokes
///    evaluate once for both directions,
///  - dense matrix assembly for the KIFMM translation-operator setup,
///  - homogeneity metadata, which lets the FMM reuse one set of
///    translation tables across levels (degree -1 for Laplace/Stokes),
///  - an analytic flop cost per interaction, feeding the paper-style
///    flop accounting (Table II, Fig. 5).

#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "la/matrix.hpp"

namespace pkifmm::kernels {

/// Interface for translation-invariant interaction kernels K(x - y).
///
/// Thread-safety contract: kernel instances are stateless after
/// construction, so every const method — direct() in particular — may
/// run concurrently from util::TaskPool lanes against one shared
/// instance, provided the callers' potential spans are disjoint. The
/// evaluator's parallel ULI/WLI/XLI/D2T tiles depend on this.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Density components per source point (e.g. 3 for Stokes).
  virtual int source_dim() const = 0;
  /// Potential components per target point.
  virtual int target_dim() const = 0;

  /// True if K(lambda d) = lambda^degree K(d); enables sharing
  /// translation tables across octree levels.
  virtual bool homogeneous() const = 0;
  virtual double homogeneity_degree() const = 0;

  /// Writes the target_dim x source_dim interaction block for
  /// displacement d = x - y (row-major). A zero displacement must yield
  /// a zero block (self-interactions do not contribute).
  virtual void block(const double d[3], double* out) const = 0;

  /// Model flop cost of one target/source interaction (all components).
  virtual std::uint64_t flops_per_interaction() const = 0;

  virtual std::string name() const = 0;

  /// The target-gradient companion kernel grad_x K(x - y), or nullptr
  /// if not available. Used for force evaluation: the FMM's equivalent
  /// densities are computed with K, then outputs are evaluated with
  /// grad K (same densities, differentiated evaluation operator).
  virtual std::unique_ptr<Kernel> gradient() const { return nullptr; }

  /// Direct summation: for every target t and source s,
  /// f[t] += K(x_t, y_s) q_s. Points are xyz-interleaved. The potential
  /// span must be pre-sized to targets.size()/3*target_dim and is
  /// accumulated into. Returns the flop count of the evaluation.
  ///
  /// Sources are visited in order 0..ns-1 per target. Results are
  /// bitwise deterministic within one SIMD tier however callers split
  /// the target range, and agree to 1e-12 relative across tiers (see
  /// DESIGN.md, SIMD section).
  virtual std::uint64_t direct(std::span<const double> targets,
                               std::span<const double> sources,
                               std::span<const double> density,
                               std::span<double> potential) const = 0;

  /// Mutual direct summation over two point sets A and B whose points
  /// are each both a target and a source:
  ///   a_pot += K(A, B) b_den  and  b_pot += K(B, A) a_den.
  /// Returns the flops of both directions, 2 na nb
  /// flops_per_interaction(). The potential spans must not overlap.
  ///
  /// The default is direct(A <- B) then direct(B <- A), exact for any
  /// kernel. Laplace and Stokes, both even, K(d) = K(-d), override it
  /// with one SIMD tile that computes each pair's r and 1/r once for
  /// both sides. Its A side runs direct()'s code, so it is bitwise
  /// equal to direct(); the B side sums per-lane partials and then
  /// reduces the lanes in a fixed order, so it is bitwise deterministic
  /// within a tier and agrees with direct() to rounding.
  virtual std::uint64_t direct_mutual(std::span<const double> a_pos,
                                      std::span<const double> a_den,
                                      std::span<double> a_pot,
                                      std::span<const double> b_pos,
                                      std::span<const double> b_den,
                                      std::span<double> b_pot) const;

  /// Assembles the dense interaction matrix K(X, Y) with shape
  /// (ntargets*target_dim) x (nsources*source_dim). Used by the KIFMM
  /// precomputation (S, U, D, E, Q, R, T operators of paper Table I).
  la::Matrix assemble(std::span<const double> targets,
                      std::span<const double> sources) const;
};

/// Laplace single layer: K = 1 / (4 pi |d|). Scalar, homogeneous of
/// degree -1. Used for the GPU experiments in the paper.
class LaplaceKernel final : public Kernel {
 public:
  int source_dim() const override { return 1; }
  int target_dim() const override { return 1; }
  bool homogeneous() const override { return true; }
  double homogeneity_degree() const override { return -1.0; }
  void block(const double d[3], double* out) const override;
  std::uint64_t flops_per_interaction() const override { return 10; }
  std::string name() const override { return "laplace"; }
  std::uint64_t direct(std::span<const double> targets,
                       std::span<const double> sources,
                       std::span<const double> density,
                       std::span<double> potential) const override;
  std::uint64_t direct_mutual(std::span<const double> a_pos,
                              std::span<const double> a_den,
                              std::span<double> a_pot,
                              std::span<const double> b_pos,
                              std::span<const double> b_den,
                              std::span<double> b_pot) const override;
  std::unique_ptr<Kernel> gradient() const override;
};

/// grad_x of the Laplace single layer: G_i = -d_i / (4 pi |d|^3).
/// 3 components per target, 1 density per source; homogeneous of
/// degree -2. Gives forces/accelerations in gravity/electrostatics.
class LaplaceGradKernel final : public Kernel {
 public:
  int source_dim() const override { return 1; }
  int target_dim() const override { return 3; }
  bool homogeneous() const override { return true; }
  double homogeneity_degree() const override { return -2.0; }
  void block(const double d[3], double* out) const override;
  std::uint64_t flops_per_interaction() const override { return 16; }
  std::string name() const override { return "laplace-grad"; }
  std::uint64_t direct(std::span<const double> targets,
                       std::span<const double> sources,
                       std::span<const double> density,
                       std::span<double> potential) const override;
};

/// grad_x of the Yukawa kernel:
/// G_i = -d_i (1 + lambda |d|) exp(-lambda |d|) / (4 pi |d|^3).
class YukawaGradKernel final : public Kernel {
 public:
  explicit YukawaGradKernel(double lambda) : lambda_(lambda) {}
  int source_dim() const override { return 1; }
  int target_dim() const override { return 3; }
  bool homogeneous() const override { return false; }
  double homogeneity_degree() const override { return 0.0; }
  void block(const double d[3], double* out) const override;
  std::uint64_t flops_per_interaction() const override { return 22; }
  std::string name() const override { return "yukawa-grad"; }
  std::uint64_t direct(std::span<const double> targets,
                       std::span<const double> sources,
                       std::span<const double> density,
                       std::span<double> potential) const override;

 private:
  double lambda_;
};

/// Stokes single layer (Oseen tensor, unit viscosity):
/// K_ij = 1/(8 pi) (delta_ij / |d| + d_i d_j / |d|^3).
/// 3x3 block, homogeneous of degree -1. Used for the Kraken runs.
class StokesKernel final : public Kernel {
 public:
  int source_dim() const override { return 3; }
  int target_dim() const override { return 3; }
  bool homogeneous() const override { return true; }
  double homogeneity_degree() const override { return -1.0; }
  void block(const double d[3], double* out) const override;
  std::uint64_t flops_per_interaction() const override { return 40; }
  std::string name() const override { return "stokes"; }
  std::uint64_t direct(std::span<const double> targets,
                       std::span<const double> sources,
                       std::span<const double> density,
                       std::span<double> potential) const override;
  std::uint64_t direct_mutual(std::span<const double> a_pos,
                              std::span<const double> a_den,
                              std::span<double> a_pot,
                              std::span<const double> b_pos,
                              std::span<const double> b_den,
                              std::span<double> b_pot) const override;
};

/// Regularized Stokeslet (Cortez 2001): the mollified Stokes single
/// layer used for suspension/swimmer simulations,
///   K_ij = [delta_ij (r^2 + 2 eps^2) + d_i d_j] / (8 pi (r^2+eps^2)^{3/2}).
/// Smooth at r = 0 (self-interaction is finite and kept) and
/// non-homogeneous because of the regularization length eps — so it
/// exercises the per-level translation tables with a vector kernel.
class RegularizedStokesKernel final : public Kernel {
 public:
  explicit RegularizedStokesKernel(double epsilon = 0.01)
      : eps2_(epsilon * epsilon) {}
  int source_dim() const override { return 3; }
  int target_dim() const override { return 3; }
  bool homogeneous() const override { return false; }
  double homogeneity_degree() const override { return 0.0; }
  void block(const double d[3], double* out) const override;
  std::uint64_t flops_per_interaction() const override { return 44; }
  std::string name() const override { return "stokes-reg"; }
  std::uint64_t direct(std::span<const double> targets,
                       std::span<const double> sources,
                       std::span<const double> density,
                       std::span<double> potential) const override;
  double epsilon() const { return std::sqrt(eps2_); }

 private:
  double eps2_;
};

/// Modified Laplace (Yukawa): K = exp(-lambda |d|) / (4 pi |d|).
/// Non-homogeneous; exercises the per-level translation-table path.
class YukawaKernel final : public Kernel {
 public:
  explicit YukawaKernel(double lambda = 5.0) : lambda_(lambda) {}
  int source_dim() const override { return 1; }
  int target_dim() const override { return 1; }
  bool homogeneous() const override { return false; }
  double homogeneity_degree() const override { return 0.0; }
  void block(const double d[3], double* out) const override;
  std::uint64_t flops_per_interaction() const override { return 14; }
  std::string name() const override { return "yukawa"; }
  std::uint64_t direct(std::span<const double> targets,
                       std::span<const double> sources,
                       std::span<const double> density,
                       std::span<double> potential) const override;
  std::unique_ptr<Kernel> gradient() const override;
  double lambda() const { return lambda_; }

 private:
  double lambda_;
};

/// Factory by name ("laplace" | "stokes" | "yukawa").
std::unique_ptr<Kernel> make_kernel(const std::string& name);

}  // namespace pkifmm::kernels
