#include "kernels/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "simd/simd.hpp"
#include "util/check.hpp"

namespace pkifmm::kernels {

namespace {
constexpr double kOneOver4Pi = 1.0 / (4.0 * std::numbers::pi);
constexpr double kOneOver8Pi = 1.0 / (8.0 * std::numbers::pi);

/// Targets are tiled (kDirectTile at a time) with the source loop
/// outside the tile, so the per-source setup (position + density loads)
/// amortizes over the tile and the inner target loop vectorizes. For a
/// fixed target the sources are still visited in order 0..ns-1, so the
/// accumulation into f[t] is bitwise identical to the naive loop.
/// Used by the Yukawa kernels, whose exp() has no vector
/// implementation. The 1/r kernels (Laplace, Laplace-grad, Stokes,
/// regularized Stokes) route through the runtime-dispatched
/// simd::ops() tiers instead; how each tier computes 1/r is in
/// simd/pack.hpp (rsqrt).
constexpr std::size_t kDirectTile = 32;

template <int TD, int SD, class K>
std::uint64_t direct_impl(const K& kern, std::span<const double> targets,
                          std::span<const double> sources,
                          std::span<const double> density,
                          std::span<double> potential) {
  PKIFMM_CHECK(targets.size() % 3 == 0 && sources.size() % 3 == 0);
  const std::size_t nt = targets.size() / 3;
  const std::size_t ns = sources.size() / 3;
  PKIFMM_CHECK(density.size() == ns * static_cast<std::size_t>(SD));
  PKIFMM_CHECK(potential.size() == nt * static_cast<std::size_t>(TD));

  double blk[TD * SD];
  for (std::size_t t0 = 0; t0 < nt; t0 += kDirectTile) {
    const std::size_t t1 = std::min(nt, t0 + kDirectTile);
    for (std::size_t s = 0; s < ns; ++s) {
      const double* ys = &sources[3 * s];
      const double* q = &density[s * SD];
      for (std::size_t t = t0; t < t1; ++t) {
        const double* xt = &targets[3 * t];
        const double d[3] = {xt[0] - ys[0], xt[1] - ys[1], xt[2] - ys[2]};
        kern.block(d, blk);
        double* f = &potential[t * TD];
        for (int i = 0; i < TD; ++i)
          for (int j = 0; j < SD; ++j) f[i] += blk[i * SD + j] * q[j];
      }
    }
  }
  return nt * ns * kern.flops_per_interaction();
}

}  // namespace

std::uint64_t Kernel::direct_mutual(std::span<const double> a_pos,
                                    std::span<const double> a_den,
                                    std::span<double> a_pot,
                                    std::span<const double> b_pos,
                                    std::span<const double> b_den,
                                    std::span<double> b_pot) const {
  return direct(a_pos, b_pos, b_den, a_pot) +
         direct(b_pos, a_pos, a_den, b_pot);
}

la::Matrix Kernel::assemble(std::span<const double> targets,
                            std::span<const double> sources) const {
  PKIFMM_CHECK(targets.size() % 3 == 0 && sources.size() % 3 == 0);
  const std::size_t nt = targets.size() / 3;
  const std::size_t ns = sources.size() / 3;
  const int sd = source_dim();
  const int td = target_dim();

  la::Matrix m(nt * td, ns * sd);
  double blk[9];
  for (std::size_t t = 0; t < nt; ++t) {
    for (std::size_t s = 0; s < ns; ++s) {
      const double d[3] = {targets[3 * t] - sources[3 * s],
                           targets[3 * t + 1] - sources[3 * s + 1],
                           targets[3 * t + 2] - sources[3 * s + 2]};
      block(d, blk);
      for (int i = 0; i < td; ++i)
        for (int j = 0; j < sd; ++j)
          m(t * td + i, s * sd + j) = blk[i * sd + j];
    }
  }
  return m;
}

void LaplaceKernel::block(const double d[3], double* out) const {
  const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
  // Coincident-point guard: every singular kernel in this file tests
  // r2 == 0.0, so a NaN coordinate propagates (r2 = NaN fails both
  // `== 0.0` and the old `> 0.0` ordering, but `> 0.0` silently mapped
  // NaN to 0 while the others let it through). -0.0 components still
  // hit the guard since (-0.0)^2 == +0.0. The SIMD tiers reproduce
  // this exact predicate with a lane mask.
  if (r2 == 0.0) {
    out[0] = 0.0;
    return;
  }
  out[0] = kOneOver4Pi / std::sqrt(r2);
}

std::unique_ptr<Kernel> LaplaceKernel::gradient() const {
  return std::make_unique<LaplaceGradKernel>();
}

void LaplaceGradKernel::block(const double d[3], double* out) const {
  const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
  if (r2 == 0.0) {
    out[0] = out[1] = out[2] = 0.0;
    return;
  }
  const double inv_r = 1.0 / std::sqrt(r2);
  const double c = -kOneOver4Pi * inv_r * inv_r * inv_r;
  out[0] = c * d[0];
  out[1] = c * d[1];
  out[2] = c * d[2];
}

std::unique_ptr<Kernel> YukawaKernel::gradient() const {
  return std::make_unique<YukawaGradKernel>(lambda_);
}

void YukawaGradKernel::block(const double d[3], double* out) const {
  const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
  if (r2 == 0.0) {
    out[0] = out[1] = out[2] = 0.0;
    return;
  }
  const double r = std::sqrt(r2);
  const double c = -kOneOver4Pi * (1.0 + lambda_ * r) *
                   std::exp(-lambda_ * r) / (r2 * r);
  out[0] = c * d[0];
  out[1] = c * d[1];
  out[2] = c * d[2];
}

void StokesKernel::block(const double d[3], double* out) const {
  const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
  if (r2 == 0.0) {
    for (int i = 0; i < 9; ++i) out[i] = 0.0;
    return;
  }
  const double inv_r = 1.0 / std::sqrt(r2);
  const double inv_r3 = inv_r * inv_r * inv_r;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      out[i * 3 + j] =
          kOneOver8Pi * ((i == j ? inv_r : 0.0) + d[i] * d[j] * inv_r3);
}

void YukawaKernel::block(const double d[3], double* out) const {
  const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
  if (r2 == 0.0) {
    out[0] = 0.0;
    return;
  }
  const double r = std::sqrt(r2);
  out[0] = kOneOver4Pi * std::exp(-lambda_ * r) / r;
}

void RegularizedStokesKernel::block(const double d[3], double* out) const {
  const double r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
  const double re2 = r2 + eps2_;
  const double inv = 1.0 / (re2 * std::sqrt(re2));
  const double diag = kOneOver8Pi * (r2 + 2.0 * eps2_) * inv;
  const double offd = kOneOver8Pi * inv;
  // offd * (d[i] * d[j]), not (offd * d[i]) * d[j]: the product of the
  // two components commutes, so the block is symmetric bit for bit and
  // core::Tables can take dc2de as uc2ue^T.
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      out[i * 3 + j] = (i == j ? diag : 0.0) + offd * (d[i] * d[j]);
}

namespace {

/// Span-shape checks shared by the simd::ops()-routed direct() paths.
std::pair<std::size_t, std::size_t> check_direct_spans(
    std::span<const double> targets, std::span<const double> sources,
    std::span<const double> density, std::span<double> potential, int td,
    int sd) {
  PKIFMM_CHECK(targets.size() % 3 == 0 && sources.size() % 3 == 0);
  const std::size_t nt = targets.size() / 3;
  const std::size_t ns = sources.size() / 3;
  PKIFMM_CHECK(density.size() == ns * static_cast<std::size_t>(sd));
  PKIFMM_CHECK(potential.size() == nt * static_cast<std::size_t>(td));
  return {nt, ns};
}

/// The same checks for both directions of a mutual tile: {na, nb}.
std::pair<std::size_t, std::size_t> check_mutual_spans(
    std::span<const double> a_pos, std::span<const double> a_den,
    std::span<double> a_pot, std::span<const double> b_pos,
    std::span<const double> b_den, std::span<double> b_pot, int dim) {
  check_direct_spans(b_pos, a_pos, a_den, b_pot, dim, dim);
  return check_direct_spans(a_pos, b_pos, b_den, a_pot, dim, dim);
}

}  // namespace

// The 1/r kernels route through the runtime-dispatched SIMD tiers
// (src/simd/): source-tiled loops over target vector lanes, with the
// r2 == 0 guard as a lane mask. The Yukawa kernels keep the scalar
// direct_impl tile at every tier — their exp() has no vector
// implementation, and a libm call per lane would erase the win.
std::uint64_t LaplaceKernel::direct(std::span<const double> targets,
                                    std::span<const double> sources,
                                    std::span<const double> density,
                                    std::span<double> potential) const {
  const auto [nt, ns] =
      check_direct_spans(targets, sources, density, potential, 1, 1);
  simd::ops().laplace(targets.data(), nt, sources.data(), ns, density.data(),
                      potential.data());
  return nt * ns * flops_per_interaction();
}

std::uint64_t LaplaceKernel::direct_mutual(std::span<const double> a_pos,
                                           std::span<const double> a_den,
                                           std::span<double> a_pot,
                                           std::span<const double> b_pos,
                                           std::span<const double> b_den,
                                           std::span<double> b_pot) const {
  const auto [na, nb] =
      check_mutual_spans(a_pos, a_den, a_pot, b_pos, b_den, b_pot, 1);
  simd::ops().laplace_mutual(a_pos.data(), na, a_den.data(), a_pot.data(),
                             b_pos.data(), nb, b_den.data(), b_pot.data());
  return 2 * na * nb * flops_per_interaction();
}

std::uint64_t LaplaceGradKernel::direct(std::span<const double> targets,
                                        std::span<const double> sources,
                                        std::span<const double> density,
                                        std::span<double> potential) const {
  const auto [nt, ns] =
      check_direct_spans(targets, sources, density, potential, 3, 1);
  simd::ops().laplace_grad(targets.data(), nt, sources.data(), ns,
                           density.data(), potential.data());
  return nt * ns * flops_per_interaction();
}

std::uint64_t YukawaGradKernel::direct(std::span<const double> targets,
                                       std::span<const double> sources,
                                       std::span<const double> density,
                                       std::span<double> potential) const {
  return direct_impl<3, 1>(*this, targets, sources, density, potential);
}

std::uint64_t StokesKernel::direct(std::span<const double> targets,
                                   std::span<const double> sources,
                                   std::span<const double> density,
                                   std::span<double> potential) const {
  const auto [nt, ns] =
      check_direct_spans(targets, sources, density, potential, 3, 3);
  simd::ops().stokes(targets.data(), nt, sources.data(), ns, density.data(),
                     potential.data());
  return nt * ns * flops_per_interaction();
}

std::uint64_t StokesKernel::direct_mutual(std::span<const double> a_pos,
                                          std::span<const double> a_den,
                                          std::span<double> a_pot,
                                          std::span<const double> b_pos,
                                          std::span<const double> b_den,
                                          std::span<double> b_pot) const {
  const auto [na, nb] =
      check_mutual_spans(a_pos, a_den, a_pot, b_pos, b_den, b_pot, 3);
  simd::ops().stokes_mutual(a_pos.data(), na, a_den.data(), a_pot.data(),
                            b_pos.data(), nb, b_den.data(), b_pot.data());
  return 2 * na * nb * flops_per_interaction();
}

std::uint64_t RegularizedStokesKernel::direct(
    std::span<const double> targets, std::span<const double> sources,
    std::span<const double> density, std::span<double> potential) const {
  const auto [nt, ns] =
      check_direct_spans(targets, sources, density, potential, 3, 3);
  simd::ops().stokes_reg(targets.data(), nt, sources.data(), ns,
                         density.data(), potential.data(), eps2_);
  return nt * ns * flops_per_interaction();
}

std::uint64_t YukawaKernel::direct(std::span<const double> targets,
                                   std::span<const double> sources,
                                   std::span<const double> density,
                                   std::span<double> potential) const {
  return direct_impl<1, 1>(*this, targets, sources, density, potential);
}

std::unique_ptr<Kernel> make_kernel(const std::string& name) {
  if (name == "laplace") return std::make_unique<LaplaceKernel>();
  if (name == "stokes") return std::make_unique<StokesKernel>();
  if (name == "yukawa") return std::make_unique<YukawaKernel>();
  if (name == "stokes-reg") return std::make_unique<RegularizedStokesKernel>();
  PKIFMM_CHECK_MSG(false, "unknown kernel '" << name << "'");
  return nullptr;
}

}  // namespace pkifmm::kernels
