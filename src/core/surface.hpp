#pragma once
/// \file surface.hpp
/// \brief Equivalent/check surface discretization.
///
/// KIFMM represents far-field (u) and local-field (d) information as
/// single-layer densities on cube surfaces around each octant. pkifmm
/// discretizes a surface as the boundary points of an n x n x n lattice
/// scaled to half-width radius_scale * r around the box center. The
/// lattice structure (rather than, say, Gauss points) is what makes the
/// V-list translation a lattice convolution and hence FFT-diagonal.

#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace pkifmm::core {

/// Surface radii relative to the box half-width (Ying et al. 2004). The
/// downward pair mirrors the upward pair, so K(dc, de) = K(uc, ue)^T
/// and one pseudo-inverse serves both (core/tables.hpp).
inline constexpr double kUpwardEquivRadius = 1.05;
inline constexpr double kUpwardCheckRadius = 2.95;
inline constexpr double kDownEquivRadius = kUpwardCheckRadius;
inline constexpr double kDownCheckRadius = kUpwardEquivRadius;

/// Number of surface points of the n^3 lattice: n^3 - (n-2)^3.
int surface_point_count(int n);

/// Lattice coordinates (i,j,k) in [0,n)^3 of each surface point, in a
/// fixed deterministic order shared by all surface functions.
const std::vector<std::array<int, 3>>& surface_lattice(int n);

/// xyz-interleaved physical coordinates of the surface points for a box
/// with the given center and half-width: point p sits at
///   center + radius_scale * half_width * (-1 + 2 i_p / (n-1)).
std::vector<double> surface_points(int n, double radius_scale,
                                   const std::array<double, 3>& center,
                                   double half_width);

/// Lattice spacing of that surface: 2 * radius_scale * half_width / (n-1).
double surface_spacing(int n, double radius_scale, double half_width);

/// Allocation-free surface materialization: precomputes the unit surface
/// template (the box-independent factor of surface_points) once, then
/// writes per-box surfaces by scale+shift into caller-owned scratch.
/// materialize() produces bitwise the same coordinates as
/// surface_points(n, radius_scale, center, half_width).
class SurfaceCache {
 public:
  explicit SurfaceCache(int n);

  int count() const { return count_; }

  /// Resident bytes of the cached unit-surface template (memory
  /// telemetry: the `mem.eval.surface_bytes` gauge).
  std::size_t bytes() const { return unit_.capacity() * sizeof(double); }

  /// Writes the 3*count() xyz-interleaved coordinates of the surface of
  /// a box with the given center/half-width into out (must be sized
  /// exactly 3*count()).
  void materialize(double radius_scale, const std::array<double, 3>& center,
                   double half_width, std::span<double> out) const;

 private:
  int count_;
  std::vector<double> unit_;  ///< 3*count() values of -1 + 2 i/(n-1)
};

}  // namespace pkifmm::core
