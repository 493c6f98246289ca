#pragma once
/// \file points.hpp
/// \brief Particle records and the paper's test distributions.
///
/// A PointRec is the unit of migration: position, source density (up to
/// 3 components — the Stokes kernel's maximum), the original global
/// index (so computed potentials can be returned to whoever generated
/// the point), and the cached Morton id of the containing kMaxDepth
/// cell. The two distributions match §V of the paper: uniform random in
/// the unit cube, and points on the surface of a 1:1:4 ellipsoid with
/// uniform angular spacing (which concentrates points at the poles and
/// produces the 20+-level adaptive trees the paper highlights).

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "morton/key.hpp"
#include "util/rng.hpp"

namespace pkifmm::octree {

/// Maximum density components carried per point (Stokes needs 3).
inline constexpr int kMaxDensityDim = 3;

/// Point roles. The paper assumes sources and targets coincide "for
/// simplicity"; pkifmm supports disjoint or overlapping sets — e.g. a
/// measurement grid (targets only) immersed in a charge cloud (sources
/// only).
inline constexpr std::uint8_t kSource = 1;
inline constexpr std::uint8_t kTarget = 2;
inline constexpr std::uint8_t kBoth = kSource | kTarget;

/// One particle; trivially copyable so it can migrate over the fabric.
/// The padding is named and zero, so the bytes shipped hold no
/// indeterminate values (the health layer digests every payload).
struct PointRec {
  double pos[3];
  double den[kMaxDensityDim];
  std::uint64_t gid;          ///< global index at generation time
  std::uint8_t pad0[8] = {};  ///< aligns key_bits to 16 bytes
  morton::Bits key_bits;      ///< Morton id of the kMaxDepth cell
  std::uint8_t kind = kBoth;
  std::uint8_t pad1[15] = {};

  bool is_source() const { return kind & kSource; }
  bool is_target() const { return kind & kTarget; }

  /// Linear-octree point order: by Morton id, gid as tie-break so the
  /// order is total and deterministic under duplicates.
  friend bool operator<(const PointRec& a, const PointRec& b) {
    return a.key_bits != b.key_bits ? a.key_bits < b.key_bits
                                    : a.gid < b.gid;
  }
};

static_assert(std::is_trivially_copyable_v<PointRec>);
static_assert(sizeof(PointRec) ==
              sizeof(PointRec::pos) + sizeof(PointRec::den) +
                  sizeof(PointRec::gid) + sizeof(PointRec::pad0) +
                  sizeof(PointRec::key_bits) + sizeof(PointRec::kind) +
                  sizeof(PointRec::pad1));

enum class Distribution {
  kUniform,    ///< uniform density over the unit cube
  kEllipsoid,  ///< surface of a 1:1:4 ellipsoid, uniform angular spacing
  /// 95% of the points in a tight Gaussian cluster, 5% uniform
  /// background — a load-balancing stress case with extreme leaf
  /// population contrast (not from the paper; used by the ablations).
  kCluster,
};

Distribution distribution_from_name(const std::string& name);

/// Generates this rank's share of a global distribution of `n_global`
/// points (points are "equi-distributed in an arbitrary way across MPI
/// processes" per the paper; we give each rank a contiguous gid block).
/// Densities are filled with uniform [-1, 1) values in the first
/// `density_dim` slots, zero elsewhere.
std::vector<PointRec> generate_points(Distribution dist,
                                      std::uint64_t n_global, int rank,
                                      int nranks, int density_dim,
                                      std::uint64_t seed);

/// Recomputes key_bits from pos for every record.
void assign_morton_ids(std::vector<PointRec>& pts);

}  // namespace pkifmm::octree
