#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/direct.hpp"
#include "core/fmm.hpp"
#include "core/surface.hpp"
#include "la/svd.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pkifmm::core {
namespace {

using octree::Distribution;
using octree::PointRec;

// ---------------------------------------------------------------------
// Surfaces
// ---------------------------------------------------------------------

TEST(Surface, PointCounts) {
  EXPECT_EQ(surface_point_count(2), 8);
  EXPECT_EQ(surface_point_count(4), 56);
  EXPECT_EQ(surface_point_count(6), 152);
  EXPECT_EQ(surface_point_count(8), 296);
}

TEST(Surface, PointsLieOnCubeBoundary) {
  const std::array<double, 3> c = {0.5, 0.25, 0.75};
  const double hw = 0.125;
  const double r = 1.05 * hw;
  auto pts = surface_points(6, 1.05, c, hw);
  ASSERT_EQ(pts.size(), 3u * 152);
  for (std::size_t p = 0; p < pts.size() / 3; ++p) {
    double maxdev = 0;
    for (int d = 0; d < 3; ++d) {
      const double dev = std::abs(pts[3 * p + d] - c[d]);
      EXPECT_LE(dev, r + 1e-12);
      maxdev = std::max(maxdev, dev);
    }
    EXPECT_NEAR(maxdev, r, 1e-12);  // on the boundary, not inside
  }
}

TEST(Surface, SpacingFormula) {
  EXPECT_DOUBLE_EQ(surface_spacing(6, 1.05, 0.5), 1.05 / 5.0);
}

// ---------------------------------------------------------------------
// Translation operators in isolation
// ---------------------------------------------------------------------

/// Random sources in a level-l box; returns (positions, densities).
std::pair<std::vector<double>, std::vector<double>> random_cloud(
    const std::array<double, 3>& center, double hw, int n, int sd,
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> pos, den;
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d)
      pos.push_back(center[d] + hw * rng.uniform(-0.95, 0.95));
    for (int c = 0; c < sd; ++c) den.push_back(rng.uniform(-1, 1));
  }
  return {pos, den};
}

/// Computes the upward equivalent density of a cloud in the box at
/// `key` using the tables, mirroring Evaluator::s2u.
std::vector<double> make_equiv_density(const Tables& t, const morton::Key& key,
                                       const std::vector<double>& pos,
                                       const std::vector<double>& den) {
  const auto g = morton::box_geometry(key);
  const auto uc =
      surface_points(t.n(), kUpwardCheckRadius, g.center, g.half_width);
  std::vector<double> check(t.check_len(), 0.0);
  t.kernel().direct(uc, pos, den, check);
  const LevelOps ops = t.at(key.level);
  std::vector<double> u(t.eq_len(), 0.0);
  la::gemv_acc(*ops.uc2ue, check, u, ops.uc2ue_scale);
  return u;
}

/// Evaluates the equivalent density at arbitrary points.
std::vector<double> eval_equiv(const Tables& t, const morton::Key& key,
                               double radius_scale,
                               const std::vector<double>& density,
                               const std::vector<double>& targets) {
  const auto g = morton::box_geometry(key);
  const auto surf =
      surface_points(t.n(), radius_scale, g.center, g.half_width);
  std::vector<double> pot(targets.size() / 3 * t.tdim(), 0.0);
  t.kernel().direct(targets, surf, density, pot);
  return pot;
}

class OperatorTest : public ::testing::TestWithParam<const char*> {};

TEST_P(OperatorTest, S2UReproducesFarField) {
  auto kernel = kernels::make_kernel(GetParam());
  FmmOptions opts;
  opts.surface_n = 6;
  const Tables t(*kernel, opts);

  // Box at level 3 somewhere inside the domain.
  const morton::Key box =
      morton::ancestor_at(morton::cell_of_point(0.3, 0.55, 0.42), 3);
  const auto g = morton::box_geometry(box);
  auto [pos, den] = random_cloud(g.center, g.half_width, 40, t.sdim(), 5);
  const auto u = make_equiv_density(t, box, pos, den);

  // Evaluate at points outside the 3x colleague zone.
  std::vector<double> far;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    for (int d = 0; d < 3; ++d) {
      double v;
      do {
        v = rng.uniform();
      } while (std::abs(v - g.center[d]) < 3.2 * g.half_width);
      far.push_back(v);
    }
  }
  const auto approx = eval_equiv(t, box, kUpwardEquivRadius, u, far);
  std::vector<double> exact(far.size() / 3 * t.tdim(), 0.0);
  kernel->direct(far, pos, den, exact);
  EXPECT_LT(rel_l2_error(approx, exact), 1e-5) << GetParam();
}

TEST_P(OperatorTest, M2MPreservesFarField) {
  auto kernel = kernels::make_kernel(GetParam());
  FmmOptions opts;
  opts.surface_n = 6;
  const Tables t(*kernel, opts);

  const morton::Key parent =
      morton::ancestor_at(morton::cell_of_point(0.6, 0.3, 0.7), 4);
  std::vector<double> u_parent(t.eq_len(), 0.0);
  std::vector<double> all_pos, all_den;
  for (int ci = 0; ci < 8; ++ci) {
    const morton::Key child = morton::child(parent, ci);
    const auto g = morton::box_geometry(child);
    auto [pos, den] = random_cloud(g.center, g.half_width, 10, t.sdim(),
                                   100 + ci);
    const auto u_child = make_equiv_density(t, child, pos, den);
    const LevelOps ops = t.at(parent.level);
    la::gemv_acc((*ops.m2m)[ci], u_child, u_parent);
    all_pos.insert(all_pos.end(), pos.begin(), pos.end());
    all_den.insert(all_den.end(), den.begin(), den.end());
  }

  const auto g = morton::box_geometry(parent);
  std::vector<double> far = {g.center[0] + 8 * g.half_width, g.center[1],
                             g.center[2] - 7 * g.half_width};
  const auto approx =
      eval_equiv(t, parent, kUpwardEquivRadius, u_parent, far);
  std::vector<double> exact(t.tdim(), 0.0);
  kernel->direct(far, all_pos, all_den, exact);
  EXPECT_LT(rel_l2_error(approx, exact), 1e-5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kernels, OperatorTest,
                         ::testing::Values("laplace", "stokes", "yukawa"));

TEST(Operators, FftM2LMatchesDenseM2L) {
  // The diagonal (FFT) translation over the half spectrum and the dense
  // matrix must agree on the resulting check potentials for every
  // tested offset, on the grids 2n - 1 = 5, 7, 9 and 11.
  kernels::LaplaceKernel kernel;
  for (int sn : {3, 4, 5, 6}) {
    FmmOptions opts;
    opts.surface_n = sn;
    const Tables t(kernel, opts);
    Rng rng(9);
    std::vector<double> u(t.eq_len());
    for (auto& v : u) v = rng.uniform(-1, 1);

    const std::size_t n = static_cast<std::size_t>(sn);
    const std::size_t len = t.spectrum_len();
    const std::size_t hv = t.fft().half_volume();
    ASSERT_EQ(len % Tables::kFreqChunk, 0u);
    ASSERT_GE(len, hv);
    const auto& embed = t.embed_index();

    for (auto [dx, dy, dz] : std::vector<std::array<int, 3>>{
             {2, 0, 0}, {-2, 1, 0}, {3, -3, 3}, {0, 2, -1}, {-3, 0, 2}}) {
      const int off = offset_index(dx, dy, dz);
      // Dense path.
      const la::Matrix& m = t.m2l_dense(0, off);
      std::vector<double> dense_out(t.check_len(), 0.0);
      la::gemv_acc(m, u, dense_out);

      // FFT path: embed -> r2c -> MAC over the stored length -> c2r.
      std::vector<double> cube(n * n * n, 0.0);
      for (int k = 0; k < t.m(); ++k) cube[embed[k]] = u[k];
      std::vector<double> re(hv), im(hv);
      t.fft().forward_r2c(cube, n, re.data(), im.data());
      std::vector<fft::Complex> spec(len, fft::Complex(0, 0));
      for (std::size_t q = 0; q < hv; ++q) spec[q] = {re[q], im[q]};
      std::vector<fft::Complex> acc(len, fft::Complex(0, 0));
      const auto g = t.m2l_spectra(0, off);
      ASSERT_EQ(g.size(), len);
      fft::pointwise_mac(g, spec, acc);
      for (std::size_t q = 0; q < hv; ++q) {
        re[q] = acc[q].real();
        im[q] = acc[q].imag();
      }
      t.fft().inverse_c2r(re.data(), im.data(), n, cube);
      std::vector<double> fft_out(t.check_len());
      // Offset sign convention: dense matrix maps source at origin to
      // target at offset; spectra encode the same displacement.
      for (int k = 0; k < t.m(); ++k) fft_out[k] = cube[embed[k]];

      EXPECT_LT(rel_l2_error(fft_out, dense_out), 1e-10)
          << "n=" << sn << " offset " << dx << "," << dy << "," << dz;
    }
  }
}

TEST(Operators, HomogeneousScalingMatchesRebuiltLevel) {
  // at(level) with scaling must equal tables built directly at that
  // level geometry. Check via the S2U route at two different levels.
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  const Tables t(kernel, opts);

  for (int level : {2, 6}) {
    const morton::Key box =
        morton::ancestor_at(morton::cell_of_point(0.4, 0.4, 0.4), level);
    const auto g = morton::box_geometry(box);
    auto [pos, den] = random_cloud(g.center, g.half_width, 15, 1, 77);
    const auto u = make_equiv_density(t, box, pos, den);
    const std::vector<double> far = {g.center[0], g.center[1] + 5 * g.half_width,
                                     g.center[2]};
    const auto approx = eval_equiv(t, box, kUpwardEquivRadius, u, far);
    std::vector<double> exact(1, 0.0);
    kernel.direct(far, pos, den, exact);
    // n=4 truncation error is ~1e-4; a scaling bug would be off by
    // factors of 2^level, which this still catches decisively.
    EXPECT_NEAR(approx[0], exact[0], 1e-3 * std::abs(exact[0]))
        << "level " << level;
  }
}

// ---------------------------------------------------------------------
// Operator precompute (Tables)
// ---------------------------------------------------------------------

/// True iff a and b have the same shape and bit-identical entries.
bool bitwise_equal(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

/// ||x - y||_F / ||y||_F.
double rel_diff(const la::Matrix& x, const la::Matrix& y) {
  la::Matrix d = x;
  for (std::size_t i = 0; i < d.rows(); ++i)
    for (std::size_t j = 0; j < d.cols(); ++j) d(i, j) -= y(i, j);
  return d.frobenius_norm() / y.frobenius_norm();
}

/// K(surface r1, surface r2) at level 0 (unit box at the origin).
la::Matrix level0_kernel_matrix(const kernels::Kernel& kernel, int n,
                                double trg_radius, double src_radius) {
  const std::array<double, 3> origin = {0.0, 0.0, 0.0};
  return kernel.assemble(surface_points(n, trg_radius, origin, 0.5),
                         surface_points(n, src_radius, origin, 0.5));
}

TEST(Tables, VliPairSlotsMatchChildKeys) {
  // vli_pair_slots' closed form against the octants themselves: for a
  // parent P and each colleague P + D, child ct of P and child cs of
  // P + D, the slot of their vlist_offset_index, or -1 iff adjacent.
  const morton::Key par = morton::make_key(
      5 * (morton::kGridSize >> 3), 2 * (morton::kGridSize >> 3),
      6 * (morton::kGridSize >> 3), 3);
  const auto& slots = vli_pair_slots();
  int pairs = 0;
  for (int dir = 0; dir < 27; ++dir) {
    const auto col = morton::neighbor(par, dir / 9 - 1, dir / 3 % 3 - 1,
                                      dir % 3 - 1);
    ASSERT_TRUE(col.has_value());
    for (int cs = 0; cs < 8; ++cs)
      for (int ct = 0; ct < 8; ++ct) {
        const morton::Key t = morton::child(par, ct);
        const morton::Key s = morton::child(*col, cs);
        const int want = dir == 13 || morton::adjacent(t, s) || t == s
                             ? -1
                             : vlist_offset_slot(vlist_offset_index(t, s));
        EXPECT_EQ(slots[64 * dir + 8 * cs + ct], want)
            << "dir " << dir << " cs " << cs << " ct " << ct;
        pairs += want >= 0;
      }
  }
  EXPECT_EQ(pairs, 6 * 48 + 12 * 60 + 8 * 63);  // faces, edges, corners
}

TEST(Tables, FftGridIsExactConvolutionSize) {
  // The V-list grid is N = 2n - 1, the smallest on which the circular
  // convolution is exact, and a stored spectrum is its half spectrum
  // N^2 (N/2 + 1) = (2n - 1)^2 n rounded up to kFreqChunk.
  kernels::LaplaceKernel kernel;
  for (int n = 3; n <= 8; ++n) {
    FmmOptions opts;
    opts.surface_n = n;
    const Tables t(kernel, opts);
    const std::size_t grid = 2 * static_cast<std::size_t>(n) - 1;
    EXPECT_EQ(t.fft_n(), grid) << "n=" << n;
    EXPECT_EQ(t.fft_volume(), grid * grid * grid) << "n=" << n;
    const std::size_t half = grid * grid * static_cast<std::size_t>(n);
    EXPECT_EQ(t.fft().half_volume(), half) << "n=" << n;
    EXPECT_EQ(t.spectrum_len(), (half + Tables::kFreqChunk - 1) /
                                    Tables::kFreqChunk * Tables::kFreqChunk)
        << "n=" << n;
  }
  FmmOptions opts;
  opts.surface_n = 4;
  EXPECT_EQ(Tables(kernel, opts).spectrum_len(), 208u);
  opts.surface_n = 6;
  EXPECT_EQ(Tables(kernel, opts).spectrum_len(), 736u);
}

TEST(Tables, VliOperatorBlocksHoldTheSpectra) {
  // The block table is m2l_spectra re-laid: offset slot o, component c,
  // block b holds the real then imaginary parts of frequencies
  // [8 b, 8 b + 8), bit for bit, for every V-list offset.
  FmmOptions opts;
  opts.surface_n = 3;
  for (const char* name : {"laplace", "stokes"}) {
    const auto kernel = kernels::make_kernel(name);
    const Tables t(*kernel, opts);
    const std::vector<AlignedBuffer>& blocks = t.vli_operator_blocks(0);
    const std::size_t ncomp = std::size_t(t.tdim()) * t.sdim();
    const std::size_t len = t.spectrum_len();
    ASSERT_EQ(blocks.size() * simd::kVliBlock, len);
    int offsets = 0;
    for (int off = 0; off < kNumOffsets; ++off) {
      const int o = vlist_offset_slot(off);
      if (o < 0) continue;
      ++offsets;
      const auto g = t.m2l_spectra(0, off);
      for (std::size_t c = 0; c < ncomp; ++c)
        for (std::size_t q = 0; q < len; ++q) {
          const double* blk =
              blocks[q / simd::kVliBlock].data() +
              (o * ncomp + c) * simd::kVliBlockDoubles + q % simd::kVliBlock;
          ASSERT_EQ(blk[0], g[c * len + q].real()) << name << " off " << off;
          ASSERT_EQ(blk[simd::kVliBlock], g[c * len + q].imag())
              << name << " off " << off;
        }
    }
    EXPECT_EQ(offsets, kNumVlistOffsets);
  }
}

TEST(Tables, MirroredSurfacesShareOnePinv) {
  // The radii mirror each other (upward_equiv = down_check,
  // upward_check = down_equiv), so K(dc, de) = K(uc, ue)^T and dc2de
  // is exactly uc2ue^T, per level for a non-homogeneous kernel too. So
  // uc2ue and dc2de serve as each other's transpose for la::gemm_rows,
  // and the copies kept for M2M, L2L and the dense M2L matrices are
  // their operators' transposes bit for bit, at every level.
  FmmOptions opts;
  opts.surface_n = 4;
  const int off = offset_index(2, -1, 0);
  for (const auto& [name, levels] :
       {std::pair<const char*, int>{"laplace", 1}, {"stokes", 1},
        {"yukawa", 4}, {"stokes-reg", 4}}) {
    const auto kernel = kernels::make_kernel(name);
    const Tables t(*kernel, opts);
    for (int level = 0; level < levels; ++level) {
      const LevelOps ops = t.at(level);
      const std::string where =
          std::string(name) + " level " + std::to_string(level);
      EXPECT_TRUE(bitwise_equal(*ops.dc2de, ops.uc2ue->transposed()))
          << where;
      EXPECT_EQ(ops.uc2ue_t, ops.dc2de) << where;
      EXPECT_EQ(ops.dc2de_t, ops.uc2ue) << where;
      for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(
            bitwise_equal((*ops.m2m_t)[i], (*ops.m2m)[i].transposed()))
            << where << " child " << i;
        EXPECT_TRUE(
            bitwise_equal((*ops.l2l_t)[i], (*ops.l2l)[i].transposed()))
            << where << " child " << i;
      }
      EXPECT_TRUE(bitwise_equal(t.m2l_dense_t(level, off),
                                t.m2l_dense(level, off).transposed()))
          << where;
    }
  }
}

TEST(Tables, PinvMoorePenroseAtWallbenchShapes) {
  // K(uc, ue) at the wallbench orders: 152^2 (Laplace, n = 6) and 168^2
  // (Stokes, n = 4). Both Moore-Penrose identities hold for the stored
  // uc2ue (P) to min(1e-8, kappa eps / 10), kappa = sigma_max /
  // sigma_min over the kept singular values: P carries rounding of
  // order eps / sigma_min, which A P A and P A P amplify by up to kappa.
  // That is 1e-8 (kappa eps / 10 = 2.5e-8 at kappa 1.1e9) and 1.0e-11
  // (kappa 4.7e5); the identities read 1.0e-9 / 4.9e-9 and
  // 1.3e-12 / 3.8e-12.
  for (const auto& [name, n] :
       {std::pair<const char*, int>{"laplace", 6}, {"stokes", 4}}) {
    const auto kernel = kernels::make_kernel(name);
    FmmOptions opts;
    opts.surface_n = n;
    const Tables t(*kernel, opts);
    const la::Matrix& p = *t.at(0).uc2ue;
    const la::Matrix a = level0_kernel_matrix(
        *kernel, n, kUpwardCheckRadius, kUpwardEquivRadius);
    const std::vector<double> sigma = la::svd(a).sigma;
    double kept = sigma.front();
    for (double s : sigma)
      if (s > 1e-12 * sigma.front()) kept = s;
    const double bound = std::min(
        1e-8,
        0.1 * sigma.front() / kept * std::numeric_limits<double>::epsilon());
    EXPECT_LE(rel_diff(la::gemm(la::gemm(a, p), a), a), bound) << name;
    EXPECT_LE(rel_diff(la::gemm(la::gemm(p, a), p), p), bound) << name;
  }
}

TEST(Tables, OperatorsIdenticalUnderEverySimdTier) {
  // The precompute is plain C++: Tables built under any forced tier
  // equal the scalar tier's bit for bit (EvalSimdTierParity relies on
  // it).
  struct TierGuard {
    ~TierGuard() { simd::clear_forced_tier(); }
  } guard;
  for (const auto& [name, n] :
       {std::pair<const char*, int>{"laplace", 6}, {"stokes", 4}}) {
    const auto kernel = kernels::make_kernel(name);
    FmmOptions opts;
    opts.surface_n = n;
    const int off = offset_index(2, -1, 0);
    simd::force_tier(simd::Tier::kScalar);
    const Tables ref(*kernel, opts);
    const LevelOps r = ref.at(0);
    const auto r_spec = ref.m2l_spectra(0, off);
    for (const simd::Tier tier : simd::available_tiers()) {
      simd::force_tier(tier);
      const Tables t(*kernel, opts);
      const LevelOps o = t.at(0);
      const std::string where =
          std::string(name) + " under " + simd::tier_name(tier);
      EXPECT_TRUE(bitwise_equal(*o.uc2ue, *r.uc2ue)) << where;
      EXPECT_TRUE(bitwise_equal(*o.dc2de, *r.dc2de)) << where;
      for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(bitwise_equal((*o.m2m)[i], (*r.m2m)[i])) << where;
        EXPECT_TRUE(bitwise_equal((*o.l2l)[i], (*r.l2l)[i])) << where;
        EXPECT_TRUE(bitwise_equal((*o.m2m_t)[i], (*r.m2m_t)[i])) << where;
        EXPECT_TRUE(bitwise_equal((*o.l2l_t)[i], (*r.l2l_t)[i])) << where;
      }
      const auto spec = t.m2l_spectra(0, off);
      ASSERT_EQ(spec.size(), r_spec.size()) << where;
      EXPECT_EQ(std::memcmp(spec.data(), r_spec.data(),
                            spec.size() * sizeof(fft::Complex)),
                0)
          << where;
    }
  }
}

// ---------------------------------------------------------------------
// Reduce/scatter
// ---------------------------------------------------------------------

void check_reduce_mode(ReduceMode mode, int p) {
  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    octree::BuildParams bp;
    bp.max_points_per_leaf = 15;
    auto tree = octree::build_distributed_tree(
        ctx.comm,
        octree::generate_points(Distribution::kEllipsoid, 1200, ctx.rank(), p,
                                1, 3),
        bp);
    octree::Let let = octree::build_let(ctx.comm, tree);
    octree::build_interaction_lists(let);

    // Synthetic partial densities: a deterministic function of
    // (octant, rank), eq_len = 2 for brevity.
    const int eq_len = 2;
    std::vector<double> u(let.nodes.size() * eq_len, 0.0);
    morton::KeyHash h;
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      if (!let.nodes[i].target) continue;
      u[i * eq_len] = double(h(let.nodes[i].key) % 1000) + ctx.rank();
      u[i * eq_len + 1] = ctx.rank() + 1.0;
    }

    // Reference: gather everyone's (key, partial) and sum.
    std::vector<double> expected = u;
    {
      struct Entry {
        morton::Bits bits;
        std::uint8_t level;
        double v0, v1;
      };
      std::vector<Entry> mine;
      for (std::size_t i = 0; i < let.nodes.size(); ++i) {
        if (!let.nodes[i].target) continue;
        mine.push_back({let.nodes[i].key.bits, let.nodes[i].key.level,
                        u[i * eq_len], u[i * eq_len + 1]});
      }
      auto per_rank = ctx.comm.allgatherv(std::span<const Entry>(mine));
      std::map<morton::Key, std::array<double, 2>> sums;
      for (int r = 0; r < p; ++r)
        for (const Entry& e : per_rank[r]) {
          auto& s = sums[morton::Key{e.bits, e.level}];
          s[0] += e.v0;
          s[1] += e.v1;
        }
      for (std::size_t i = 0; i < let.nodes.size(); ++i) {
        auto it = sums.find(let.nodes[i].key);
        if (it == sums.end()) continue;
        expected[i * eq_len] = it->second[0];
        expected[i * eq_len + 1] = it->second[1];
      }
    }

    reduce_upward_densities(ctx.comm, let, eq_len, u, mode);

    // Every node this rank USES (V or W member of a target, or a target
    // itself) must hold the complete sum.
    std::vector<bool> used(let.nodes.size(), false);
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      if (!let.nodes[i].target) continue;
      used[i] = true;
      for (auto j : let.v.of(i)) used[j] = true;
      for (auto j : let.w.of(i)) used[j] = true;
    }
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      if (!used[i]) continue;
      EXPECT_NEAR(u[i * eq_len], expected[i * eq_len], 1e-9)
          << morton::to_string(let.nodes[i].key) << " rank " << ctx.rank();
      EXPECT_NEAR(u[i * eq_len + 1], expected[i * eq_len + 1], 1e-9);
    }
  });
}

TEST(Reduce, HypercubeMatchesReferenceP2) {
  check_reduce_mode(ReduceMode::kHypercube, 2);
}
TEST(Reduce, HypercubeMatchesReferenceP4) {
  check_reduce_mode(ReduceMode::kHypercube, 4);
}
TEST(Reduce, HypercubeMatchesReferenceP8) {
  check_reduce_mode(ReduceMode::kHypercube, 8);
}
TEST(Reduce, OwnerMatchesReferenceP4) {
  check_reduce_mode(ReduceMode::kOwner, 4);
}
TEST(Reduce, OwnerMatchesReferenceP6NonPow2) {
  check_reduce_mode(ReduceMode::kOwner, 6);
}

TEST(Reduce, HypercubeRejectsNonPowerOfTwo) {
  comm::Runtime::run(1, [](comm::RankCtx&) {});  // warm-up no-op
  EXPECT_THROW(check_reduce_mode(ReduceMode::kHypercube, 3), CheckFailure);
}

// ---------------------------------------------------------------------
// End-to-end FMM vs direct summation
// ---------------------------------------------------------------------

struct E2eCase {
  const char* kernel;
  Distribution dist;
  int surface_n;
  int q;
  int p;
  M2lMode m2l;
  double tol;
};

void run_e2e(const E2eCase& cse, std::uint64_t n_points,
             bool balance = true) {
  auto kernel = kernels::make_kernel(cse.kernel);
  FmmOptions opts;
  opts.surface_n = cse.surface_n;
  opts.max_points_per_leaf = cse.q;
  opts.m2l = cse.m2l;
  opts.load_balance = balance;
  if ((cse.p & (cse.p - 1)) != 0) opts.reduce = ReduceMode::kOwner;
  const Tables tables(*kernel, opts);

  comm::Runtime::run(cse.p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(cse.dist, n_points, ctx.rank(), cse.p,
                                       kernel->source_dim(), 17);
    const auto my_points = pts;  // keep a copy for the reference

    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    auto result = fmm.evaluate();

    // Exact potentials for the originally generated points.
    const auto exact = direct_reference(ctx.comm, *kernel, my_points);

    // Our result is keyed by gid; the owned set differs from the
    // generated set, so gather (gid, potential) pairs and pick ours.
    const int td = kernel->target_dim();
    struct GP {
      std::uint64_t gid;
      double v[3];
    };
    std::vector<GP> mine(result.gids.size());
    for (std::size_t i = 0; i < result.gids.size(); ++i) {
      mine[i].gid = result.gids[i];
      for (int c = 0; c < td; ++c)
        mine[i].v[c] = result.potentials[i * td + c];
    }
    auto all = ctx.comm.allgatherv_concat(std::span<const GP>(mine));
    std::unordered_map<std::uint64_t, const GP*> by_gid;
    for (const GP& g : all) by_gid.emplace(g.gid, &g);

    std::vector<double> approx(exact.size());
    for (std::size_t i = 0; i < my_points.size(); ++i) {
      auto it = by_gid.find(my_points[i].gid);
      ASSERT_NE(it, by_gid.end()) << "missing potential for gid "
                                  << my_points[i].gid;
      for (int c = 0; c < td; ++c)
        approx[i * td + c] = it->second->v[c];
    }
    const double err = rel_l2_error(approx, exact);
    EXPECT_LT(err, cse.tol) << cse.kernel << " p=" << cse.p
                            << " n=" << cse.surface_n << " q=" << cse.q;
  });
}

TEST(Fmm, LaplaceUniformSequentialMedium) {
  run_e2e({"laplace", Distribution::kUniform, 6, 40, 1, M2lMode::kFft, 1e-4},
          3000);
}

TEST(Fmm, LaplaceUniformSequentialLowAccuracy) {
  run_e2e({"laplace", Distribution::kUniform, 4, 40, 1, M2lMode::kFft, 5e-3},
          3000);
}

TEST(Fmm, LaplaceNonuniformSequential) {
  run_e2e({"laplace", Distribution::kEllipsoid, 6, 30, 1, M2lMode::kFft, 1e-4},
          2500);
}

TEST(Fmm, LaplaceDenseM2LMatchesAccuracy) {
  run_e2e({"laplace", Distribution::kUniform, 4, 40, 1, M2lMode::kDense, 5e-3},
          2000);
}

TEST(Fmm, LaplaceParallel4Uniform) {
  run_e2e({"laplace", Distribution::kUniform, 6, 30, 4, M2lMode::kFft, 1e-4},
          3000);
}

TEST(Fmm, LaplaceParallel4Nonuniform) {
  run_e2e({"laplace", Distribution::kEllipsoid, 6, 20, 4, M2lMode::kFft, 1e-4},
          2500);
}

TEST(Fmm, LaplaceParallel8DeepTree) {
  run_e2e({"laplace", Distribution::kEllipsoid, 4, 8, 8, M2lMode::kFft, 5e-3},
          1500);
}

TEST(Fmm, StokesSequential) {
  run_e2e({"stokes", Distribution::kUniform, 4, 40, 1, M2lMode::kFft, 5e-3},
          1500);
}

TEST(Fmm, StokesParallel4) {
  run_e2e({"stokes", Distribution::kEllipsoid, 4, 25, 4, M2lMode::kFft, 5e-3},
          1200);
}

TEST(Fmm, YukawaNonHomogeneousKernel) {
  run_e2e({"yukawa", Distribution::kUniform, 6, 40, 2, M2lMode::kFft, 1e-4},
          2000);
}

TEST(Fmm, RegularizedStokesNonHomogeneousVectorKernel) {
  // Non-homogeneous AND vector-valued: per-level tables with 3
  // components per surface point. The mollified self-interaction is
  // kept by both the FMM's U-list and the direct reference.
  run_e2e({"stokes-reg", Distribution::kUniform, 4, 40, 2, M2lMode::kFft,
           5e-3},
          1200);
}

TEST(Fmm, OwnerReduceNonPowerOfTwoRanks) {
  run_e2e({"laplace", Distribution::kUniform, 4, 30, 3, M2lMode::kFft, 5e-3},
          1500);
}

TEST(Fmm, NoLoadBalanceStillCorrect) {
  run_e2e({"laplace", Distribution::kEllipsoid, 4, 20, 4, M2lMode::kFft, 5e-3},
          1500, /*balance=*/false);
}

TEST(Fmm, HigherOrderIsMoreAccurate) {
  // Six seeded clouds, surface_n = 3 ... 8 (V-list grids 5 ... 15). On
  // every cloud the error falls strictly through n = 7. At n = 8 it sits
  // at the rounding floor of the pseudo-inverse (kappa ~ 3e11 over the
  // kept singular values, four below the 1e-12 cutoff), where its order
  // against n = 7 is decided by the last bits of the operators and the
  // build's FMA contraction, so n = 8 is held to absolute bounds
  // instead. Under the three SIMD tiers of the default and the
  // -march=native Release builds it read 0.8e-7 to 6.2e-7 per cloud
  // and 1.6e-7 to 4.4e-7 averaged; n = 7 reads 1.3e-7 to 2.6e-7.
  kernels::LaplaceKernel kernel;
  const std::vector<std::uint64_t> seeds = {23, 24, 25, 26, 27, 28};
  std::vector<std::vector<double>> errs(seeds.size());
  for (int n = 3; n <= 8; ++n) {
    FmmOptions opts;
    opts.surface_n = n;
    opts.max_points_per_leaf = 40;
    const Tables tables(kernel, opts);
    for (std::size_t c = 0; c < seeds.size(); ++c)
      comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
        auto pts = octree::generate_points(Distribution::kUniform, 2000, 0,
                                           1, 1, seeds[c]);
        const auto my_points = pts;
        ParallelFmm fmm(ctx, tables);
        fmm.setup(std::move(pts));
        auto result = fmm.evaluate();
        const auto exact = direct_reference(ctx.comm, kernel, my_points);
        std::vector<double> approx(exact.size());
        std::unordered_map<std::uint64_t, double> by_gid;
        for (std::size_t i = 0; i < result.gids.size(); ++i)
          by_gid[result.gids[i]] = result.potentials[i];
        for (std::size_t i = 0; i < my_points.size(); ++i)
          approx[i] = by_gid.at(my_points[i].gid);
        errs[c].push_back(rel_l2_error(approx, exact));
      });
  }
  double mean8 = 0.0;
  for (std::size_t c = 0; c < seeds.size(); ++c) {
    for (int n = 4; n <= 7; ++n)
      EXPECT_LT(errs[c][n - 3], errs[c][n - 4])
          << "seed " << seeds[c] << " surface_n " << n;
    EXPECT_LT(errs[c][5], 2e-6) << "seed " << seeds[c] << " surface_n 8";
    mean8 += errs[c][5] / static_cast<double>(seeds.size());
  }
  EXPECT_LT(mean8, 1e-6);
}

TEST(Fmm, RepeatedEvaluationWithNewDensities) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 6;
  opts.max_points_per_leaf = 30;
  const Tables tables(kernel, opts);
  comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    auto pts =
        octree::generate_points(Distribution::kUniform, 1500, ctx.rank(), 2, 1,
                                31);
    auto my_points = pts;
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    (void)fmm.evaluate();

    // Second evaluation with doubled densities must double the result.
    auto first = fmm.evaluate();
    std::vector<std::uint64_t> gids;
    std::vector<double> newden;
    for (const auto& node : fmm.let().nodes) {
      if (!node.owned) continue;
      for (const auto& pt : fmm.let().points_of(node)) {
        gids.push_back(pt.gid);
        newden.push_back(pt.den[0] * 2.0);
      }
    }
    fmm.set_densities(gids, newden);
    auto second = fmm.evaluate();
    ASSERT_EQ(first.potentials.size(), second.potentials.size());
    for (std::size_t i = 0; i < first.potentials.size(); ++i)
      EXPECT_NEAR(second.potentials[i], 2.0 * first.potentials[i],
                  1e-9 * std::abs(first.potentials[i]) + 1e-12);
  });
}

/// (gid, density) pairs covering every point this rank owns, in LET
/// iteration order.
void collect_owned_densities(const ParallelFmm& fmm, int sdim,
                             std::vector<std::uint64_t>* gids,
                             std::vector<double>* den) {
  for (const auto& node : fmm.let().nodes) {
    if (!node.owned) continue;
    for (const auto& pt : fmm.let().points_of(node)) {
      gids->push_back(pt.gid);
      for (int c = 0; c < sdim; ++c) den->push_back(pt.den[c]);
    }
  }
}

TEST(Fmm, SetDensitiesRejectsBadGidSets) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 30;
  const Tables tables(kernel, opts);
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto pts =
        octree::generate_points(Distribution::kUniform, 400, 0, 1, 1, 7);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));

    std::vector<std::uint64_t> gids;
    std::vector<double> den;
    collect_owned_densities(fmm, 1, &gids, &den);
    ASSERT_GE(gids.size(), 2u);

    // Duplicate gid in the input.
    auto dup_gids = gids;
    auto dup_den = den;
    dup_gids.push_back(gids.front());
    dup_den.push_back(den.front());
    EXPECT_THROW(fmm.set_densities(dup_gids, dup_den), CheckFailure);

    // A gid this rank does not own (full cover plus a stranger).
    auto extra_gids = gids;
    auto extra_den = den;
    extra_gids.push_back(1u << 30);  // gids are < n_global = 400
    extra_den.push_back(0.0);
    EXPECT_THROW(fmm.set_densities(extra_gids, extra_den), CheckFailure);

    // Partial coverage: an owned gid is missing from the input.
    auto part_gids = gids;
    auto part_den = den;
    part_gids.pop_back();
    part_den.pop_back();
    EXPECT_THROW(fmm.set_densities(part_gids, part_den), CheckFailure);

    // Mismatched density count for the gid list.
    auto short_den = den;
    short_den.pop_back();
    EXPECT_THROW(fmm.set_densities(gids, short_den), CheckFailure);

    // A valid full cover still succeeds after the rejected calls, and
    // evaluation reflects it (rejections must not corrupt state).
    auto first = fmm.evaluate();
    std::vector<double> doubled(den.size());
    for (std::size_t i = 0; i < den.size(); ++i) doubled[i] = 2.0 * den[i];
    fmm.set_densities(gids, doubled);
    auto second = fmm.evaluate();
    ASSERT_EQ(first.potentials.size(), second.potentials.size());
    for (std::size_t i = 0; i < first.potentials.size(); ++i)
      EXPECT_NEAR(second.potentials[i], 2.0 * first.potentials[i],
                  1e-9 * std::abs(first.potentials[i]) + 1e-12);
  });
}

TEST(Fmm, RepeatedSetupOnSameInstanceMatchesFreshInstance) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 30;
  opts.flow_trace = true;  // exercise flow-recorder lifetime across setups
  const Tables tables(kernel, opts);
  const int p = 2;

  std::mutex mu;
  std::map<int, std::map<std::uint64_t, double>> reused, fresh;
  auto reports = comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto pts_a = octree::generate_points(Distribution::kUniform, 900,
                                         ctx.rank(), p, 1, 11);
    auto pts_b = octree::generate_points(Distribution::kEllipsoid, 900,
                                         ctx.rank(), p, 1, 12);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts_a));
    (void)fmm.evaluate();
    fmm.setup(std::move(pts_b));  // second setup on the same instance
    auto out = fmm.evaluate();
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < out.gids.size(); ++i)
      reused[ctx.rank()][out.gids[i]] = out.potentials[i];
  });
  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto pts_b = octree::generate_points(Distribution::kEllipsoid, 900,
                                         ctx.rank(), p, 1, 12);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts_b));
    auto out = fmm.evaluate();
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < out.gids.size(); ++i)
      fresh[ctx.rank()][out.gids[i]] = out.potentials[i];
  });

  // The second setup must leave no residue: bitwise-identical output to
  // a fresh instance fed the same points.
  ASSERT_EQ(reused.size(), fresh.size());
  for (const auto& [rank, by_gid] : reused) {
    ASSERT_EQ(by_gid.size(), fresh.at(rank).size());
    for (const auto& [gid, pot] : by_gid)
      EXPECT_EQ(pot, fresh.at(rank).at(gid)) << "rank " << rank << " gid "
                                             << gid;
  }
  // mem.let.* gauges must reflect the latest setup, not the first.
  for (const auto& rep : reports) {
    const auto& g = rep.gauges;
    ASSERT_TRUE(g.count("mem.let.total_bytes"));
    ASSERT_TRUE(g.count("mem.let.ghost_bytes"));
    EXPECT_GT(g.at("mem.let.total_bytes"), 0.0);
    EXPECT_GE(g.at("mem.let.total_bytes"), g.at("mem.let.ghost_bytes"));
  }
}

TEST(Fmm, FlopAndTimePhasesAreRecorded) {
  kernels::LaplaceKernel kernel;
  FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 30;
  const Tables tables(kernel, opts);
  auto reports = comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(Distribution::kUniform, 1000,
                                       ctx.rank(), 2, 1, 37);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    (void)fmm.evaluate();
  });
  for (const auto& rep : reports) {
    const auto& c = rep.counters;
    EXPECT_GT(c.at("flops.eval.uli"), 0.0);
    EXPECT_GT(c.at("flops.eval.vli"), 0.0);
    EXPECT_GT(c.at("flops.eval.s2u"), 0.0);
    EXPECT_GT(c.at("time.setup.tree.wall"), 0.0);
    EXPECT_GT(c.at("time.eval.uli.wall"), 0.0);
    EXPECT_GT(c.at("comm.eval.comm.msgs_sent"), 0.0);
  }
}

}  // namespace
}  // namespace pkifmm::core
