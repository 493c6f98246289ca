#pragma once
/// \file ops_impl.hpp
/// \brief Single-source SIMD kernels, templated over a lane pack.
///
/// Every hot routine is written ONCE against the pack vocabulary of
/// pack.hpp and instantiated per tier in tier_{scalar,avx2,avx512}.cpp
/// (each TU compiled with its own -m flags; see simd/CMakeLists.txt).
/// make_ops<P>() assembles a tier's dispatch table.
///
/// Numerical contracts (asserted by tests/test_simd.cpp, by the
/// forced-tier sweeps EvalSimdTierParity and EvalSimdTierThreads, and by
/// the evaluator's per-box GEMM oracles, which CI runs under each tier):
///
///  - Per-element arithmetic is identical between a tier's full-width
///    body and its masked tail, so results are bitwise independent of
///    where callers place window/chunk boundaries. This is what
///    preserves the bitwise-determinism-per-thread-count contract of
///    the threaded evaluator within one tier.
///  - Across tiers, results agree to 1e-12 relative: FMA contraction,
///    lane width and, in the AVX-512 direct kernels, 1/r from rsqrt14
///    plus two Newton steps (P::rsqrt; the scalar and AVX2 tiers divide
///    1 by sqrt). The one-way direct kernels, and the A side of the
///    mutual tiles, accumulate sources in index order, one target per
///    lane. The mutual tiles' B side is the one reduction a tier
///    reassociates: each B target sums W per-lane partials over A's
///    groups in order, then adds the lanes in ascending order, a fixed
///    order per tier, so it stays bitwise deterministic within a tier
///    and within 1e-12 of the scalar tier. The DFT stages go further
///    and are bitwise equal in every tier: only fused multiply-adds
///    (fused_fmadd), in one order.
///  - Flop accounting is done by the callers from analytic models, so
///    flop counts are exactly equal across tiers by construction.
///
/// The direct kernels use the exafmm-style source-tiled x
/// target-vector-lane shape: a group of P::kWidth targets is staged
/// into SoA registers, all sources stream over the group (broadcast
/// position + density), and each lane accumulates its own target's
/// potential in source order. Tail groups pad coordinates by
/// replicating the first target and simply skip the dead lanes at
/// writeback. Coincident points are suppressed branch-free with an
/// r2 == 0 lane mask — the same predicate every scalar kernel::block
/// uses (see the unified guard in kernels/kernel.cpp). Each kernel's
/// per-pair arithmetic is written once, as a term type that both the
/// one-way loop and the mutual tiles (Ops::*_mutual) call; the mutual
/// tiles also keep per-lane partials for each source's own side (see
/// "Mutual direct tiles").

#include <cstddef>
#include <cstdint>
#include <numbers>

#include "simd/pack.hpp"
#include "simd/simd.hpp"

namespace pkifmm::simd::impl {

inline constexpr double kOneOver4Pi = 1.0 / (4.0 * std::numbers::pi);
inline constexpr double kOneOver8Pi = 1.0 / (8.0 * std::numbers::pi);

// ---------------------------------------------------------------------------
// axpyn: y[j] += sum_{r < NK} a[r] * x[r][j]  (k terms in ascending r
// order, each folded with one fmadd — the same association as NK
// successive axpy passes, so k-blocking is a pure bandwidth win).
// ---------------------------------------------------------------------------

template <class P, int NK>
void axpyn_fixed(const double* a, const double* const* xs, double* y,
                 std::size_t n) {
  typename P::V va[NK];
  for (int r = 0; r < NK; ++r) va[r] = P::set1(a[r]);
  constexpr std::size_t W = P::kWidth;
  std::size_t j = 0;
  for (; j + W <= n; j += W) {
    typename P::V acc = P::loadu(y + j);
    for (int r = 0; r < NK; ++r)
      acc = P::fmadd(va[r], P::loadu(xs[r] + j), acc);
    P::storeu(y + j, acc);
  }
  if (j < n) {
    const typename P::M m = P::tail_mask(n - j);
    typename P::V acc = P::maskz_loadu(m, y + j);
    for (int r = 0; r < NK; ++r)
      acc = P::fmadd(va[r], P::maskz_loadu(m, xs[r] + j), acc);
    P::mask_storeu(y + j, m, acc);
  }
}

template <class P>
void axpyn_t(const double* a, const double* const* xs, std::size_t nk,
             double* y, std::size_t n) {
  switch (nk) {
    case 1: axpyn_fixed<P, 1>(a, xs, y, n); break;
    case 2: axpyn_fixed<P, 2>(a, xs, y, n); break;
    case 3: axpyn_fixed<P, 3>(a, xs, y, n); break;
    case 4: axpyn_fixed<P, 4>(a, xs, y, n); break;
    default: break;  // callers pass 1..4 (kAxpynMaxK); 0 is a no-op
  }
}

/// Calls body.template operator()<R>() for the runtime r = R in [1, K);
/// r = 0 calls nothing. The narrower tiles of a remainder (gemm_rows'
/// nodes and output vectors, the DFT stages' lines and outputs).
template <std::size_t K, class Body>
void tile_rest(std::size_t r, const Body& body) {
  if constexpr (K > 1) {
    if (r == K - 1)
      body.template operator()<K - 1>();
    else
      tile_rest<K - 1>(r, body);
  }
}

// ---------------------------------------------------------------------------
// gemm_rows: a surface operator applied in place to a batch of node rows
// (see Ops::gemm_rows). A tile keeps NR nodes x NV vectors of outputs in
// registers over the whole k range: row k of the transposed operator is
// loaded once per tile as NV vectors along i, scaled by alpha, and
// shared by the NR nodes, whose inputs x[k] are broadcast. Each output
// element is one chain in ascending k from +0, added once into its
// destination row, so the tile shape, the remainder tiles and the
// caller's node windows never move a bit.
// ---------------------------------------------------------------------------

/// Tile shape per tier: AVX-512 8 vectors x 3 nodes (24 of 32
/// registers), AVX2 4 x 3 (12 of 16), scalar 4 x 4.
template <class P>
struct GemmRowsTile {
  static constexpr std::size_t kVectors = P::kWidth == 8 ? 8 : 4;
  static constexpr std::size_t kNodes = P::kWidth == 1 ? 4 : 3;
};

/// One step c + a b of a gemm_rows chain: P::fmadd, except that the
/// scalar pack rounds once wherever the build targets FMA. There the
/// compiler contracts axpyn's a * b + c, the chain la::gemm_acc forms,
/// while the tile's unrolled steps may be SLP-vectorized into a rounded
/// product and a separate sum; fused_fmadd keeps the two bitwise equal.
template <class P>
typename P::V gemm_rows_step(typename P::V a, typename P::V b,
                             typename P::V c) {
#ifdef __FMA__
  if constexpr (P::kWidth == 1) return P::fused_fmadd(a, b, c);
#endif
  return P::fmadd(a, b, c);
}

/// Output rows [i, i + NV W) of NR nodes; with Tail, the last vector's
/// lanes are those of mask m (the rows % W rows past the last full
/// vector).
template <class P, std::size_t NR, std::size_t NV, bool Tail>
void gemm_rows_tile(const double* at, std::size_t rows, std::size_t cols,
                    typename P::V va, const double* const* xr,
                    double* const* yr, std::size_t i, typename P::M m) {
  using V = typename P::V;
  constexpr std::size_t W = P::kWidth;
  constexpr std::size_t last = (NV - 1) * W;
  V c[NR][NV];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < NR; ++r)
#pragma GCC unroll 8
    for (std::size_t v = 0; v < NV; ++v) c[r][v] = P::zero();
  const double* ak = at + i;
  for (std::size_t k = 0; k < cols; ++k, ak += rows) {
#pragma GCC unroll 8
    for (std::size_t v = 0; v < NV; ++v) {
      const V a = P::mul(va, Tail && v == NV - 1 ? P::maskz_loadu(m, ak + last)
                                                 : P::loadu(ak + v * W));
#pragma GCC unroll 4
      for (std::size_t r = 0; r < NR; ++r)
        c[r][v] = gemm_rows_step<P>(a, P::set1(xr[r][k]), c[r][v]);
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < NR; ++r) {
    double* y = yr[r] + i;
#pragma GCC unroll 8
    for (std::size_t v = 0; v + (Tail ? 1 : 0) < NV; ++v)
      P::storeu(y + v * W, P::add(P::loadu(y + v * W), c[r][v]));
    if constexpr (Tail)
      P::mask_storeu(y + last, m,
                     P::add(P::maskz_loadu(m, y + last), c[r][NV - 1]));
  }
}

/// Every output row of nodes [0, NR) of in/out.
template <class P, std::size_t NR>
void gemm_rows_nodes(const double* at, std::size_t rows, std::size_t cols,
                     typename P::V va, const double* x,
                     const std::int32_t* in, double* y,
                     const std::int32_t* out) {
  constexpr std::size_t W = P::kWidth, NV = GemmRowsTile<P>::kVectors;
  const double* xr[NR];
  double* yr[NR];
  for (std::size_t r = 0; r < NR; ++r) {
    xr[r] = x + std::size_t(in[r]) * cols;
    yr[r] = y + std::size_t(out[r]) * rows;
  }
  const std::size_t full = rows / W, tail = rows % W;
  const typename P::M m = P::tail_mask(tail);
  std::size_t v = 0;
  for (; v + NV <= full; v += NV)
    gemm_rows_tile<P, NR, NV, false>(at, rows, cols, va, xr, yr, v * W, m);
  if (tail != 0)
    tile_rest<NV + 1>(full - v + 1, [&]<std::size_t R>() {
      gemm_rows_tile<P, NR, R, true>(at, rows, cols, va, xr, yr, v * W, m);
    });
  else
    tile_rest<NV>(full - v, [&]<std::size_t R>() {
      gemm_rows_tile<P, NR, R, false>(at, rows, cols, va, xr, yr, v * W, m);
    });
}

template <class P>
void gemm_rows_t(const double* at, std::size_t rows, std::size_t cols,
                 double alpha, const double* x, const std::int32_t* in,
                 double* y, const std::int32_t* out, std::size_t n) {
  constexpr std::size_t NR = GemmRowsTile<P>::kNodes;
  const typename P::V va = P::set1(alpha);
  std::size_t j = 0;
  for (; j + NR <= n; j += NR)
    gemm_rows_nodes<P, NR>(at, rows, cols, va, x, in + j, y, out + j);
  tile_rest<NR>(n - j, [&]<std::size_t R>() {
    gemm_rows_nodes<P, R>(at, rows, cols, va, x, in + j, y, out + j);
  });
}

// ---------------------------------------------------------------------------
// cmac: acc[i] += g[i] * f[i] over n interleaved complex values.
// Vector tiers use the dup-even/dup-odd/fmaddsub idiom (W/2 complex
// per vector); the scalar tier keeps the pre-SIMD two-product form.
// ---------------------------------------------------------------------------

template <class P>
void cmac_t(const double* g, const double* f, double* acc, std::size_t n) {
  if constexpr (P::kWidth == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      const double gr = g[2 * i], gi = g[2 * i + 1];
      const double fr = f[2 * i], fi = f[2 * i + 1];
      acc[2 * i] += gr * fr - gi * fi;
      acc[2 * i + 1] += gr * fi + gi * fr;
    }
  } else {
    constexpr std::size_t W = P::kWidth;
    const std::size_t nd = 2 * n;  // doubles
    std::size_t i = 0;
    for (; i + W <= nd; i += W) {
      const typename P::V vg = P::loadu(g + i);
      const typename P::V vf = P::loadu(f + i);
      const typename P::V t = P::mul(P::dup_odd(vg), P::swap_pairs(vf));
      const typename P::V r = P::fmaddsub(P::dup_even(vg), vf, t);
      P::storeu(acc + i, P::add(P::loadu(acc + i), r));
    }
    if (i < nd) {
      // Complex values are pairs of doubles, so the remainder is even
      // and the in-pair shuffles never cross the mask edge.
      const typename P::M m = P::tail_mask(nd - i);
      const typename P::V vg = P::maskz_loadu(m, g + i);
      const typename P::V vf = P::maskz_loadu(m, f + i);
      const typename P::V t = P::mul(P::dup_odd(vg), P::swap_pairs(vf));
      const typename P::V r = P::fmaddsub(P::dup_even(vg), vf, t);
      P::mask_storeu(acc + i, m, P::add(P::maskz_loadu(m, acc + i), r));
    }
  }
}

// ---------------------------------------------------------------------------
// cmac_entries: one operator chunk applied to a list of (source,
// accumulator) chunks, fft::pointwise_mac_chunked's body. The vector
// tiers split g into blocks of kCmacHeldDoubles and hold each
// block's dup-even/dup-odd vectors across all entries; every element
// still gets cmac_t's exact update, in entry order, so the result is
// bitwise that of one cmac_t call per entry.
// ---------------------------------------------------------------------------

/// Doubles of g held per block: one 16-frequency chunk (4 AVX-512 or 8
/// AVX2 vectors).
inline constexpr std::size_t kCmacHeldDoubles = 32;

template <class P>
void cmac_entries_t(const double* g, std::size_t c, const double* f,
                    double* acc, const std::int32_t* fidx,
                    const std::int32_t* aidx, std::size_t ne) {
  const std::size_t nd = 2 * c;  // doubles per chunk
  std::size_t j = 0;
  if constexpr (P::kWidth > 1) {
    using V = typename P::V;
    constexpr std::size_t W = P::kWidth;
    constexpr std::size_t K = kCmacHeldDoubles / W;
    for (; j + K * W <= nd; j += K * W) {
      V ge[K], go[K];
      for (std::size_t k = 0; k < K; ++k) {
        const V vg = P::loadu(g + j + k * W);
        ge[k] = P::dup_even(vg);
        go[k] = P::dup_odd(vg);
      }
      for (std::size_t e = 0; e < ne; ++e) {
        const double* fe = f + std::size_t(fidx[e]) * nd + j;
        double* ae = acc + std::size_t(aidx[e]) * nd + j;
        for (std::size_t k = 0; k < K; ++k) {
          const V vf = P::loadu(fe + k * W);
          const V t = P::mul(go[k], P::swap_pairs(vf));
          const V r = P::fmaddsub(ge[k], vf, t);
          P::storeu(ae + k * W, P::add(P::loadu(ae + k * W), r));
        }
      }
    }
  }
  if (j == nd) return;
  // The scalar tier, and what is left of a chunk narrower than a block.
  for (std::size_t e = 0; e < ne; ++e)
    cmac_t<P>(g + j, f + std::size_t(fidx[e]) * nd + j,
              acc + std::size_t(aidx[e]) * nd + j, (nd - j) / 2);
}

// ---------------------------------------------------------------------------
// vli_mac_block: the sibling-blocked V-list MAC over one 8-frequency
// block (see Ops::vli_mac_block). A pass keeps CP children's
// accumulators of one target component, NV vectors of the block each,
// in registers while the parent's colleagues' source children stream
// past, so each source load feeds up to CP children. Passes split the
// children, the target components and the block's vectors, never an
// element's chain, so a tier's results do not depend on its tiling.
// ---------------------------------------------------------------------------

/// Register tiling per tier. AVX-512: 8 children x (re, im) = 16 of 32
/// registers. AVX2 has 16 registers: 4 children and one of the block's
/// two vectors per pass. Scalar: all 8 lanes of 8 children per pass.
template <class P>
struct VliTile {
  static constexpr std::size_t kVectors = kVliBlock / P::kWidth;
  static constexpr int kChildren = P::kWidth == 4 ? 4 : 8;
  static constexpr std::size_t kVectorsPerPass = P::kWidth == 1 ? kVectors : 1;
};

/// One pass over one parent: children [c_lo, c_lo + CP), target
/// component ti, block lanes from lane0.
template <class P, int SD, int CP, std::size_t NV>
void vli_mac_pass(const double* g, std::size_t gstride, const std::int32_t* op_index,
                  const double* s, double* acc, int td, int ti, int c_lo,
                  std::size_t lane0, const VliParent& par,
                  const VliColleague* colleagues) {
  using V = typename P::V;
  constexpr std::size_t W = P::kWidth;
  constexpr std::size_t B = kVliBlockDoubles;
  constexpr std::size_t H = kVliBlock;  // the imaginary half
  constexpr std::uint64_t kGroup = (std::uint64_t{1} << CP) - 1;
  const std::size_t gcomp = std::size_t(ti) * SD * B + lane0;
  V re[CP][NV], im[CP][NV];
#pragma GCC unroll 8
  for (int j = 0; j < CP; ++j)
#pragma GCC unroll 8
    for (std::size_t k = 0; k < NV; ++k) re[j][k] = im[j][k] = P::zero();
  for (std::uint32_t e = par.c0; e < par.c1; ++e) {
    const VliColleague& col = colleagues[e];
    const std::int32_t* oi = op_index + 64 * col.dir + c_lo;
    for (int cs = 0; cs < 8; ++cs) {
      const unsigned m =
          static_cast<unsigned>((col.pairs >> (8 * cs + c_lo)) & kGroup);
      if (m == 0) continue;
      const double* sp = s + std::size_t(col.src[cs]) * SD * B + lane0;
      V sr[SD][NV], si[SD][NV];
#pragma GCC unroll 8
      for (int sc = 0; sc < SD; ++sc)
#pragma GCC unroll 8
        for (std::size_t k = 0; k < NV; ++k) {
          sr[sc][k] = P::loadu(sp + sc * B + k * W);
          si[sc][k] = P::loadu(sp + sc * B + H + k * W);
        }
      const std::int32_t* o = oi + 8 * cs;
#pragma GCC unroll 8
      for (int j = 0; j < CP; ++j) {
        if (!((m >> j) & 1u)) continue;
        const double* gp = g + std::size_t(o[j]) * gstride + gcomp;
#pragma GCC unroll 8
        for (int sc = 0; sc < SD; ++sc)
#pragma GCC unroll 8
          for (std::size_t k = 0; k < NV; ++k) {
            const V gr = P::loadu(gp + sc * B + k * W);
            const V gi = P::loadu(gp + sc * B + H + k * W);
            re[j][k] = P::fmadd(gr, sr[sc][k], re[j][k]);
            re[j][k] = P::fnmadd(gi, si[sc][k], re[j][k]);
            im[j][k] = P::fmadd(gr, si[sc][k], im[j][k]);
            im[j][k] = P::fmadd(gi, sr[sc][k], im[j][k]);
          }
      }
    }
  }
#pragma GCC unroll 8
  for (int j = 0; j < CP; ++j) {
    const std::int32_t t = par.tgt[c_lo + j];
    if (t < 0) continue;
    double* ap = acc + (std::size_t(t) * td + ti) * B + lane0;
#pragma GCC unroll 8
    for (std::size_t k = 0; k < NV; ++k) {
      P::storeu(ap + k * W, re[j][k]);
      P::storeu(ap + H + k * W, im[j][k]);
    }
  }
}

template <class P, int SD>
void vli_mac_block_sd(const double* g, const std::int32_t* op_index,
                      const double* s, double* acc, int td,
                      const VliParent* parents, std::size_t np,
                      const VliColleague* colleagues) {
  using T = VliTile<P>;
  const std::size_t gstride = std::size_t(td) * SD * kVliBlockDoubles;
  for (std::size_t p = 0; p < np; ++p)
    for (std::size_t v = 0; v < T::kVectors; v += T::kVectorsPerPass)
      for (int ti = 0; ti < td; ++ti)
        for (int c_lo = 0; c_lo < 8; c_lo += T::kChildren)
          vli_mac_pass<P, SD, T::kChildren, T::kVectorsPerPass>(
              g, gstride, op_index, s, acc, td, ti, c_lo, v * P::kWidth,
              parents[p], colleagues);
}

template <class P>
void vli_mac_block_t(const double* g, const std::int32_t* op_index,
                     const double* s, double* acc, int td, int sd,
                     const VliParent* parents, std::size_t np,
                     const VliColleague* colleagues) {
  switch (sd) {
    case 1:
      vli_mac_block_sd<P, 1>(g, op_index, s, acc, td, parents, np, colleagues);
      break;
    case 2:
      vli_mac_block_sd<P, 2>(g, op_index, s, acc, td, parents, np, colleagues);
      break;
    case 3:
      vli_mac_block_sd<P, 3>(g, op_index, s, acc, td, parents, np, colleagues);
      break;
    default:
      break;  // core::Tables admits kernels with sd <= 3 only
  }
}

// ---------------------------------------------------------------------------
// DFT stages of fft::Fft3d (see Ops::dft_x and Ops::dft_yz). Every
// output element is one chain of fused multiply-adds over the terms in
// ascending order, started at zero. Lanes never mix, a tail runs the
// same arithmetic under a lane mask, and the blocking below only picks
// which chains run side by side, so all tiers give the same bits.
// ---------------------------------------------------------------------------

/// Lines (dft_x) or outputs (dft_yz) per block: they share each load,
/// and their 2K chains cover the FMA latency. AVX-512's 32 registers
/// hold K = 8 (16 accumulators), AVX2's 16 hold K = 4.
template <class P>
inline constexpr std::size_t kDftBlock = P::kWidth == 8 ? 8 : 4;

/// dft_x over lines [l, l + K), output lanes [j, j + W) under mask m.
/// CI: complex input; CO: complex output.
template <class P, std::size_t K, bool CI, bool CO>
void dft_x_lines(const DftStage& st, std::size_t l, std::size_t j,
                 typename P::M m) {
  using V = typename P::V;
  V re[K], im[K];
#pragma GCC unroll 8
  for (std::size_t k = 0; k < K; ++k) re[k] = im[k] = P::zero();
  for (std::size_t t = 0; t < st.n_in; ++t) {
    const V cr = P::maskz_loadu(m, st.tr + t * st.ts + j);
    const V ci = P::maskz_loadu(m, st.ti + t * st.ts + j);
    const std::size_t at = l * st.x_line + t * st.x_step;
#pragma GCC unroll 8
    for (std::size_t k = 0; k < K; ++k) {
      const V ar = P::set1(st.xr[at + k * st.x_line]);
      re[k] = P::fused_fmadd(ar, cr, re[k]);
      if constexpr (CI) {
        const V ai = P::set1(st.xi[at + k * st.x_line]);
        re[k] = P::fused_fnmadd(ai, ci, re[k]);
        if constexpr (CO) {
          im[k] = P::fused_fmadd(ar, ci, im[k]);
          im[k] = P::fused_fmadd(ai, cr, im[k]);
        }
      } else if constexpr (CO) {
        im[k] = P::fused_fmadd(ar, ci, im[k]);
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t k = 0; k < K; ++k) {
    P::mask_storeu(st.yr + (l + k) * st.y_line + j, m, re[k]);
    if constexpr (CO) P::mask_storeu(st.yi + (l + k) * st.y_line + j, m, im[k]);
  }
}

template <class P, bool CI, bool CO>
void dft_x_kind(const DftStage& st) {
  constexpr std::size_t W = P::kWidth, K = kDftBlock<P>;
  for (std::size_t j = 0; j < st.n_out; j += W) {
    const typename P::M m = P::tail_mask(st.n_out - j);
    std::size_t l = 0;
    for (; l + K <= st.lines; l += K) dft_x_lines<P, K, CI, CO>(st, l, j, m);
    tile_rest<K>(st.lines - l, [&]<std::size_t R>() {
      dft_x_lines<P, R, CI, CO>(st, l, j, m);
    });
  }
}

template <class P>
void dft_x_t(const DftStage& st) {
  if (st.xi == nullptr)
    dft_x_kind<P, false, true>(st);  // the r2c x stage
  else if (st.yi == nullptr)
    dft_x_kind<P, true, false>(st);  // the c2r x stage
  else
    dft_x_kind<P, true, true>(st);
}

/// dft_yz for outputs [o, o + K) of one line, lanes [k, k + W) under
/// mask m; x and y point at the line's lane k.
template <class P, std::size_t K>
void dft_yz_outputs(const DftStage& st, const double* xr, const double* xi,
                    double* yr, double* yi, std::size_t o, typename P::M m) {
  using V = typename P::V;
  V re[K], im[K];
#pragma GCC unroll 8
  for (std::size_t j = 0; j < K; ++j) re[j] = im[j] = P::zero();
  const double* tr = st.tr + o * st.ts;
  const double* ti = st.ti + o * st.ts;
  for (std::size_t t = 0; t < st.n_in; ++t) {
    const V ar = P::maskz_loadu(m, xr + t * st.x_step);
    const V ai = P::maskz_loadu(m, xi + t * st.x_step);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < K; ++j) {
      const V cr = P::set1(tr[j * st.ts + t]);
      const V ci = P::set1(ti[j * st.ts + t]);
      re[j] = P::fused_fmadd(cr, ar, re[j]);
      re[j] = P::fused_fnmadd(ci, ai, re[j]);
      im[j] = P::fused_fmadd(cr, ai, im[j]);
      im[j] = P::fused_fmadd(ci, ar, im[j]);
    }
  }
#pragma GCC unroll 8
  for (std::size_t j = 0; j < K; ++j) {
    P::mask_storeu(yr + (o + j) * st.y_step, m, re[j]);
    P::mask_storeu(yi + (o + j) * st.y_step, m, im[j]);
  }
}

template <class P>
void dft_yz_t(const DftStage& st) {
  constexpr std::size_t W = P::kWidth, K = kDftBlock<P>;
  for (std::size_t l = 0; l < st.lines; ++l)
    for (std::size_t k = 0; k < st.lanes; k += W) {
      const typename P::M m = P::tail_mask(st.lanes - k);
      const std::size_t x = l * st.x_line + k, y = l * st.y_line + k;
      const double *xr = st.xr + x, *xi = st.xi + x;
      double *yr = st.yr + y, *yi = st.yi + y;
      std::size_t o = 0;
      for (; o + K <= st.n_out; o += K)
        dft_yz_outputs<P, K>(st, xr, xi, yr, yi, o, m);
      tile_rest<K>(st.n_out - o, [&]<std::size_t R>() {
        dft_yz_outputs<P, R>(st, xr, xi, yr, yi, o, m);
      });
    }
}

// ---------------------------------------------------------------------------
// Direct kernels. Shared staging: W targets -> SoA lanes (tail lanes
// replicate target 0 and are dropped at writeback). Each kernel is one
// term type, written once:
//   pair(tg, y)      the quantities the group's lanes share with source
//                    point y (d = x - y, 1/r, ...);
//   add(p, q, acc)   the kernel applied to densities q (one vector per
//                    source component) into the accumulators acc.
// The one-way loop (direct_t) broadcasts each source's densities and
// adds into the group's accumulators. The mutual tile (mutual_t) runs
// the same pair() and add() for A's accumulators and then one more
// add() of A's densities, in lanes, into the source's partials.
// ---------------------------------------------------------------------------

template <class P>
struct TargetGroup {
  typename P::V x, y, z;
  std::size_t lanes;  ///< valid lane count (tail groups < kWidth)
};

template <class P>
TargetGroup<P> load_targets(const double* trg, std::size_t t0,
                            std::size_t nt) {
  constexpr std::size_t W = P::kWidth;
  const std::size_t lanes = nt - t0 < W ? nt - t0 : W;
  double bx[W], by[W], bz[W];
  for (std::size_t l = 0; l < lanes; ++l) {
    bx[l] = trg[3 * (t0 + l) + 0];
    by[l] = trg[3 * (t0 + l) + 1];
    bz[l] = trg[3 * (t0 + l) + 2];
  }
  for (std::size_t l = lanes; l < W; ++l) {
    bx[l] = bx[0];
    by[l] = by[0];
    bz[l] = bz[0];
  }
  return {P::loadu(bx), P::loadu(by), P::loadu(bz), lanes};
}

/// f[(t0+l)*stride + comp] += lane l of acc, valid lanes only.
template <class P>
void store_lanes_acc(double* f, std::size_t t0, int stride, int comp,
                     typename P::V acc, std::size_t lanes) {
  double out[P::kWidth];
  P::storeu(out, acc);
  for (std::size_t l = 0; l < lanes; ++l)
    f[(t0 + l) * static_cast<std::size_t>(stride) + comp] += out[l];
}

/// d = x - y in the group's lanes and r2 = |d|^2.
template <class P>
struct Separation {
  typename P::V dx, dy, dz, r2;
};

template <class P>
Separation<P> separation(const TargetGroup<P>& tg, const double* y) {
  Separation<P> d;
  d.dx = P::sub(tg.x, P::set1(y[0]));
  d.dy = P::sub(tg.y, P::set1(y[1]));
  d.dz = P::sub(tg.z, P::set1(y[2]));
  d.r2 = P::mul(d.dx, d.dx);
  d.r2 = P::fmadd(d.dy, d.dy, d.r2);
  d.r2 = P::fmadd(d.dz, d.dz, d.r2);
  return d;
}

/// 1/r, zero in coincident lanes (r2 == 0).
template <class P>
typename P::V masked_inv_r(typename P::V r2) {
  return P::zero_where(P::eq(r2, P::zero()), P::rsqrt(r2));
}

/// Laplace single layer: f[t] += q_s / (4 pi |x_t - y_s|), the
/// 1/(4 pi) folded into the densities.
template <class P>
struct LaplaceTerm {
  using V = typename P::V;
  static constexpr int kTrgDim = 1, kSrcDim = 1;
  static constexpr double kDensityScale = kOneOver4Pi;
  struct Pair {
    V inv_r;
  };
  Pair pair(const TargetGroup<P>& tg, const double* y) const {
    return {masked_inv_r<P>(separation<P>(tg, y).r2)};
  }
  void add(const Pair& p, const V (&q)[1], V (&acc)[1]) const {
    acc[0] = P::fmadd(q[0], p.inv_r, acc[0]);
  }
};

/// grad_x Laplace: f[t][i] += -d_i q_s / (4 pi |d|^3), the -1/(4 pi)
/// folded into the densities.
template <class P>
struct LaplaceGradTerm {
  using V = typename P::V;
  static constexpr int kTrgDim = 3, kSrcDim = 1;
  static constexpr double kDensityScale = -kOneOver4Pi;
  struct Pair {
    Separation<P> d;
    V inv_r3;
  };
  Pair pair(const TargetGroup<P>& tg, const double* y) const {
    const Separation<P> d = separation<P>(tg, y);
    const V inv_r = masked_inv_r<P>(d.r2);
    return {d, P::mul(P::mul(inv_r, inv_r), inv_r)};
  }
  void add(const Pair& p, const V (&q)[1], V (&acc)[3]) const {
    const V c = P::mul(q[0], p.inv_r3);
    acc[0] = P::fmadd(c, p.d.dx, acc[0]);
    acc[1] = P::fmadd(c, p.d.dy, acc[1]);
    acc[2] = P::fmadd(c, p.d.dz, acc[2]);
  }
};

/// Stokes single layer (Oseen): using K q = 1/(8 pi) [q / r + d (d.q)/r^3],
/// f[t][i] += k8 (q_i / r + d_i (d.q) / r^3). K is even, so add() serves
/// both directions of a pair with the same d.
template <class P>
struct StokesTerm {
  using V = typename P::V;
  static constexpr int kTrgDim = 3, kSrcDim = 3;
  static constexpr double kDensityScale = 1.0;
  struct Pair {
    Separation<P> d;
    V inv_r3, s1;
  };
  Pair pair(const TargetGroup<P>& tg, const double* y) const {
    const Separation<P> d = separation<P>(tg, y);
    const V inv_r = masked_inv_r<P>(d.r2);
    return {d, P::mul(P::mul(inv_r, inv_r), inv_r),
            P::mul(P::set1(kOneOver8Pi), inv_r)};
  }
  void add(const Pair& p, const V (&q)[3], V (&acc)[3]) const {
    V dq = P::mul(p.d.dx, q[0]);
    dq = P::fmadd(p.d.dy, q[1], dq);
    dq = P::fmadd(p.d.dz, q[2], dq);
    const V s3 = P::mul(P::set1(kOneOver8Pi), P::mul(dq, p.inv_r3));
    acc[0] = P::fmadd(p.s1, q[0], acc[0]);
    acc[1] = P::fmadd(p.s1, q[1], acc[1]);
    acc[2] = P::fmadd(p.s1, q[2], acc[2]);
    acc[0] = P::fmadd(s3, p.d.dx, acc[0]);
    acc[1] = P::fmadd(s3, p.d.dy, acc[1]);
    acc[2] = P::fmadd(s3, p.d.dz, acc[2]);
  }
};

/// Regularized Stokeslet (Cortez): smooth at r = 0, no lane mask —
/// self-interaction is finite and KEPT, exactly as in the scalar block.
template <class P>
struct StokesRegTerm {
  using V = typename P::V;
  static constexpr int kTrgDim = 3, kSrcDim = 3;
  static constexpr double kDensityScale = 1.0;
  double eps2;
  struct Pair {
    Separation<P> d;
    V diag, offd;
  };
  Pair pair(const TargetGroup<P>& tg, const double* y) const {
    const Separation<P> d = separation<P>(tg, y);
    const V re2 = P::add(d.r2, P::set1(eps2));
    const V inv_s = P::rsqrt(re2);
    // 1 / (re2 * sqrt(re2)) = inv_s^3
    const V inv = P::mul(P::mul(inv_s, inv_s), inv_s);
    return {d,
            P::mul(P::set1(kOneOver8Pi),
                   P::mul(P::add(d.r2, P::set1(2.0 * eps2)), inv)),
            P::mul(P::set1(kOneOver8Pi), inv)};
  }
  void add(const Pair& p, const V (&q)[3], V (&acc)[3]) const {
    V dq = P::mul(p.d.dx, q[0]);
    dq = P::fmadd(p.d.dy, q[1], dq);
    dq = P::fmadd(p.d.dz, q[2], dq);
    const V s3 = P::mul(p.offd, dq);
    acc[0] = P::fmadd(p.diag, q[0], acc[0]);
    acc[1] = P::fmadd(p.diag, q[1], acc[1]);
    acc[2] = P::fmadd(p.diag, q[2], acc[2]);
    acc[0] = P::fmadd(s3, p.d.dx, acc[0]);
    acc[1] = P::fmadd(s3, p.d.dy, acc[1]);
    acc[2] = P::fmadd(s3, p.d.dz, acc[2]);
  }
};

/// One source's densities, times the term's scale, in every lane.
template <class P, class Term>
void broadcast_density(const double* q,
                       typename P::V (&out)[Term::kSrcDim]) {
  for (int c = 0; c < Term::kSrcDim; ++c)
    out[c] = P::set1(Term::kDensityScale * q[c]);
}

/// The one-way loop: all sources stream in index order over each group
/// of W targets, each lane accumulating its own target.
template <class P, class Term>
void direct_t(const Term& term, const double* trg, std::size_t nt,
              const double* src, std::size_t ns, const double* q,
              double* f) {
  using V = typename P::V;
  constexpr int TD = Term::kTrgDim, SD = Term::kSrcDim;
  for (std::size_t t0 = 0; t0 < nt; t0 += P::kWidth) {
    const TargetGroup<P> tg = load_targets<P>(trg, t0, nt);
    V acc[TD];
    for (int c = 0; c < TD; ++c) acc[c] = P::zero();
    for (std::size_t s = 0; s < ns; ++s) {
      V qs[SD];
      broadcast_density<P, Term>(q + SD * s, qs);
      term.add(term.pair(tg, src + 3 * s), qs, acc);
    }
    for (int c = 0; c < TD; ++c)
      store_lanes_acc<P>(f, t0, TD, c, acc[c], tg.lanes);
  }
}

// ---------------------------------------------------------------------------
// Mutual direct tiles (Ops::*_mutual), for the even kernels. A's points
// sit in lanes and accumulate in registers exactly as in direct_t; B's
// points are broadcast. Each B point keeps D partial vectors in
// per-thread scratch, loaded, updated and stored once per A group, and
// after A's last group each partial's lanes are summed in ascending
// order into fb. A's dead tail lanes stage zero density, so they add
// exact zeros to B.
// ---------------------------------------------------------------------------

/// A group's densities in lanes, times scale; zero in dead lanes.
template <class P, int D>
void load_density_lanes(const double* q, std::size_t t0, std::size_t lanes,
                        double scale, typename P::V (&out)[D]) {
  constexpr std::size_t W = P::kWidth;
  double buf[D][W];
  for (int c = 0; c < D; ++c)
    for (std::size_t l = 0; l < W; ++l)
      buf[c][l] = l < lanes ? scale * q[(t0 + l) * D + c] : 0.0;
  for (int c = 0; c < D; ++c) out[c] = P::loadu(buf[c]);
}

template <class P, class Term>
void mutual_t(const Term& term, const double* a, std::size_t na,
              const double* qa, double* fa, const double* b, std::size_t nb,
              const double* qb, double* fb) {
  using V = typename P::V;
  constexpr std::size_t W = P::kWidth;
  constexpr int D = Term::kSrcDim;
  static_assert(Term::kTrgDim == D, "a mutual tile needs a square kernel");
  double* part = detail::mutual_scratch(nb * D * W);
  for (std::size_t k = 0; k < nb * D; ++k) P::storeu(part + k * W, P::zero());
  for (std::size_t t0 = 0; t0 < na; t0 += W) {
    const TargetGroup<P> ag = load_targets<P>(a, t0, na);
    V q[D], acc[D];
    load_density_lanes<P, D>(qa, t0, ag.lanes, Term::kDensityScale, q);
    for (int c = 0; c < D; ++c) acc[c] = P::zero();
    for (std::size_t s = 0; s < nb; ++s) {
      double* ps = part + s * D * W;
      V qs[D], pb[D];
      broadcast_density<P, Term>(qb + D * s, qs);
#pragma GCC unroll 3
      for (int c = 0; c < D; ++c) pb[c] = P::loadu(ps + c * W);
      const typename Term::Pair p = term.pair(ag, b + 3 * s);
      term.add(p, qs, acc);
      term.add(p, q, pb);
#pragma GCC unroll 3
      for (int c = 0; c < D; ++c) P::storeu(ps + c * W, pb[c]);
    }
    for (int c = 0; c < D; ++c)
      store_lanes_acc<P>(fa, t0, D, c, acc[c], ag.lanes);
  }
  for (std::size_t k = 0; k < nb * D; ++k) {
    const double* pk = part + k * W;
    double sum = pk[0];
    for (std::size_t l = 1; l < W; ++l) sum += pk[l];
    fb[k] += sum;
  }
}

template <class P>
void direct_laplace_t(const double* trg, std::size_t nt, const double* src,
                      std::size_t ns, const double* q, double* f) {
  direct_t<P>(LaplaceTerm<P>{}, trg, nt, src, ns, q, f);
}

template <class P>
void direct_laplace_grad_t(const double* trg, std::size_t nt,
                           const double* src, std::size_t ns, const double* q,
                           double* f) {
  direct_t<P>(LaplaceGradTerm<P>{}, trg, nt, src, ns, q, f);
}

template <class P>
void direct_stokes_t(const double* trg, std::size_t nt, const double* src,
                     std::size_t ns, const double* q, double* f) {
  direct_t<P>(StokesTerm<P>{}, trg, nt, src, ns, q, f);
}

template <class P>
void direct_stokes_reg_t(const double* trg, std::size_t nt, const double* src,
                         std::size_t ns, const double* q, double* f,
                         double eps2) {
  direct_t<P>(StokesRegTerm<P>{eps2}, trg, nt, src, ns, q, f);
}

template <class P>
void mutual_laplace_t(const double* a, std::size_t na, const double* qa,
                      double* fa, const double* b, std::size_t nb,
                      const double* qb, double* fb) {
  mutual_t<P>(LaplaceTerm<P>{}, a, na, qa, fa, b, nb, qb, fb);
}

template <class P>
void mutual_stokes_t(const double* a, std::size_t na, const double* qa,
                     double* fa, const double* b, std::size_t nb,
                     const double* qb, double* fb) {
  mutual_t<P>(StokesTerm<P>{}, a, na, qa, fa, b, nb, qb, fb);
}

template <class P>
Ops make_ops(Tier tier, const char* name) {
  Ops t;
  t.tier = tier;
  t.name = name;
  t.width = P::kWidth;
  t.axpyn = &axpyn_t<P>;
  t.gemm_rows = &gemm_rows_t<P>;
  t.cmac = &cmac_t<P>;
  t.cmac_entries = &cmac_entries_t<P>;
  t.vli_mac_block = &vli_mac_block_t<P>;
  t.dft_x = &dft_x_t<P>;
  t.dft_yz = &dft_yz_t<P>;
  t.laplace = &direct_laplace_t<P>;
  t.laplace_grad = &direct_laplace_grad_t<P>;
  t.stokes = &direct_stokes_t<P>;
  t.stokes_reg = &direct_stokes_reg_t<P>;
  t.laplace_mutual = &mutual_laplace_t<P>;
  t.stokes_mutual = &mutual_stokes_t<P>;
  return t;
}

}  // namespace pkifmm::simd::impl
