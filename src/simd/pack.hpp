#pragma once
/// \file pack.hpp
/// \brief Fixed-width lane packs: the portable vocabulary the SIMD
/// kernels in ops_impl.hpp are written against.
///
/// A pack type exposes W double lanes (`V`), a lane mask (`M`), and the
/// handful of operations the hot kernels need: broadcast, unaligned
/// load/store, fused multiply-add (fmadd, which the scalar pack may
/// leave unfused, and fused_fmadd, which every pack rounds once), the
/// reciprocal square root rsqrt, equality masks, and MASKED load/store
/// for tails. rsqrt is the one operation whose arithmetic differs by
/// tier: the scalar and AVX2 packs divide 1 by sqrt(x), the AVX-512 pack
/// refines rsqrt14 with two Newton steps (see Avx512Pack::rsqrt). Three
/// implementations exist:
///
///  - ScalarPack (W = 1): plain doubles, compiled in every build; the
///    portable fallback and the reference tier for the parity tests.
///  - Avx2Pack (W = 4): __m256d + FMA3; only defined when the
///    translation unit is compiled with -mavx2 -mfma (tier_avx2.cpp).
///  - Avx512Pack (W = 8): __m512d with native lane masks; only defined
///    under -mavx512f -mavx512dq (tier_avx512.cpp).
///
/// Each tier's translation unit is the ONLY place its pack type is
/// instantiated, so no AVX code can leak into binaries running on
/// plainer hosts (dispatch in simd.cpp checks CPUID before ever
/// calling into a vector tier).
///
/// Determinism contract (see DESIGN.md "Runtime-dispatched SIMD"):
/// masked tail operations must perform bitwise the SAME per-lane
/// arithmetic as the full-width body, so results never depend on where
/// a caller's window boundary falls — that is what keeps the
/// column-window/chunk splits of the threaded evaluator bitwise
/// reproducible for any thread count within one tier.

#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace pkifmm::simd {

/// W = 1 reference pack. fmadd is written as a single expression so
/// the compiler may contract it on FMA-enabled builds; in the default
/// (baseline x86-64 / non-x86) build it is an ordinary mul + add,
/// which keeps the scalar tier bitwise identical to the pre-SIMD code.
struct ScalarPack {
  static constexpr std::size_t kWidth = 1;
  using V = double;
  using M = bool;

  static V zero() { return 0.0; }
  static V set1(double x) { return x; }
  static V loadu(const double* p) { return *p; }
  static void storeu(double* p, V v) { *p = v; }
  static V add(V a, V b) { return a + b; }
  static V sub(V a, V b) { return a - b; }
  static V mul(V a, V b) { return a * b; }
  /// 1 / sqrt(a), the pre-SIMD expression.
  static V rsqrt(V a) { return 1.0 / std::sqrt(a); }
  static V fmadd(V a, V b, V c) { return a * b + c; }
  /// c - a * b.
  static V fnmadd(V a, V b, V c) { return c - a * b; }
  /// a * b + c and c - a * b with one rounding in every build, for the
  /// kernels that must equal the vector tiers bit for bit (the DFT
  /// stages). The vector packs' fmadd and fnmadd already round once.
  static V fused_fmadd(V a, V b, V c) { return std::fma(a, b, c); }
  static V fused_fnmadd(V a, V b, V c) { return std::fma(-a, b, c); }
  /// Lanes where a == b (IEEE compare: -0 == +0, NaN != NaN).
  static M eq(V a, V b) { return a == b; }
  /// v where the mask is clear, 0.0 where it is set.
  static V zero_where(M m, V v) { return m ? 0.0 : v; }

  /// Mask with the first n (of kWidth) lanes active.
  static M tail_mask(std::size_t n) { return n == 0; }
  static V maskz_loadu(M none, const double* p) { return none ? 0.0 : *p; }
  static void mask_storeu(double* p, M none, V v) {
    if (!none) *p = v;
  }
};

#if defined(__AVX2__) && defined(__FMA__)
/// W = 4 AVX2+FMA3 pack. Masks are sign-bit vectors (VMASKMOVPD
/// semantics); tails use real masked loads/stores, not scalar loops.
struct Avx2Pack {
  static constexpr std::size_t kWidth = 4;
  using V = __m256d;
  using M = __m256d;  ///< all-ones lanes = active

  static V zero() { return _mm256_setzero_pd(); }
  static V set1(double x) { return _mm256_set1_pd(x); }
  static V loadu(const double* p) { return _mm256_loadu_pd(p); }
  static void storeu(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  /// 1 / sqrt(a) by division. AVX2 has no double-precision rsqrt; a
  /// float rsqrt estimate plus three double Newton steps lost to the
  /// divider on Stokes (DESIGN.md §5e).
  static V rsqrt(V a) {
    return _mm256_div_pd(_mm256_set1_pd(1.0), _mm256_sqrt_pd(a));
  }
  static V fmadd(V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); }
  /// c - a * b, single rounding.
  static V fnmadd(V a, V b, V c) { return _mm256_fnmadd_pd(a, b, c); }
  static V fused_fmadd(V a, V b, V c) { return fmadd(a, b, c); }
  static V fused_fnmadd(V a, V b, V c) { return fnmadd(a, b, c); }
  static M eq(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_EQ_OQ); }
  static V zero_where(M m, V v) { return _mm256_andnot_pd(m, v); }

  // Complex helpers over interleaved [re, im] pairs.
  static V swap_pairs(V v) { return _mm256_permute_pd(v, 0b0101); }
  static V dup_even(V v) { return _mm256_movedup_pd(v); }
  static V dup_odd(V v) { return _mm256_permute_pd(v, 0b1111); }
  /// Even lanes a*b - c, odd lanes a*b + c, single rounding each.
  static V fmaddsub(V a, V b, V c) { return _mm256_fmaddsub_pd(a, b, c); }

  static M tail_mask(std::size_t n) {
    // Lane l active iff l < n; built branch-free from a compare.
    const __m256d lane = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
    return _mm256_cmp_pd(lane, _mm256_set1_pd(static_cast<double>(n)),
                         _CMP_LT_OQ);
  }
  static V maskz_loadu(M m, const double* p) {
    return _mm256_maskload_pd(p, _mm256_castpd_si256(m));
  }
  static void mask_storeu(double* p, M m, V v) {
    _mm256_maskstore_pd(p, _mm256_castpd_si256(m), v);
  }
};
#endif  // __AVX2__ && __FMA__

#if defined(__AVX512F__) && defined(__AVX512DQ__)
/// W = 8 AVX-512 pack with native k-register masks.
struct Avx512Pack {
  static constexpr std::size_t kWidth = 8;
  using V = __m512d;
  using M = __mmask8;
  /// All lanes. rsqrt and the lane shuffles below use the maskz forms
  /// with this mask: GCC 12's unmasked forms pass
  /// _mm512_undefined_pd(), which -Wmaybe-uninitialized reports (GCC
  /// bug 105593), and the full mask compiles to the same unmasked
  /// instruction.
  static constexpr M kAll = 0xFF;

  static V zero() { return _mm512_setzero_pd(); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void storeu(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  /// 1 / sqrt(a) from the rsqrt14 estimate (relative error < 2^-14) and
  /// two Newton steps y += (y / 2) (1 - a y^2), the residual in one
  /// fnmadd: about 2^-27 after the first step, rounding level after the
  /// second. The residual is formed from a, not from a / 2, which
  /// underflows to 0 at the smallest subnormal. Lanes where a is +-0 or
  /// +inf keep the estimate, which is exact there (+-inf, 0) but which
  /// Newton would turn into NaN. NaN stays NaN.
  static V rsqrt(V a) {
    const V y0 = _mm512_maskz_rsqrt14_pd(kAll, a);
    const V one = _mm512_set1_pd(1.0);
    const V half = _mm512_set1_pd(0.5);
    V y = y0;
    for (int step = 0; step < 2; ++step) {
      const V e = _mm512_fnmadd_pd(_mm512_mul_pd(a, y), y, one);
      y = _mm512_fmadd_pd(_mm512_mul_pd(half, y), e, y);
    }
    // fpclass categories 0x02 | 0x04 | 0x08: +0, -0, +inf.
    return _mm512_mask_mov_pd(y, _mm512_fpclass_pd_mask(a, 0x0E), y0);
  }
  static V fmadd(V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); }
  static V fnmadd(V a, V b, V c) { return _mm512_fnmadd_pd(a, b, c); }
  static V fused_fmadd(V a, V b, V c) { return fmadd(a, b, c); }
  static V fused_fnmadd(V a, V b, V c) { return fnmadd(a, b, c); }
  static M eq(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_EQ_OQ); }
  static V zero_where(M m, V v) {
    return _mm512_maskz_mov_pd(static_cast<M>(~m), v);
  }

  static V swap_pairs(V v) { return _mm512_maskz_permute_pd(kAll, v, 0x55); }
  static V dup_even(V v) { return _mm512_maskz_movedup_pd(kAll, v); }
  static V dup_odd(V v) { return _mm512_maskz_permute_pd(kAll, v, 0xFF); }
  static V fmaddsub(V a, V b, V c) { return _mm512_fmaddsub_pd(a, b, c); }

  static M tail_mask(std::size_t n) {
    return static_cast<M>((1u << (n < kWidth ? n : kWidth)) - 1u);
  }
  static V maskz_loadu(M m, const double* p) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void mask_storeu(double* p, M m, V v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
};
#endif  // __AVX512F__ && __AVX512DQ__

}  // namespace pkifmm::simd
