/// \file tier_scalar_fma.cpp
/// \brief The scalar tier's DFT stages, compiled with -mfma. In a
/// baseline-ISA build std::fma is a libm call per multiply-add, which
/// makes the stages some 40x slower than the vector tiers; here each
/// step is one scalar FMA instruction with the same single rounding,
/// so the scalar tier's bits do not change. scalar_ops() takes these
/// stages only when CPUID reports FMA.

#include "simd/ops_impl.hpp"

#if !defined(__FMA__)
#error "tier_scalar_fma.cpp must be compiled with -mfma"
#endif

namespace pkifmm::simd::detail {

namespace {

/// ScalarPack's DFT-stage vocabulary. It lives in an unnamed namespace,
/// so nothing this TU emits under -mfma has a name another TU's
/// baseline-ISA copy could resolve to at link time.
struct FmaScalarPack {
  static constexpr std::size_t kWidth = 1;
  using V = double;
  using M = bool;

  static V zero() { return 0.0; }
  static V set1(double x) { return x; }
  /// __builtin_fma, not std::fma: -O0 expands only the builtin inline.
  static V fused_fmadd(V a, V b, V c) { return __builtin_fma(a, b, c); }
  static V fused_fnmadd(V a, V b, V c) { return __builtin_fma(-a, b, c); }
  static M tail_mask(std::size_t n) { return n == 0; }
  static V maskz_loadu(M none, const double* p) { return none ? 0.0 : *p; }
  static void mask_storeu(double* p, M none, V v) {
    if (!none) *p = v;
  }
};

}  // namespace

void scalar_fma_dft_x(const DftStage& st) {
  impl::dft_x_t<FmaScalarPack>(st);
}

void scalar_fma_dft_yz(const DftStage& st) {
  impl::dft_yz_t<FmaScalarPack>(st);
}

}  // namespace pkifmm::simd::detail
