/// \file tier_scalar.cpp
/// \brief Scalar (W = 1) tier — the portable fallback and parity
/// reference. Compiled with the project's default flags only, so on a
/// baseline x86-64 (or non-x86) build this tier reproduces the
/// pre-SIMD arithmetic bitwise. On hosts with FMA its two DFT stages
/// come from tier_scalar_fma.cpp, with the same bits.

#include "simd/ops_impl.hpp"

namespace pkifmm::simd::detail {

const Ops& scalar_ops() {
  static const Ops table = [] {
    Ops t = impl::make_ops<ScalarPack>(Tier::kScalar, "scalar");
#ifdef PKIFMM_SIMD_HAVE_SCALAR_FMA_TU
    // The same stages with std::fma inline instead of a libm call.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("fma")) {
      t.dft_x = &scalar_fma_dft_x;
      t.dft_yz = &scalar_fma_dft_yz;
    }
#endif
    return t;
  }();
  return table;
}

}  // namespace pkifmm::simd::detail
