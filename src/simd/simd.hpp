#pragma once
/// \file simd.hpp
/// \brief Runtime-dispatched SIMD tiers for the per-element hot kernels.
///
/// The paper's per-node throughput comes from vector units (SSE
/// streaming of the direct and translation kernels, §4). This layer
/// reproduces that on modern x86: three tiers — scalar (portable
/// reference), AVX2+FMA (4 double lanes), AVX-512 (8 lanes) — each
/// compiled in its own translation unit with its own -m flags, selected
/// ONCE at runtime from CPUID and exposed as a table of function
/// pointers. Hot callers (kernels::Kernel::direct, la::gemm_acc_cols,
/// fft::pointwise_mac_*) fetch the table via
/// ops() and stay agnostic of the lane width.
///
/// Tier selection:
///  - detect_tier() returns the best tier that is BOTH compiled into
///    this binary and supported by the running CPU/OS.
///  - The PKIFMM_SIMD environment variable ("scalar" | "avx2" |
///    "avx512") caps the tier from above: requesting a LOWER tier than
///    detected forces it (the CI forced-tier parity matrix), requesting
///    an unsupported higher tier falls back to the detected one with a
///    warning on stderr — the override can therefore never SIGILL.
///    Unrecognized values throw CheckFailure (fail loud, not silent).
///  - force_tier()/clear_forced_tier() are the in-process equivalents
///    for tests (they bypass the environment but still require the
///    tier to be supported).
///
/// Numerical contract (DESIGN.md "Runtime-dispatched SIMD hot
/// kernels"): within one tier, results are bitwise deterministic for
/// any thread count and any caller window split; across tiers, results
/// agree to 1e-12 relative with exactly equal model flop counts. The
/// scalar tier reproduces the pre-SIMD code paths.

#include <cstddef>
#include <string>
#include <vector>

namespace pkifmm::simd {

enum class Tier : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

/// Max k-term block accepted by Ops::axpyn.
inline constexpr std::size_t kAxpynMaxK = 4;

/// One tier's dispatch table. All pointers are always non-null.
struct Ops {
  Tier tier;
  const char* name;   ///< "scalar" | "avx2" | "avx512"
  std::size_t width;  ///< double lanes per vector (1, 4, 8)

  /// y[j] += sum_{r < nk} a[r] * x[r][j] for j in [0, n), nk in
  /// [1, kAxpynMaxK]. The k terms fold in ascending r with one fused
  /// multiply-add each — identical association to nk successive
  /// single-row passes, so callers may block k freely.
  void (*axpyn)(const double* a, const double* const* xs, std::size_t nk,
                double* y, std::size_t n);

  /// Interleaved complex MAC: acc[i] += g[i] * f[i] for n complex
  /// values ([re, im] pairs of doubles).
  void (*cmac)(const double* g, const double* f, double* acc, std::size_t n);

  /// One radix-2 butterfly block over `half` interleaved complex
  /// values: v = b[j] * (tw[j].re, sgn * tw[j].im); b[j] = u[j] - v;
  /// u[j] = u[j] + v. tw holds forward-sign twiddles; sgn = -1 applies
  /// the inverse transform's conjugation on the fly.
  void (*fft_bfly)(double* u, double* b, const double* tw, double sgn,
                   std::size_t half);

  /// Direct-summation kernels (xyz-interleaved points; f accumulated,
  /// target-major with the kernel's natural component stride).
  /// Coincident target/source pairs contribute zero (r2 == 0 lane
  /// mask), except stokes_reg which is smooth at r = 0.
  void (*laplace)(const double* trg, std::size_t nt, const double* src,
                  std::size_t ns, const double* q, double* f);
  void (*laplace_grad)(const double* trg, std::size_t nt, const double* src,
                       std::size_t ns, const double* q, double* f);
  void (*stokes)(const double* trg, std::size_t nt, const double* src,
                 std::size_t ns, const double* q, double* f);
  void (*stokes_reg)(const double* trg, std::size_t nt, const double* src,
                     std::size_t ns, const double* q, double* f, double eps2);
};

/// "scalar" | "avx2" | "avx512".
const char* tier_name(Tier t);

/// True if the tier's translation unit is compiled into this binary.
bool tier_compiled(Tier t);

/// True if tier_compiled AND the running CPU/OS support the ISA.
bool tier_supported(Tier t);

/// Best supported tier (ignores PKIFMM_SIMD).
Tier detect_tier();

/// All supported tiers, ascending (always contains kScalar).
std::vector<Tier> available_tiers();

/// Parses "scalar" | "avx2" | "avx512"; throws CheckFailure otherwise.
Tier parse_tier(const std::string& name);

/// The active tier's dispatch table. Resolved once on first use from
/// detect_tier() capped by PKIFMM_SIMD (see file comment); later calls
/// are a single atomic load.
const Ops& ops();

/// Tier of ops().
Tier active_tier();

/// Dispatch table for one specific tier (test/bench hook); throws
/// CheckFailure if the tier is not supported on this host.
const Ops& ops_for_tier(Tier t);

/// Pins ops() to a tier until clear_forced_tier(); throws CheckFailure
/// if unsupported. Test hook — not thread-safe against concurrent
/// first-use resolution, so call it before spawning workers.
void force_tier(Tier t);

/// Reverts force_tier; the next ops() re-resolves from CPUID + env.
void clear_forced_tier();

namespace detail {
const Ops& scalar_ops();
const Ops& avx2_ops();    ///< defined only when the AVX2 TU is built
const Ops& avx512_ops();  ///< defined only when the AVX-512 TU is built
}  // namespace detail

}  // namespace pkifmm::simd
