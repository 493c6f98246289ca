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
/// pointers. Hot callers (kernels::Kernel::direct, la::gemm_rows for
/// core::Evaluator's surface translations, fft::pointwise_mac_*,
/// fft::Fft3d's transforms, core::Evaluator's V-list MAC) fetch the
/// table via ops() and stay agnostic of the lane width.
/// Kernel::direct_mutual routes the U-list's pairs of owned leaves
/// through the *_mutual entries.
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
/// agree to 1e-12 relative with exactly equal model flop counts, and the
/// DFT stages (dft_x, dft_yz) are bitwise equal. The mutual direct
/// tiles' B side reduces per-lane partials in a fixed lane order, so it
/// keeps the within-tier contract and the 1e-12 bound. The scalar tier
/// reproduces the pre-SIMD code paths.

#include <cstddef>
#include <cstdint>
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

/// Frequencies per block of the sibling-blocked V-list MAC. One block of
/// one (slot, component) spectrum holds 8 real parts, then 8 imaginary
/// parts: 16 doubles, two AVX-512 vectors.
inline constexpr std::size_t kVliBlock = 8;
inline constexpr std::size_t kVliBlockDoubles = 2 * kVliBlock;

/// A target parent of the sibling-blocked V-list MAC: the accumulator
/// slot of each child and the parent's run of colleague entries.
struct VliParent {
  std::int32_t tgt[8];   ///< slot of child ci; -1 if it is no V-list target
  std::uint32_t c0, c1;  ///< colleague entries [c0, c1)
};

/// A colleague of a target parent: the source slot of each of its
/// children, the V-list pairs between the two parents' children, and
/// the colleague's direction from the parent.
struct VliColleague {
  std::int32_t src[8];  ///< slot of child cs; read only if a pair uses cs
  std::uint64_t pairs;  ///< bit 8 cs + ct set iff (ct, cs) is a V-list pair
  std::int32_t dir;     ///< row of the op_index table
};

/// One stage of fft::Fft3d's tensor-product DFTs: a small complex
/// matrix applied along one axis of a batch of lines. Complex arrays
/// are split: real parts at `*r`, imaginary parts at the same offsets
/// from `*i`. The twiddle of (a, b) is tr[a ts + b] + i ti[a ts + b].
/// Ops::dft_x and Ops::dft_yz say which fields they read.
struct DftStage {
  const double* tr = nullptr;
  const double* ti = nullptr;
  std::size_t ts = 0;
  std::size_t lines = 0;  ///< independent lines
  std::size_t n_in = 0;   ///< terms per output
  std::size_t n_out = 0;  ///< outputs per line
  std::size_t lanes = 0;  ///< dft_yz: values per row
  /// Input: term t of line l at x_line l + x_step t. dft_x takes a null
  /// xi as a real input.
  const double* xr = nullptr;
  const double* xi = nullptr;
  std::size_t x_line = 0, x_step = 0;
  /// Output: output o of line l at y_line l + y_step o. dft_x keeps only
  /// the real part when yi is null.
  double* yr = nullptr;
  double* yi = nullptr;
  std::size_t y_line = 0, y_step = 0;
};

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

  /// A rows x cols operator A applied in place to a batch of node rows,
  /// given as its transpose at (cols x rows, row-major): for j < n and
  /// i < rows, y[out[j] rows + i] += c, where c starts at +0 and runs,
  /// for k ascending, c = fmadd(alpha at[k rows + i],
  /// x[in[j] cols + k], c) — alpha times the entry rounded once, then
  /// one fused multiply-add on the vector tiers and a multiply and an
  /// add on the scalar tier, as in axpyn. An element's chain depends on
  /// nothing else in the call, so any split of a batch into windows
  /// gives the same bits. Rows out[j] are distinct within a call, and
  /// none is a row that x reads when x and y are one array.
  void (*gemm_rows)(const double* at, std::size_t rows, std::size_t cols,
                    double alpha, const double* x, const std::int32_t* in,
                    double* y, const std::int32_t* out, std::size_t n);

  /// Interleaved complex MAC: acc[i] += g[i] * f[i] for n complex
  /// values ([re, im] pairs of doubles).
  void (*cmac)(const double* g, const double* f, double* acc, std::size_t n);

  /// One operator chunk over an entry list: for e = 0, 1, ..., ne-1 in
  /// order, cmac(g, f + 2c fidx[e], acc + 2c aidx[e], c) — c complex
  /// values per chunk, fidx/aidx in chunk units. Every element receives
  /// exactly cmac's per-element update, so the result is bitwise that
  /// of the ne calls (entries may repeat an accumulator; later entries
  /// see earlier ones' sums). Vector tiers keep g's dup-even/dup-odd
  /// halves in registers across the entries.
  void (*cmac_entries)(const double* g, std::size_t c, const double* f,
                       double* acc, const std::int32_t* fidx,
                       const std::int32_t* aidx, std::size_t ne);

  /// One kVliBlock-frequency block of the sibling-blocked V-list MAC.
  /// Blocks are kVliBlockDoubles long: source slot s, component sc at
  /// s_blk + (s sd + sc) 16; target slot t, component ti at
  /// acc_blk + (t td + ti) 16; operator o, component ti sd + sc at
  /// g_blk + (o td sd + ti sd + sc) 16. For each parent, each of its
  /// colleague entries in order, each source child cs and each target
  /// child ct whose pair bit is set, with o = op_index[64 dir + 8 cs +
  /// ct], each accumulator element of A[ct][ti] runs, for sc ascending,
  ///   re += g_re s_re;  re -= g_im s_im;  im += g_re s_im;  im += g_im s_re
  /// (fused multiply-adds on the vector tiers). The children's
  /// accumulators start at zero and are stored once, after the parent's
  /// last colleague, into the slots tgt[ct] >= 0. Pairs whose bit is
  /// clear are never multiplied. sd is 1, 2 or 3.
  void (*vli_mac_block)(const double* g_blk, const std::int32_t* op_index,
                        const double* s_blk, double* acc_blk, int td, int sd,
                        const VliParent* parents, std::size_t np,
                        const VliColleague* colleagues);

  /// DFT stage with the output index in lanes (the x axis): for each
  /// line l and output j < n_out, y(l, j) = sum_{t < n_in} x(l, t)
  /// tw(t, j), with x(l, t) a broadcast scalar and y(l, j) at
  /// y_line l + j (y_step unused). Each element starts at zero and
  /// runs, for t ascending, re += xr tr; re -= xi ti; im += xr ti;
  /// im += xi tr, leaving out the xi terms when xi is null and the im
  /// chain when yi is null. Every step is one fused multiply-add (the
  /// scalar tier uses std::fma) and no lane reads another, so every tier
  /// gives the same bits.
  void (*dft_x)(const DftStage& st);

  /// DFT stage with the data in lanes (the y and z axes): for each line
  /// l, output o < n_out and lane k < lanes, y(l, o, k) = sum_{t < n_in}
  /// tw(o, t) x(l, t, k), with x(l, t, k) at x_line l + x_step t + k and
  /// y(l, o, k) at y_line l + y_step o + k. Each element starts at zero
  /// and runs, for t ascending, re += tr xr; re -= ti xi; im += tr xi;
  /// im += ti xr, one fused multiply-add each: bitwise equal in every
  /// tier. Only lanes [0, lanes) are read or written.
  void (*dft_yz)(const DftStage& st);

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

  /// Mutual tiles of laplace and stokes, both even, K(d) = K(-d): one
  /// pass over the na x nb pairs of point sets A and B (each point both
  /// a target and a source) adds K(x_a - y_b) q_b into fa and
  /// K(x_b - y_a) q_a into fb, computing r and 1/r once per pair. The
  /// A side runs the one-way kernel's code, so it is bitwise
  /// fa += laplace(a, b, qb). The B side gives each B point kWidth
  /// per-lane partials, one lane per A point of a group, accumulated
  /// over A's groups in order and reduced in ascending lane order
  /// before the one add into fb; it agrees with the one-way kernel to
  /// rounding (bitwise on the scalar tier). fa and fb must not overlap.
  void (*laplace_mutual)(const double* a, std::size_t na, const double* qa,
                         double* fa, const double* b, std::size_t nb,
                         const double* qb, double* fb);
  void (*stokes_mutual)(const double* a, std::size_t na, const double* qa,
                        double* fa, const double* b, std::size_t nb,
                        const double* qb, double* fb);
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
/// The scalar tier's DFT stages built with -mfma (tier_scalar_fma.cpp,
/// x86 only); scalar_ops() takes them when CPUID reports FMA.
void scalar_fma_dft_x(const DftStage& st);
void scalar_fma_dft_yz(const DftStage& st);
/// The calling thread's scratch for the mutual tiles' lane partials:
/// at least n doubles, contents unspecified, valid until the thread's
/// next call. Defined in simd.cpp, which is built for the baseline ISA,
/// so the tier TUs instantiate no standard-library template.
double* mutual_scratch(std::size_t n);
}  // namespace detail

}  // namespace pkifmm::simd
