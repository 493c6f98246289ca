#pragma once
/// \file health.hpp
/// \brief Runtime numerical-health primitives: sampling, digests,
/// sentinels, fault injection, and drift tracking.
///
/// The performance stack (spans, hw counters, flows) says nothing about
/// whether the answers are still *right*. This header supplies the
/// building blocks the health layer (FmmOptions::health) composes into
/// four online signal families, all recorded as plain Recorder counters
/// so the existing summary/trend pipeline aggregates them for free:
///
///  1. **Accuracy sampling** — `health_sampled` deterministically picks
///     a (seed, step)-derived subset of target gids; the picked targets
///     are re-evaluated against all sources via Kernel::direct, the
///     same dispatched kernel the U-list uses, and compared to the FMM
///     potentials. The sample measures the FMM against that kernel;
///     the kernel's own accuracy is bounded by the SimdTest cross-tier
///     tests, not by the sample. The counters
///     `health.sample.{count,err2,ref2}` sum cleanly across ranks, so
///     the summary-level sampled relative error is the exact L2-norm
///     ratio sqrt(Σerr2 / Σref2) over the whole sample.
///  2. **Invariant sentinels** — `nonfinite_count` scans buffers for
///     NaN/Inf at phase boundaries; the moment check (Evaluator) tests
///     the physical invariant that a box's total equivalent "charge"
///     matches its sources for kernels with a 1/r monopole term.
///  3. **State digests** — `ChunkDigest` builds order-independent
///     digests of per-node chunks (equivalent densities, potentials,
///     ghost buffers): each chunk hashes its elements order-dependently
///     (bit-exact layout check), then the per-chunk hashes are *summed*
///     as counters, making the whole digest independent of node
///     iteration order, thread count, and rank partition. A chunk
///     contributes its top 32 hash bits as a double, so counter sums
///     stay exact (doubles hold 53-bit integers) up to ~2^21 chunks.
///  4. **Drift** — `DriftMonitor` baselines the per-step sampled error
///     over a short warmup and flags steps whose error exceeds
///     `ratio ×` that baseline (catching incremental-repair divergence
///     in production rather than in the parity suite).
///
/// Everything here is allocation-free past construction and cheap
/// enough to sit on phase boundaries; the *sampling* cost is governed
/// by FmmOptions::health_sample_rate.
///
/// Fault injection (`PKIFMM_INJECT_CORRUPTION=<phase>:<rank>:<bit|nan>`)
/// flips one bit (or NaN-poisons) the first instrumented chunk of a
/// chosen phase on a chosen rank, proving each sentinel/digest detects
/// the corruption class it claims to. Debug/test facility only; the
/// env var is read once per process.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "util/rng.hpp"

namespace pkifmm::obs {

// ------------------------------------------------------------ hashing

/// Seed of the accuracy sample: ParallelFmm passes it to
/// health_sampled.
inline constexpr std::uint64_t kHealthSeed = 0x5eed;

/// Deterministic membership test for the accuracy sample: true iff
/// target `gid` is sampled at `rate` for this (seed, step). Depends
/// only on (gid, seed, step) — never on rank count, thread count, or
/// iteration order — so the sample set is reproducible across any
/// execution configuration. rate >= 1 samples everything; rate <= 0
/// nothing.
inline bool health_sampled(std::int64_t gid, std::uint64_t seed,
                           std::uint64_t step, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  const std::uint64_t h =
      splitmix64(static_cast<std::uint64_t>(gid) ^
                 splitmix64(seed ^ (step * kSplitMix64Gamma)));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < rate;
}

/// Incremental order-dependent hash of a sequence of doubles (one
/// chunk). finish() returns the chunk's 32-bit contribution as a
/// double, suitable for summing into an order-independent counter
/// digest (see file comment). -0.0 is canonicalized to +0.0 so digests
/// don't distinguish signed zeros that compare equal.
class ChunkDigest {
 public:
  explicit ChunkDigest(std::uint64_t seed = 0)
      : h_(0x243f6a8885a308d3ULL ^ splitmix64(seed)) {}

  void add(double v) {
    std::uint64_t bits;
    if (v == 0.0) v = 0.0;  // collapse -0.0
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    h_ = (h_ ^ bits) * 0x100000001b3ULL;
  }

  /// Finalized 32-bit chunk value in [0, 2^32), as a double.
  double finish() const {
    return static_cast<double>(splitmix64(h_) >> 32);
  }

 private:
  std::uint64_t h_;
};

/// One-shot ChunkDigest over a contiguous span.
inline double chunk_digest(std::span<const double> v, std::uint64_t seed) {
  ChunkDigest d(seed);
  for (double x : v) d.add(x);
  return d.finish();
}

/// Order-dependent digest of a raw byte payload (comm-transit
/// integrity): same 32-bits-as-double convention as ChunkDigest so
/// per-message digests fold into summable counters.
double bytes_digest(const void* data, std::size_t n);

/// Number of non-finite (NaN or Inf) elements in `v`.
std::size_t nonfinite_count(std::span<const double> v);

// ---------------------------------------------------- fault injection

/// Which instrumented buffer an injection targets. Each phase maps to
/// exactly one detection surface:
///   kS2u    -> upward equivalent densities (digest.u + post-S2U scan)
///   kReduce -> reduced equivalent densities (digest.reduce + scan)
///   kD2t    -> final potentials (digest.pot + post-D2T scan)
///   kGhost  -> consumer-side ghost densities (ghost digest pair)
enum class InjectPhase : std::uint8_t { kNone, kS2u, kReduce, kD2t, kGhost };

/// A parsed PKIFMM_INJECT_CORRUPTION spec. `bit` in [0, 63] flips that
/// bit of the first element of the targeted chunk; `bit == -1` ("nan")
/// poisons it with a quiet NaN instead (bit flips on small magnitudes
/// produce huge-but-finite values, so NaN poisoning is the reliable
/// way to exercise the non-finite sentinels).
struct Injection {
  InjectPhase phase = InjectPhase::kNone;
  int rank = 0;
  int bit = -1;
};

/// Parses "<phase>:<rank>:<bit|nan>" with phase in
/// {s2u, reduce, d2t, ghost}. Returns nullopt on malformed input.
std::optional<Injection> parse_injection(const std::string& spec);

/// Overrides the process-wide injection (tests). nullopt clears it.
/// Without an override, the PKIFMM_INJECT_CORRUPTION env var is parsed
/// once and used.
void set_injection(std::optional<Injection> inj);

/// If the active injection targets (phase, rank), corrupts element 0
/// of `chunk` accordingly and returns true. Callers count a hit via
/// the `health.injected` counter so clean-run tests can assert zero.
bool maybe_inject(InjectPhase phase, int rank, std::span<double> chunk);

// ------------------------------------------------------------- drift

/// core::TimeStepper's drift gate: a step whose sampled error exceeds
/// this many times the warmup baseline raises a warning.
inline constexpr double kDriftRatio = 10.0;

/// Per-step sampled-error trend watcher for core::TimeStepper. The
/// first `warmup` observed steps establish a baseline (their mean);
/// afterwards a step warns when its error exceeds
/// `ratio × max(baseline, floor)`. The floor keeps an exactly-zero
/// baseline (e.g. p high enough that sampled error underflows) from
/// flagging harmless noise.
class DriftMonitor {
 public:
  explicit DriftMonitor(double ratio = kDriftRatio, int warmup = 2,
                        double floor = 1e-14)
      : ratio_(ratio), warmup_(warmup), floor_(floor) {}

  /// Feeds one step's sampled relative error; returns true iff this
  /// step should raise a drift warning.
  bool observe(double err) {
    if (seen_ < warmup_) {
      sum_ += err;
      ++seen_;
      baseline_ = sum_ / static_cast<double>(seen_);
      return false;
    }
    return err > ratio_ * (baseline_ > floor_ ? baseline_ : floor_);
  }

  double baseline() const { return baseline_; }
  int seen() const { return seen_; }

 private:
  double ratio_;
  int warmup_;
  double floor_;
  double sum_ = 0.0;
  double baseline_ = 0.0;
  int seen_ = 0;
};

}  // namespace pkifmm::obs
