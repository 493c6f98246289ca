#pragma once
/// \file rng.hpp
/// \brief Deterministic, fast pseudo-random number generation.
///
/// All pkifmm experiments must be reproducible bit-for-bit across runs,
/// so we use an explicit xoshiro256++ generator seeded from a SplitMix64
/// stream rather than std::random_device. Each simulated rank derives an
/// independent stream from (seed, rank).

#include <cstdint>

namespace pkifmm {

/// The SplitMix64 stream's increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64: one increment plus the SplitMix64 finalizer — a cheap,
/// high-quality 64-bit mix. The project's one hash of a single word
/// (SplitMix64, the health layer's sample and digests, TimeStepper's
/// moving subset).
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// SplitMix64 — used only to expand a user seed into generator state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    const std::uint64_t x = state_;
    state_ += kSplitMix64Gamma;
    return splitmix64(x);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ 1.0 (Blackman & Vigna), public-domain algorithm.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  /// Independent stream for a given rank. Both words go through a full
  /// SplitMix64 avalanche before the state expansion: the previous
  /// `seed ^ (c * (rank+1))` derivation was linear in (seed, rank), so
  /// distinct pairs could collide or leave correlated state; after
  /// mixing, a collision requires a generic 2^-64 hash collision.
  Rng(std::uint64_t seed, int rank) : Rng(mix_seed_rank(seed, rank)) {}

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n).
  std::uint64_t uniform_u64(std::uint64_t n) {
    // Lemire's unbiased bounded generation.
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

 private:
  static std::uint64_t mix_seed_rank(std::uint64_t seed, int rank) {
    SplitMix64 first(seed);
    SplitMix64 second(first.next() + static_cast<std::uint64_t>(rank));
    return second.next();
  }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace pkifmm
