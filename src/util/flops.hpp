#pragma once
/// \file flops.hpp
/// \brief Per-phase floating-point-operation accounting.
///
/// The paper's Table II and Fig. 5 report flops per phase and per
/// process. Rather than sampling hardware counters (unavailable in the
/// simulated setting), every compute routine in pkifmm reports its
/// arithmetic work analytically to the rank-local FlopCounter; the model
/// constants per kernel interaction live in kernels/kernel.hpp.

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace pkifmm {

/// Rank-local flop accounting keyed by phase name, stored in the rank's
/// obs::Recorder as the `flops.<phase>` counters. Each report is also
/// attributed to the currently open spans, which is how the trace gets
/// per-stage flops. Not thread-safe: one instance per simulated rank.
/// The double counters stay exact integers while a phase's sum on one
/// rank is below 2^53 (about 9e15 flops).
class FlopCounter {
 public:
  explicit FlopCounter(obs::Recorder& rec) : rec_(rec) {}

  void add(const std::string& phase, std::uint64_t flops) {
    rec_.counter_add("flops." + phase, static_cast<double>(flops));
    rec_.add_flops(flops);
  }

  /// Flops reported for a phase so far (0 if none).
  double get(const std::string& phase) const {
    return rec_.counter("flops." + phase);
  }

 private:
  obs::Recorder& rec_;
};

}  // namespace pkifmm
