#pragma once
/// \file timestep.hpp
/// \brief Velocity-integration time-stepping driver over ParallelFmm.
///
/// The paper's target applications advance particles through a flow
/// field and call the FMM every step on the slowly changing set. This
/// driver owns that loop: each step() forward-Euler integrates a
/// user-supplied velocity field over a (deterministically chosen)
/// subset of the owned points, wraps the positions back into the unit
/// cube, and hands the moves to ParallelFmm::update_points — so the
/// per-step setup cost tracks the churn, not N (bench/timestep times
/// each step against a from-scratch setup() of the same points).
///
///   core::TimeStepper ts(fmm, [](std::uint64_t, const auto& x, double) {
///     return std::array<double, 3>{-x[1] + 0.5, x[0] - 0.5, 0.0};
///   });
///   for (int s = 0; s < steps; ++s) {
///     ts.step();                 // move points, repair tree + LET
///     auto result = fmm.evaluate();
///   }

#include <array>
#include <cstdint>
#include <functional>

#include "core/fmm.hpp"
#include "obs/health.hpp"

namespace pkifmm::core {

/// Particle velocity at (position, time). Must be a pure function of
/// its arguments (rank-independent) so every rank integrates the same
/// trajectory for a given particle regardless of which rank owns it.
using VelocityFn = std::function<std::array<double, 3>(
    std::uint64_t gid, const std::array<double, 3>& pos, double t)>;

struct TimeStepOptions {
  double dt = 1e-2;
  /// Fraction of points advanced per step — the churn knob of the
  /// amortization bench. Points are selected by a deterministic hash
  /// of (gid, step index), so the moving subset varies step to step
  /// but is identical for any rank count and any ownership. 1 moves
  /// everything.
  double move_fraction = 1.0;
};

class TimeStepper {
 public:
  TimeStepper(ParallelFmm& fmm, VelocityFn velocity,
              TimeStepOptions opts = {});

  /// Advances one step: for each selected owned point,
  /// x <- wrap(x + dt * velocity(gid, x, t)), then a collective
  /// ParallelFmm::update_points with this rank's moves. Returns how
  /// many points this rank moved.
  ///
  /// With FmmOptions::health and a positive sample rate, each step()
  /// first folds the sampled error accumulated by the evaluate()s
  /// since the previous step into the drift monitor: the per-interval
  /// error sqrt(Δerr2 / Δref2) is baselined over a short warmup, and
  /// an interval exceeding obs::kDriftRatio × baseline raises a
  /// `health.drift.warnings` count (`health.drift.steps` observed
  /// intervals, `health.drift.err_max` worst interval error) — the
  /// online tripwire for incremental-repair divergence.
  std::size_t step();

  double time() const { return t_; }
  std::uint64_t steps_taken() const { return steps_; }

 private:
  /// Diffs ParallelFmm::sample_totals() against the previous step's
  /// values and feeds the interval error to drift_. The totals are
  /// identical on every rank, so the warning decision is collectively
  /// consistent.
  void health_drift_check();

  ParallelFmm& fmm_;
  VelocityFn velocity_;
  TimeStepOptions opts_;
  double t_ = 0.0;
  std::uint64_t steps_ = 0;
  obs::DriftMonitor drift_;
  ParallelFmm::SampleTotals prev_;
};

}  // namespace pkifmm::core
