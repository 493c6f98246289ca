#include "core/timestep.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace pkifmm::core {

namespace {

/// Periodic wrap into [0, 1). The fold can round to exactly 1.0 for
/// tiny negative inputs; map that back to 0 (the same cube corner).
double wrap01(double x) {
  x -= std::floor(x);
  if (!(x >= 0.0) || x >= 1.0) x = 0.0;
  return x;
}

}  // namespace

TimeStepper::TimeStepper(ParallelFmm& fmm, VelocityFn velocity,
                         TimeStepOptions opts)
    : fmm_(fmm), velocity_(std::move(velocity)), opts_(opts) {
  PKIFMM_CHECK(opts_.dt > 0.0);
  PKIFMM_CHECK(opts_.move_fraction >= 0.0 && opts_.move_fraction <= 1.0);
}

void TimeStepper::health_drift_check() {
  const FmmOptions& fopts = fmm_.tables().options();
  if (!fopts.health || fopts.health_sample_rate <= 0.0) return;
  // Cross-rank sample sums over every evaluate() so far (zero before
  // the first one — nothing to diff yet).
  const ParallelFmm::SampleTotals& s = fmm_.sample_totals();
  const double d_cnt = s.count - prev_.count;
  const double d_err2 = s.err2 - prev_.err2;
  const double d_ref2 = s.ref2 - prev_.ref2;
  prev_ = s;
  if (d_cnt <= 0.0 || d_ref2 <= 0.0) return;

  const double err = std::sqrt(std::max(d_err2, 0.0) / d_ref2);
  obs::Recorder& rec = fmm_.recorder();
  rec.counter_add("health.drift.steps");
  if (drift_.observe(err)) rec.counter_add("health.drift.warnings");
  rec.counter_add("health.drift.err_max",
                  std::max(0.0, err - rec.counter("health.drift.err_max")));
}

std::size_t TimeStepper::step() {
  health_drift_check();
  // Selection threshold on the 64-bit hash value: hash < frac * 2^64.
  const double frac = opts_.move_fraction;
  const std::uint64_t threshold =
      frac >= 1.0 ? ~0ULL
                  : static_cast<std::uint64_t>(
                        frac * 18446744073709551616.0 /* 2^64 */);

  std::vector<octree::PointMove> moves;
  const octree::Let& let = fmm_.let();
  for (const octree::LetNode& node : let.nodes) {
    if (!(node.owned && node.global_leaf)) continue;
    for (const octree::PointRec& pt : let.points_of(node)) {
      // Mixing (gid, step) through splitmix64 gives a per-step
      // pseudo-random subset every rank agrees on without messages.
      if (frac < 1.0 &&
          splitmix64(pt.gid ^ splitmix64(steps_ + 1)) >= threshold)
        continue;
      const std::array<double, 3> x{pt.pos[0], pt.pos[1], pt.pos[2]};
      const std::array<double, 3> v = velocity_(pt.gid, x, t_);
      octree::PointMove m;
      m.gid = pt.gid;
      for (int c = 0; c < 3; ++c)
        m.pos[c] = wrap01(x[c] + opts_.dt * v[c]);
      moves.push_back(m);
    }
  }

  fmm_.update_points(moves);
  t_ += opts_.dt;
  ++steps_;
  return moves.size();
}

}  // namespace pkifmm::core
