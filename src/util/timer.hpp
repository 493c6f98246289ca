#pragma once
/// \file timer.hpp
/// \brief Wall-clock timing and named phase accumulation.
///
/// The paper reports per-phase wall-clock times (Table II, Figs. 3-4).
/// PhaseTimer accumulates named intervals so the driver can report the
/// same breakdown (Upward, U-list, V-list, W-list, X-list, Downward,
/// Comm, ...).
///
/// PhaseTimer keeps no table of its own: every Scope is one obs span on
/// the rank's Recorder, and its close adds the span's wall and CPU
/// seconds to the recorder's `time.<phase>.wall` / `time.<phase>.cpu`
/// counters. Trace and table come from one measurement and one store.

#include <chrono>
#include <string>

#include "obs/metrics.hpp"

namespace pkifmm {

/// Monotonic wall-clock stopwatch, seconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU time in seconds (excludes time blocked on condition
/// variables). With simulated ranks sharing physical cores, this — not
/// wall time — measures the work a rank actually performed, and is what
/// the benches combine with the interconnect model to produce per-rank
/// "cluster" times.
double thread_cpu_seconds();

/// Named wall and thread-CPU phases of one rank, stored in the rank's
/// obs::Recorder. Not thread-safe: each simulated rank owns its own.
class PhaseTimer {
 public:
  explicit PhaseTimer(obs::Recorder& rec) : rec_(rec) {}

  /// RAII scope: one obs span, whose wall and CPU seconds are added to
  /// the phase's counters when it closes.
  class Scope {
   public:
    Scope(obs::Recorder& rec, std::string name)
        : rec_(rec), name_(std::move(name)), span_(rec, name_) {}
    ~Scope() {
      const auto d = span_.close();
      rec_.counter_add("time." + name_ + ".wall", d.wall);
      rec_.counter_add("time." + name_ + ".cpu", d.cpu);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    obs::Recorder& rec_;
    std::string name_;
    obs::Recorder::Span span_;
  };

  Scope scope(std::string name) { return Scope(rec_, std::move(name)); }

  /// Accumulated wall seconds of a phase (0 if it never ran).
  double get(const std::string& name) const {
    return rec_.counter("time." + name + ".wall");
  }

  /// Accumulated thread-CPU seconds of a phase (0 if it never ran).
  double get_cpu(const std::string& name) const {
    return rec_.counter("time." + name + ".cpu");
  }

 private:
  obs::Recorder& rec_;
};

}  // namespace pkifmm
