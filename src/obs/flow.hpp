#pragma once
/// \file flow.hpp
/// \brief Per-message flow tracing and wait-state attribution.
///
/// A blocked `Comm::recv` is invisible to the span tracer: the time is
/// charged to whatever phase span happens to be open, and nothing says
/// *which* message the rank was waiting for or *who* was late. The
/// FlowRecorder closes that gap. When enabled (FmmOptions::flow_trace /
/// `--flow-trace`), the rank's obs::Recorder owns one, and the comm
/// layer reports every point-to-point message into it — sends at
/// enqueue, receives with (block-begin, dequeue) timestamps and
/// whether the receive actually waited — as a preallocated ring.
/// Nothing on the hot path allocates; when the ring is full, new
/// events are dropped and counted (`flow.dropped`).
///
/// The recorded events become three things downstream:
///  - Chrome trace *flow events* (`"ph":"s"/"f"`) that draw send→recv
///    arrows across rank lanes in Perfetto (obs/export.hpp), plus
///    `wait.<phase>` slices for every blocked receive.
///  - First-class `wait.<phase>.*` counters (seconds / blocked / recvs
///    / max_seconds), accumulated per cost-tracker phase at record
///    time, so summaries can decompose phase wall time into compute,
///    communication wait, and residual pool idle.
///  - Matched send/recv pairs in obs::aggregate: the k-th send from
///    (src, dst, tag) pairs with the k-th receive — exact, because the
///    fabric delivers per-(src, dst, tag) in FIFO order — giving
///    per-pair latency percentiles, late-sender classification, and
///    the message edges of the cross-rank critical-path graph.
///
/// Sequence numbers are NOT assigned on the hot path (collective tags
/// are fresh per call, so a per-(peer, tag) counter map would allocate
/// per message). The ring keeps events in record order; seqs are
/// assigned by occurrence counting when the ring is folded out
/// (fold_into, which Recorder::snapshot calls), which is equivalent
/// and free at record time.
///
/// Lifetime: Recorder::enable_flow creates the ring on first use and
/// the recorder keeps it until the rank run ends, so every snapshot —
/// mid-run or the final comm::RankReport — folds the whole ring, and
/// nothing has to hand it over before the rank function returns.
///
/// FlowRecorder is NOT thread-safe, mirroring Recorder: each simulated
/// rank owns its own.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace pkifmm::obs {

/// Per-rank message-flow ring + wait accumulators. See file comment.
class FlowRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 15;

  /// `epoch` is the owning rank Recorder's epoch() so flow timestamps
  /// live on the same rank-relative timeline as span starts (and get
  /// re-absolutized through the same "obs.epoch" gauge downstream).
  /// `capacity` must be at least 1.
  explicit FlowRecorder(std::size_t capacity = kDefaultCapacity,
                        double epoch = 0.0);

  /// Seconds since the bound epoch (same clock as span timestamps).
  double now() const { return wall_seconds() - epoch_; }
  double epoch() const { return epoch_; }

  /// Switches the phase new events are attributed to. Cold path (called
  /// from CostTracker::set_phase, a handful of times per run): interning
  /// a new phase may allocate; re-setting a known one does not.
  void set_phase(const std::string& name);

  // --- hot path: no allocation past construction ---------------------
  /// A point-to-point send, stamped at call time (call before the
  /// fabric enqueue so latency = t_recv_dequeue - t_send stays >= 0).
  void on_send(int dest, int tag, std::int64_t bytes);
  /// A completed receive. `t_block_begin` is now() taken before the
  /// fabric call, `t_done` after it; `blocked` is whether the matching
  /// queue was empty on entry (the receive actually waited).
  void on_recv(int source, int tag, std::int64_t bytes,
               double t_block_begin, double t_done, bool blocked);
  /// A non-blocking probe (counted, not ringed).
  void on_probe() { ++probes_; }

  // --- introspection -------------------------------------------------
  std::size_t events() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t sends() const { return sends_; }
  std::uint64_t recvs() const { return recvs_; }
  std::uint64_t probes() const { return probes_; }

  /// Pure read: sets `m`'s flows (the ring, seqs assigned),
  /// flow_phases and `flow.*` / `wait.*` counters from this ring.
  void fold_into(RankMetrics& m) const;

 private:
  struct WaitAccum {
    double seconds = 0.0;      ///< total blocked time
    double max_seconds = 0.0;  ///< worst single wait
    std::uint64_t recvs = 0;   ///< all receives in this phase
    std::uint64_t blocked = 0; ///< receives that actually waited
  };

  /// Ring copy with per-(direction, peer, tag) seqs assigned.
  std::vector<FlowEvent> with_seq() const;

  double epoch_;
  std::int32_t cur_phase_ = 0;
  std::vector<std::string> phases_;  ///< interned phase names
  std::vector<WaitAccum> waits_;     ///< parallel to phases_
  std::vector<FlowEvent> ring_;      ///< capacity reserved up front
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::uint64_t probes_ = 0;
  std::uint64_t sends_ = 0;
  std::uint64_t recvs_ = 0;
};

}  // namespace pkifmm::obs
