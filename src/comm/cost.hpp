#pragma once
/// \file cost.hpp
/// \brief Communication accounting and the interconnect cost model.
///
/// The physical interconnect (Kraken's SeaStar torus / Lincoln's IB) is
/// unavailable, so the runtime records every message exactly (count and
/// bytes, keyed by a caller-set phase label) and a latency/bandwidth
/// model converts those counts into modeled seconds:
///     t(msg) = t_s + bytes * t_w
/// which is the same alpha-beta model the paper uses to analyze
/// Algorithm 3 ("t_s and t_w are the latency and bandwidth constants").

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "obs/metrics.hpp"

namespace pkifmm::comm {

/// Per-phase message/byte accounting for one rank, written straight
/// into the rank's obs::Recorder as each message and collective
/// happens; the tracker itself holds only the current phase and hot-
/// path handles into the recorder. Counters (names in obs/export.hpp):
///  - `comm.<phase>.{msgs,bytes}_{sent,recv}`: sends are charged to
///    the sender; receives are tracked separately (to audit volume
///    symmetry) but not double-charged by the default model. A
///    phase's four counters appear together on its first send or
///    receive.
///  - `commx.<phase>.dst<k>.{msgs,bytes}`: the sends to rank k — the
///    (src, dst, phase) attribution behind the cross-rank traffic
///    matrix obs::summarize_metrics assembles; per phase, the row sums
///    equal the `comm.<phase>.*_sent` counters by construction.
///  - `coll.<name>.{calls,rounds,msgs,bytes}` from collective() scopes:
///    the accounting behind the paper's hypercube reduce-scatter claim
///    (Algorithm 3's O(log p) rounds vs the owner scheme's O(p)
///    messages).
///  - `health.comm.payload_{sent,recv}` once payload digests are on.
/// Every send also feeds the span tracer (Recorder::add_sent, so spans
/// carry msgs/bytes deltas) and a per-phase message-size histogram
/// ("comm.msg_bytes.<phase>").
class CostTracker {
 public:
  explicit CostTracker(obs::Recorder& rec) : rec_(rec) {
    set_phase("default");
  }

  obs::Recorder& recorder() const { return rec_; }

  /// Switches the phase later messages are charged to, in the
  /// counters and in the flow ring when it is on.
  void set_phase(std::string phase);
  const std::string& phase() const { return phase_; }

  /// Turns on the recorder's flow ring (obs::Recorder::enable_flow,
  /// obs/flow.hpp) and points it at the current phase. Idempotent; it
  /// stays on for the rest of the rank run. While it is on, Comm
  /// reports every point-to-point message and probe into it.
  void enable_flow(std::size_t capacity);

  /// Payload-transit digests (health layer, obs/health.hpp): from the
  /// first call on, every point-to-point payload is hashed at send and
  /// at receive into `health.comm.payload_sent` / `_recv` (both
  /// created here, so they exist even with no traffic). Idempotent; it
  /// stays on for the rest of the rank run. Messages are matched within
  /// the run, so globally Σ sent digests == Σ recv digests across ranks
  /// — any mismatch means bytes changed in transit (or a payload was
  /// injected/corrupted between enqueue and dequeue).
  void enable_payload_digests();
  bool payload_digests_enabled() const { return payload_sent_ != nullptr; }

  /// Charges one message to the current phase (and, on send, to
  /// destination `dest`).
  void on_send(int dest, std::span<const std::byte> payload);
  void on_recv(std::span<const std::byte> payload);

  struct Counters {
    std::uint64_t msgs_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t msgs_recv = 0;
    std::uint64_t bytes_recv = 0;
  };

  /// RAII scope a collective opens around its message exchange; on
  /// close, the sends that happened inside (the recorder's add_sent
  /// totals) are charged to `coll.<name>.*`. Nested scopes (e.g. an
  /// owner-reduce built on alltoallv) attribute the same sends to every
  /// open collective, by design.
  class CollectiveScope {
   public:
    CollectiveScope(obs::Recorder& rec, std::string name,
                    std::uint64_t rounds)
        : rec_(rec), name_(std::move(name)), rounds_(rounds),
          msgs0_(rec.msgs_total()), bytes0_(rec.bytes_total()) {}
    ~CollectiveScope();
    CollectiveScope(const CollectiveScope&) = delete;
    CollectiveScope& operator=(const CollectiveScope&) = delete;

   private:
    obs::Recorder& rec_;
    std::string name_;
    std::uint64_t rounds_;
    std::uint64_t msgs0_, bytes0_;
  };

  CollectiveScope collective(std::string name, std::uint64_t rounds) {
    return CollectiveScope(rec_, std::move(name), rounds);
  }

  /// Reads `comm.<phase>.*` back from the recorder (zeros for a phase
  /// without traffic).
  Counters get(const std::string& phase) const;

  /// Every phase with traffic so far, read back like get().
  std::map<std::string, Counters> phases() const;

 private:
  /// The current phase's `comm.<phase>.*` counters, created together
  /// on first use after set_phase().
  struct PhaseSlots {
    double* msgs_sent = nullptr;
    double* bytes_sent = nullptr;
    double* msgs_recv = nullptr;
    double* bytes_recv = nullptr;
  };
  PhaseSlots& slots();

  obs::Recorder& rec_;
  std::string phase_;
  PhaseSlots slots_;
  obs::Histogram* msg_hist_ = nullptr;
  double* payload_sent_ = nullptr;  ///< non-null iff digests are on
  double* payload_recv_ = nullptr;
};

/// Alpha-beta interconnect model plus a sustained per-core compute rate.
/// Defaults are calibrated to the paper's platform class: the paper
/// reports ~500 MFlop/s sustained per CPU core on the evaluation phase;
/// t_s = 5 us and 2 GB/s per-link bandwidth are typical for the Cray
/// XT5 generation.
struct CostModel {
  double latency_s = 5e-6;         ///< t_s
  double inv_bandwidth_s = 0.5e-9; ///< t_w, seconds per byte (2 GB/s)
  double cpu_flops = 500e6;        ///< sustained flops/s per core

  /// Modeled communication time for a message set.
  double comm_time(std::uint64_t msgs, std::uint64_t bytes) const {
    return static_cast<double>(msgs) * latency_s +
           static_cast<double>(bytes) * inv_bandwidth_s;
  }

  double comm_time(const CostTracker::Counters& c) const {
    return comm_time(c.msgs_sent, c.bytes_sent);
  }

  /// Modeled compute time for a flop count at the CPU rate.
  double compute_time(std::uint64_t flops) const {
    return static_cast<double>(flops) / cpu_flops;
  }
};

}  // namespace pkifmm::comm
