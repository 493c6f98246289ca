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

#include <cstdint>
#include <map>
#include <string>

#include "obs/flow.hpp"
#include "obs/metrics.hpp"

namespace pkifmm::comm {

/// Per-phase message/byte counters for one rank. Sends are charged to
/// the sender; receives are tracked separately (useful to audit volume
/// symmetry) but not double-charged by the default model.
///
/// With a bound obs::Recorder every send also feeds the span tracer
/// (so spans carry msgs/bytes deltas) and a per-phase message-size
/// histogram ("comm.msg_bytes.<phase>"). Collectives report their
/// calls/rounds/msgs/bytes through collective() scopes, which is the
/// accounting behind the paper's hypercube reduce-scatter claim
/// (Algorithm 3's O(log p) rounds vs the owner scheme's O(p) messages).
class CostTracker {
 public:
  void set_phase(std::string phase) {
    phase_ = std::move(phase);
    msg_hist_ = rec_ != nullptr
                    ? rec_->histogram("comm.msg_bytes." + phase_)
                    : nullptr;
    if (flow_ != nullptr) flow_->set_phase(phase_);
  }
  const std::string& phase() const { return phase_; }

  /// Binds the per-rank recorder for span/histogram reporting.
  void bind(obs::Recorder* rec) {
    rec_ = rec;
    msg_hist_ = rec_ != nullptr
                    ? rec_->histogram("comm.msg_bytes." + phase_)
                    : nullptr;
  }

  /// Binds the per-rank flow recorder (owned by the caller — see the
  /// lifetime contract in obs/flow.hpp: the binder must publish() and
  /// unbind before the rank function returns). While bound, Comm
  /// reports every point-to-point message and probe into it, and
  /// set_phase() keeps its phase in sync with this tracker's.
  void bind_flow(obs::FlowRecorder* flow) {
    flow_ = flow;
    if (flow_ != nullptr) flow_->set_phase(phase_);
  }
  obs::FlowRecorder* flow() const { return flow_; }

  /// Payload-transit digests (health layer, obs/health.hpp): while
  /// enabled, Comm hashes every point-to-point payload at send and at
  /// receive into two per-rank accumulators. Messages are matched
  /// within their phase, so globally Σ sent digests == Σ recv digests
  /// across ranks — any mismatch means bytes changed in transit (or a
  /// payload was injected/corrupted between enqueue and dequeue).
  void enable_payload_digests(bool on) { payload_digests_ = on; }
  bool payload_digests_enabled() const { return payload_digests_; }
  void add_payload_sent_digest(double d) { payload_sent_ += d; }
  void add_payload_recv_digest(double d) { payload_recv_ += d; }
  double payload_sent_digest() const { return payload_sent_; }
  double payload_recv_digest() const { return payload_recv_; }

  void on_send(int dest, std::size_t bytes) {
    auto& c = phases_[phase_];
    ++c.msgs_sent;
    c.bytes_sent += bytes;
    auto& p = peer_sends_[phase_][dest];
    ++p.msgs;
    p.bytes += bytes;
    ++total_msgs_sent_;
    total_bytes_sent_ += bytes;
    if (rec_ != nullptr) rec_->add_sent(1, bytes);
    if (msg_hist_ != nullptr) msg_hist_->observe(static_cast<double>(bytes));
  }
  void on_recv(std::size_t bytes) {
    auto& c = phases_[phase_];
    ++c.msgs_recv;
    c.bytes_recv += bytes;
  }

  struct Counters {
    std::uint64_t msgs_sent = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t msgs_recv = 0;
    std::uint64_t bytes_recv = 0;
  };

  /// Messages/bytes this rank sent to one destination within one phase
  /// — the (src, dst, phase) attribution behind the cross-rank traffic
  /// matrix (src is implicitly the owning rank). Row r of the matrix
  /// assembled by obs::summarize_metrics is rank r's peer_sends(); the
  /// per-phase row sums therefore equal the Counters sent totals by
  /// construction, which the tests pin.
  struct PeerCounters {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  /// Per-collective accounting: number of invocations, point-to-point
  /// rounds, and the messages/bytes sent while the collective ran.
  struct CollStats {
    std::uint64_t calls = 0;
    std::uint64_t rounds = 0;
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  /// RAII scope a collective opens around its message exchange; on
  /// close, the sends that happened inside are charged to `name`.
  /// Nested scopes (e.g. an owner-reduce built on alltoallv) attribute
  /// the same sends to every open collective, by design.
  class CollectiveScope {
   public:
    CollectiveScope(CostTracker& t, std::string name, std::uint64_t rounds)
        : t_(t), name_(std::move(name)), rounds_(rounds),
          msgs0_(t.total_msgs_sent_), bytes0_(t.total_bytes_sent_) {}
    ~CollectiveScope() {
      CollStats& s = t_.collectives_[name_];
      ++s.calls;
      s.rounds += rounds_;
      s.msgs += t_.total_msgs_sent_ - msgs0_;
      s.bytes += t_.total_bytes_sent_ - bytes0_;
    }
    CollectiveScope(const CollectiveScope&) = delete;
    CollectiveScope& operator=(const CollectiveScope&) = delete;

   private:
    CostTracker& t_;
    std::string name_;
    std::uint64_t rounds_;
    std::uint64_t msgs0_, bytes0_;
  };

  CollectiveScope collective(std::string name, std::uint64_t rounds) {
    return CollectiveScope(*this, std::move(name), rounds);
  }

  const std::map<std::string, CollStats>& collectives() const {
    return collectives_;
  }

  Counters get(const std::string& phase) const {
    auto it = phases_.find(phase);
    return it == phases_.end() ? Counters{} : it->second;
  }

  const std::map<std::string, Counters>& phases() const { return phases_; }

  /// phase -> destination rank -> sends charged to that (dst, phase).
  const std::map<std::string, std::map<int, PeerCounters>>& peer_sends()
      const {
    return peer_sends_;
  }

 private:
  std::string phase_ = "default";
  std::map<std::string, Counters> phases_;
  std::map<std::string, std::map<int, PeerCounters>> peer_sends_;
  std::map<std::string, CollStats> collectives_;
  std::uint64_t total_msgs_sent_ = 0;
  std::uint64_t total_bytes_sent_ = 0;
  obs::Recorder* rec_ = nullptr;
  obs::Histogram* msg_hist_ = nullptr;
  obs::FlowRecorder* flow_ = nullptr;
  bool payload_digests_ = false;
  double payload_sent_ = 0.0;
  double payload_recv_ = 0.0;
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
