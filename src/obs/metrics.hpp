#pragma once
/// \file metrics.hpp
/// \brief Per-rank observability: metrics recorder + span tracer.
///
/// The paper's evidence is per-phase, per-rank accounting (Table II's
/// Max/Avg time-and-flops breakdown, Fig. 5's per-rank flop variance,
/// the message/round counts behind the hypercube reduce-scatter claim).
/// obs is the single substrate all of that reports into:
///
///  - Recorder: one per simulated rank, owned by the rank's thread
///    (comm::Runtime creates it). Counters, gauges, per-phase
///    histograms, a span-based tracer and, when flow tracing is on,
///    the message-flow ring (obs/flow.hpp). Every completed span
///    records (name, start, wall, cpu, flops, msgs, bytes, parent)
///    where the flop/msg/byte attribution is the delta of the rank
///    totals between span open and close — so nested spans never
///    double-count. util::PhaseTimer, util::FlopCounter and
///    comm::CostTracker write their `time.*`, `flops.*` and `comm.*` /
///    `commx.*` / `coll.*` counters here as they go; none of them
///    keeps a table of its own.
///  - RankMetrics: a copy of everything one Recorder holds. It is what
///    comm::Runtime::run returns per rank (comm::RankReport), and its
///    counter() / sum() are the one reader of the canonical counters.
///
/// Exporters (export.hpp) turn Recorder snapshots into a flat
/// metrics.json and a Chrome trace_event JSON.
///
/// Recorder is intentionally NOT thread-safe: each simulated rank owns
/// its Recorder.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/hw.hpp"
#include "util/check.hpp"

namespace pkifmm::obs {

/// Thread-CPU seconds for the calling thread (excludes blocked time).
/// Lives here so obs has no dependency on util's timer; util forwards.
double thread_cpu_seconds();

/// Monotonic wall-clock seconds since an arbitrary process epoch.
double wall_seconds();

/// Power-of-two-bucketed histogram for nonnegative samples (message
/// sizes, per-leaf interaction counts, span durations in microseconds).
/// Bucket b counts samples in (2^(b-1), 2^b]; bucket 0 counts samples
/// <= 1.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  const std::uint64_t* buckets() const { return buckets_; }

  /// Elementwise merge (for cross-rank aggregation).
  void merge(const Histogram& other);

  /// Rebuilds a histogram from serialized parts (export round-trip).
  static Histogram from_parts(std::uint64_t count, double sum, double min,
                              double max,
                              const std::uint64_t (&buckets)[kBuckets]);

  bool operator==(const Histogram& other) const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// One completed span: a named interval on one rank, with the work and
/// communication attributed to it (deltas of the rank totals between
/// open and close, so a parent's numbers include its children's).
struct SpanEvent {
  std::string name;
  double start = 0.0;        ///< seconds since the recorder's epoch
  double wall = 0.0;         ///< inclusive wall seconds
  double cpu = 0.0;          ///< inclusive thread-CPU seconds
  std::uint64_t flops = 0;   ///< flops reported while the span was open
  std::uint64_t msgs = 0;    ///< messages sent while the span was open
  std::uint64_t bytes = 0;   ///< bytes sent while the span was open
  std::int32_t parent = -1;  ///< index into the same spans vector
  std::int32_t depth = 0;    ///< 0 = top-level
  std::int32_t tid = 0;      ///< intra-rank thread: 0 = rank thread,
                             ///< k >= 1 = TaskPool worker lane k
};

/// One per-message flow record (obs/flow.hpp produces these). Sends
/// and receives are recorded on their own rank; the aggregator matches
/// the k-th send from (src, dst, tag) with the k-th receive — the
/// fabric's non-overtaking rule makes that pairing exact — so a
/// message's flow id is (src, dst, tag, seq).
struct FlowEvent {
  enum Kind : std::int32_t {
    kSend = 0,         ///< enqueue on the sender (never blocks)
    kRecv = 1,         ///< receive that found the message queued
    kRecvBlocked = 2,  ///< receive that waited on the condvar
  };
  std::int32_t kind = kSend;
  std::int32_t peer = 0;   ///< dst for sends, src for recvs
  std::int32_t tag = 0;
  std::int32_t seq = -1;   ///< per-(direction, peer, tag) ordinal;
                           ///< -1 until FlowRecorder folds the ring
  std::int32_t phase = 0;  ///< index into RankMetrics::flow_phases
  std::int64_t bytes = 0;
  double t0 = 0.0;  ///< send: enqueue; recv: block begin (rel. epoch)
  double t1 = 0.0;  ///< send: == t0; recv: dequeue complete
};

/// Copyable snapshot of everything one rank recorded.
struct RankMetrics {
  int rank = 0;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;
  std::vector<SpanEvent> spans;
  std::vector<FlowEvent> flows;          ///< per-message trace (flow on)
  std::vector<std::string> flow_phases;  ///< interned phase names

  /// Value of counter `name`, 0 when the rank never recorded it.
  double counter(const std::string& name) const;

  /// Sum of the counters whose names start with `prefix` and end with
  /// `suffix` (the two may not overlap), e.g. sum("time.eval.", ".cpu")
  /// is the CPU seconds of every evaluation phase. Only the `time.`,
  /// `flops.` and `comm.` families may be prefix-summed: their phases
  /// are disjoint, while `hw.*` and `mem.*` are inclusive per span name
  /// (obs/export.hpp) and must be read by exact name.
  double sum(const std::string& prefix, const std::string& suffix = "") const;

  /// Sum of wall seconds over the direct children of span `i`. The
  /// tracer invariant (asserted in tests) is child_wall_sum(i) <=
  /// spans[i].wall up to scheduler noise.
  double child_wall_sum(std::size_t i) const;
};

class FlowRecorder;  // obs/flow.hpp

/// Per-rank recording surface. All mutation goes through here.
class Recorder {
 public:
  explicit Recorder(int rank = 0);
  ~Recorder();  // out of line: FlowRecorder is incomplete here

  int rank() const { return metrics_.rank; }

  /// Wall-clock offset (process epoch -> this recorder's span epoch).
  /// Span starts are relative to this; cross-rank aggregation adds it
  /// back (published as the "obs.epoch" gauge) so spans from recorders
  /// created at different times align on one absolute timeline.
  double epoch() const { return epoch_; }

  // --- metrics -----------------------------------------------------
  void counter_add(const std::string& name, double v = 1.0) {
    metrics_.counters[name] += v;
  }
  double counter(const std::string& name) const {
    return metrics_.counter(name);
  }
  void gauge_set(const std::string& name, double v) {
    metrics_.gauges[name] = v;
  }
  void observe(const std::string& name, double v) {
    metrics_.histograms[name].observe(v);
  }
  /// Stable histogram handle for hot paths (per-message observes): the
  /// pointer stays valid for the recorder's lifetime.
  Histogram* histogram(const std::string& name) {
    return &metrics_.histograms[name];
  }
  /// Stable counter handle for hot paths (per-message adds): creates
  /// the counter at 0 if absent; the pointer stays valid for the
  /// recorder's lifetime.
  double* counter_slot(const std::string& name) {
    return &metrics_.counters[name];
  }

  // --- span attribution feeds --------------------------------------
  /// Reported by FlopCounter; attributed to every open span.
  void add_flops(std::uint64_t n) { flops_total_ += n; }
  /// Reported by comm::CostTracker on every send.
  void add_sent(std::uint64_t msgs, std::uint64_t bytes) {
    msgs_total_ += msgs;
    bytes_total_ += bytes;
  }
  std::uint64_t flops_total() const { return flops_total_; }
  std::uint64_t msgs_total() const { return msgs_total_; }
  std::uint64_t bytes_total() const { return bytes_total_; }

  // --- hardware / memory sampling ----------------------------------
  /// Binds a thread-scoped HwCounters (owned by the caller, must
  /// outlive the binding; unbind with nullptr). While bound, every
  /// span close folds the counter deltas across the span into flat
  /// counters `hw.<span-name>.<event>` and the process peak-RSS
  /// advance into `mem.<span-name>.peak_rss_delta_bytes`, and one
  /// `hw.ranks_perf` or `hw.ranks_fallback` tick plus the
  /// `hw.perf_errno` gauge record which source this rank got. Call
  /// once per rank run, from the thread that owns both the recorder
  /// and the HwCounters (comm::Runtime does).
  void bind_hw(HwCounters* hw) {
    hw_ = hw;
    if (!hw) return;
    counter_add(hw->source() == HwCounters::Source::kPerf
                    ? "hw.ranks_perf"
                    : "hw.ranks_fallback");
    gauge_set("hw.perf_errno", static_cast<double>(hw->perf_errno()));
  }
  const HwCounters* hw() const { return hw_; }

  // --- tracer ------------------------------------------------------
  /// RAII span. Move-only; closes on destruction unless close() was
  /// called explicitly (which returns the measured durations so a
  /// caller can reuse the single measurement, e.g. PhaseTimer).
  class Span {
   public:
    Span(Recorder& rec, std::string name) : rec_(&rec) {
      idx_ = rec.open_span(std::move(name));
    }
    Span(Span&& other) noexcept : rec_(other.rec_), idx_(other.idx_) {
      other.rec_ = nullptr;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    Span& operator=(Span&&) = delete;
    ~Span() {
      if (rec_) rec_->close_span(idx_);
    }

    struct Durations {
      double wall = 0.0;
      double cpu = 0.0;
    };
    /// Closes now and returns the span's wall/cpu durations.
    Durations close() {
      PKIFMM_CHECK(rec_ != nullptr);
      const SpanEvent& e = rec_->close_span(idx_);
      rec_ = nullptr;
      return {e.wall, e.cpu};
    }

   private:
    Recorder* rec_;
    std::size_t idx_ = 0;
  };

  Span span(std::string name) { return Span(*this, std::move(name)); }

  /// Appends an externally measured span (e.g. a TaskPool worker burst
  /// folded in after the fact). The event is stored as given — no
  /// attribution deltas, no parent linking — so callers must set start
  /// relative to epoch() themselves. Call from the owning rank thread.
  void record_span(SpanEvent e) { metrics_.spans.push_back(std::move(e)); }

  // --- message-flow ring (obs/flow.hpp) ----------------------------
  /// Turns on this rank's flow ring with room for `capacity` events
  /// and returns it. Idempotent: a later call returns the ring already
  /// on, whatever its capacity. The ring stays on for the rest of the
  /// recorder's life; comm::CostTracker keeps its phase in step.
  FlowRecorder& enable_flow(std::size_t capacity);
  /// The flow ring, or null while flow tracing is off.
  FlowRecorder* flow() const { return flow_.get(); }

  // --- snapshot ----------------------------------------------------
  /// Everything recorded so far, without the flow ring.
  const RankMetrics& metrics() const { return metrics_; }
  /// Copy of metrics() with the flow ring folded in (its events with
  /// seqs assigned, its phase table and its `flow.*` / `wait.*`
  /// counters; FlowRecorder::fold_into). Open spans are not included.
  RankMetrics snapshot() const;

 private:
  friend class Span;

  struct OpenSpan {
    std::size_t idx;        ///< slot in metrics_.spans
    double cpu_start;
    std::uint64_t flops0, msgs0, bytes0;
    HwSample hw0;           ///< populated only while hw_ is bound
    std::uint64_t rss0 = 0; ///< peak_rss_bytes() at open (hw_ bound)
  };

  std::size_t open_span(std::string name);
  const SpanEvent& close_span(std::size_t idx);
  void fold_hw(const std::string& name, const OpenSpan& o);

  RankMetrics metrics_;
  std::vector<OpenSpan> open_;
  HwCounters* hw_ = nullptr;
  std::unique_ptr<FlowRecorder> flow_;
  double epoch_;
  std::uint64_t flops_total_ = 0;
  std::uint64_t msgs_total_ = 0;
  std::uint64_t bytes_total_ = 0;
};

}  // namespace pkifmm::obs
