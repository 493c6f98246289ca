#include "obs/flow.hpp"

#include <map>
#include <tuple>

namespace pkifmm::obs {

FlowRecorder::FlowRecorder(std::size_t capacity, double epoch)
    : epoch_(epoch), capacity_(capacity) {
  PKIFMM_CHECK_MSG(capacity_ >= 1, "flow ring capacity must be at least 1");
  ring_.reserve(capacity_);
  // Matches CostTracker's initial phase so events recorded before the
  // first set_phase() land somewhere sensible.
  phases_.emplace_back("default");
  waits_.emplace_back();
}

void FlowRecorder::set_phase(const std::string& name) {
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    if (phases_[i] == name) {
      cur_phase_ = static_cast<std::int32_t>(i);
      return;
    }
  }
  cur_phase_ = static_cast<std::int32_t>(phases_.size());
  phases_.push_back(name);
  waits_.emplace_back();
}

void FlowRecorder::on_send(int dest, int tag, std::int64_t bytes) {
  ++sends_;
  if (ring_.size() == capacity_) {
    ++dropped_;
    return;
  }
  FlowEvent e;
  e.kind = FlowEvent::kSend;
  e.peer = dest;
  e.tag = tag;
  e.phase = cur_phase_;
  e.bytes = bytes;
  e.t0 = e.t1 = now();
  ring_.push_back(e);
}

void FlowRecorder::on_recv(int source, int tag, std::int64_t bytes,
                           double t_block_begin, double t_done,
                           bool blocked) {
  ++recvs_;
  WaitAccum& w = waits_[static_cast<std::size_t>(cur_phase_)];
  ++w.recvs;
  if (blocked) {
    ++w.blocked;
    const double dt = t_done - t_block_begin;
    w.seconds += dt;
    if (dt > w.max_seconds) w.max_seconds = dt;
  }
  if (ring_.size() == capacity_) {
    ++dropped_;
    return;
  }
  FlowEvent e;
  e.kind = blocked ? FlowEvent::kRecvBlocked : FlowEvent::kRecv;
  e.peer = source;
  e.tag = tag;
  e.phase = cur_phase_;
  e.bytes = bytes;
  e.t0 = t_block_begin;
  e.t1 = t_done;
  ring_.push_back(e);
}

std::vector<FlowEvent> FlowRecorder::with_seq() const {
  std::vector<FlowEvent> out = ring_;
  // Occurrence counting in record order: the fabric is FIFO per
  // (src, dst, tag), so the k-th send to (peer, tag) is the k-th
  // message of that stream — and on the peer, the k-th receive from
  // (us, tag) dequeues it. Sends and receives count independently.
  std::map<std::tuple<int, int, int>, std::int32_t> next;
  for (FlowEvent& e : out) {
    const int dir = e.kind == FlowEvent::kSend ? 0 : 1;
    e.seq = next[{dir, e.peer, e.tag}]++;
  }
  return out;
}

void FlowRecorder::fold_into(RankMetrics& m) const {
  m.counters["flow.events"] = static_cast<double>(ring_.size());
  m.counters["flow.dropped"] = static_cast<double>(dropped_);
  m.counters["flow.probes"] = static_cast<double>(probes_);
  m.counters["flow.sends"] = static_cast<double>(sends_);
  m.counters["flow.recvs"] = static_cast<double>(recvs_);
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const WaitAccum& w = waits_[i];
    if (w.recvs == 0) continue;
    const std::string stem = "wait." + phases_[i];
    m.counters[stem + ".seconds"] = w.seconds;
    m.counters[stem + ".recvs"] = static_cast<double>(w.recvs);
    m.counters[stem + ".blocked"] = static_cast<double>(w.blocked);
    m.counters[stem + ".max_seconds"] = w.max_seconds;
  }
  m.flows = with_seq();
  m.flow_phases = phases_;
}

}  // namespace pkifmm::obs
