#include "comm/cost.hpp"

#include "obs/flow.hpp"
#include "obs/health.hpp"

namespace pkifmm::comm {

void CostTracker::set_phase(std::string phase) {
  phase_ = std::move(phase);
  slots_ = {};
  msg_hist_ = rec_.histogram("comm.msg_bytes." + phase_);
  if (obs::FlowRecorder* f = rec_.flow()) f->set_phase(phase_);
}

void CostTracker::enable_flow(std::size_t capacity) {
  rec_.enable_flow(capacity).set_phase(phase_);
}

void CostTracker::enable_payload_digests() {
  if (payload_digests_enabled()) return;
  payload_sent_ = rec_.counter_slot("health.comm.payload_sent");
  payload_recv_ = rec_.counter_slot("health.comm.payload_recv");
}

CostTracker::PhaseSlots& CostTracker::slots() {
  if (slots_.msgs_sent == nullptr) {
    const std::string stem = "comm." + phase_ + ".";
    slots_.msgs_sent = rec_.counter_slot(stem + "msgs_sent");
    slots_.bytes_sent = rec_.counter_slot(stem + "bytes_sent");
    slots_.msgs_recv = rec_.counter_slot(stem + "msgs_recv");
    slots_.bytes_recv = rec_.counter_slot(stem + "bytes_recv");
  }
  return slots_;
}

void CostTracker::on_send(int dest, std::span<const std::byte> payload) {
  const double bytes = static_cast<double>(payload.size());
  PhaseSlots& s = slots();
  *s.msgs_sent += 1.0;
  *s.bytes_sent += bytes;
  const std::string stem =
      "commx." + phase_ + ".dst" + std::to_string(dest) + ".";
  rec_.counter_add(stem + "msgs");
  rec_.counter_add(stem + "bytes", bytes);
  rec_.add_sent(1, payload.size());
  msg_hist_->observe(bytes);
  if (payload_sent_ != nullptr)
    *payload_sent_ += obs::bytes_digest(payload.data(), payload.size());
}

void CostTracker::on_recv(std::span<const std::byte> payload) {
  PhaseSlots& s = slots();
  *s.msgs_recv += 1.0;
  *s.bytes_recv += static_cast<double>(payload.size());
  if (payload_recv_ != nullptr)
    *payload_recv_ += obs::bytes_digest(payload.data(), payload.size());
}

CostTracker::CollectiveScope::~CollectiveScope() {
  const std::string stem = "coll." + name_ + ".";
  rec_.counter_add(stem + "calls");
  rec_.counter_add(stem + "rounds", static_cast<double>(rounds_));
  rec_.counter_add(stem + "msgs",
                   static_cast<double>(rec_.msgs_total() - msgs0_));
  rec_.counter_add(stem + "bytes",
                   static_cast<double>(rec_.bytes_total() - bytes0_));
}

CostTracker::Counters CostTracker::get(const std::string& phase) const {
  const std::string stem = "comm." + phase + ".";
  auto read = [&](const char* what) {
    return static_cast<std::uint64_t>(rec_.counter(stem + what));
  };
  return {read("msgs_sent"), read("bytes_sent"), read("msgs_recv"),
          read("bytes_recv")};
}

std::map<std::string, CostTracker::Counters> CostTracker::phases() const {
  static const std::string kPrefix = "comm.", kSuffix = ".msgs_sent";
  std::map<std::string, Counters> out;
  const auto& counters = rec_.metrics().counters;
  for (auto it = counters.lower_bound(kPrefix);
       it != counters.end() && it->first.starts_with(kPrefix); ++it)
    if (it->first.size() > kPrefix.size() + kSuffix.size() &&
        it->first.ends_with(kSuffix)) {
      std::string phase = it->first.substr(
          kPrefix.size(), it->first.size() - kPrefix.size() - kSuffix.size());
      out.emplace(phase, get(phase));
    }
  return out;
}

}  // namespace pkifmm::comm
