#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>

#include "obs/flow.hpp"

namespace pkifmm::obs {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

void Histogram::observe(double v) {
  PKIFMM_DCHECK(v >= 0.0);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  int b = 0;
  if (v > 1.0)
    b = std::clamp(static_cast<int>(std::ceil(std::log2(v))), 1, kBuckets - 1);
  ++buckets_[b];
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
}

Histogram Histogram::from_parts(std::uint64_t count, double sum, double min,
                                double max,
                                const std::uint64_t (&buckets)[kBuckets]) {
  Histogram h;
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = min;
  h.max_ = max;
  std::copy(buckets, buckets + kBuckets, h.buckets_);
  return h;
}

bool Histogram::operator==(const Histogram& other) const {
  return count_ == other.count_ && sum_ == other.sum_ &&
         min_ == other.min_ && max_ == other.max_ &&
         std::equal(buckets_, buckets_ + kBuckets, other.buckets_);
}

double RankMetrics::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double RankMetrics::sum(const std::string& prefix,
                        const std::string& suffix) const {
  double total = 0.0;
  for (auto it = counters.lower_bound(prefix);
       it != counters.end() && it->first.starts_with(prefix); ++it)
    if (it->first.size() >= prefix.size() + suffix.size() &&
        it->first.ends_with(suffix))
      total += it->second;
  return total;
}

double RankMetrics::child_wall_sum(std::size_t i) const {
  double total = 0.0;
  for (const SpanEvent& e : spans)
    if (e.parent == static_cast<std::int32_t>(i)) total += e.wall;
  return total;
}

std::size_t Recorder::open_span(std::string name) {
  SpanEvent e;
  e.name = std::move(name);
  e.start = wall_seconds() - epoch_;
  e.parent = open_.empty() ? -1
                           : static_cast<std::int32_t>(open_.back().idx);
  e.depth = static_cast<std::int32_t>(open_.size());
  const std::size_t idx = metrics_.spans.size();
  metrics_.spans.push_back(std::move(e));
  OpenSpan o{idx, thread_cpu_seconds(), flops_total_, msgs_total_,
             bytes_total_, HwSample{}, 0};
  if (hw_) {
    o.hw0 = hw_->read();
    o.rss0 = peak_rss_bytes();
  }
  open_.push_back(o);
  return idx;
}

const SpanEvent& Recorder::close_span(std::size_t idx) {
  PKIFMM_CHECK_MSG(!open_.empty() && open_.back().idx == idx,
                   "spans must close innermost-first");
  const OpenSpan o = open_.back();
  open_.pop_back();
  SpanEvent& e = metrics_.spans[idx];
  e.wall = wall_seconds() - epoch_ - e.start;
  e.cpu = thread_cpu_seconds() - o.cpu_start;
  e.flops = flops_total_ - o.flops0;
  e.msgs = msgs_total_ - o.msgs0;
  e.bytes = bytes_total_ - o.bytes0;
  if (hw_) fold_hw(e.name, o);
  return e;
}

/// Folds the hardware-counter and peak-RSS deltas across a closing
/// span into flat counters keyed by the span name. Parent spans fold
/// their own (inclusive) deltas under their own name — like the
/// span-level flops/bytes, and unlike the `time.*` prefix hierarchy —
/// so consumers must match phase names exactly, never prefix-sum
/// `hw.*` or `mem.*`.
void Recorder::fold_hw(const std::string& name, const OpenSpan& o) {
  const HwSample h1 = hw_->read();
  const HwSample& h0 = o.hw0;
  const std::uint32_t f = hw_->fields();
  auto fold = [&](const char* suffix, std::uint64_t now,
                  std::uint64_t then) {
    // Counter fds can wrap or reset on some kernels; clamp at zero.
    if (now > then)
      metrics_.counters["hw." + name + suffix] +=
          static_cast<double>(now - then);
    else
      metrics_.counters["hw." + name + suffix];  // materialize at 0
  };
  if (f & kHwCycles) fold(".cycles", h1.cycles, h0.cycles);
  if (f & kHwInstructions)
    fold(".instructions", h1.instructions, h0.instructions);
  if (f & kHwL1dMisses) fold(".l1d_misses", h1.l1d_misses, h0.l1d_misses);
  if (f & kHwLlcMisses) fold(".llc_misses", h1.llc_misses, h0.llc_misses);
  if (f & kHwBranchMisses)
    fold(".branch_misses", h1.branch_misses, h0.branch_misses);
  fold(".minor_faults", h1.minor_faults, h0.minor_faults);
  fold(".major_faults", h1.major_faults, h0.major_faults);
  fold(".ctx_switches", h1.ctx_switches, h0.ctx_switches);
  const std::uint64_t peak1 = peak_rss_bytes();
  metrics_.counters["mem." + name + ".peak_rss_delta_bytes"] +=
      peak1 > o.rss0 ? static_cast<double>(peak1 - o.rss0) : 0.0;
}

Recorder::Recorder(int rank) : epoch_(wall_seconds()) {
  metrics_.rank = rank;
}

Recorder::~Recorder() = default;

FlowRecorder& Recorder::enable_flow(std::size_t capacity) {
  if (!flow_) flow_ = std::make_unique<FlowRecorder>(capacity, epoch_);
  return *flow_;
}

RankMetrics Recorder::snapshot() const {
  RankMetrics m = metrics_;
  if (flow_) flow_->fold_into(m);
  return m;
}

}  // namespace pkifmm::obs
