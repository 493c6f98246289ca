#include "obs/aggregate.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "util/stats.hpp"

namespace pkifmm::obs {

namespace {

// ------------------------------------------------------------ helpers

Json stats_json(const Accumulator& a) {
  Summary s;
  s.count = a.count();
  if (a.count() > 0) {
    s.min = a.min();
    s.max = a.max();
    s.avg = a.mean();
    s.stddev = a.stddev();
  }
  Json out = Json::object();
  out.set("min", s.min);
  out.set("max", s.max);
  out.set("avg", s.avg);
  out.set("stddev", s.stddev);
  out.set("sum", s.avg * static_cast<double>(s.count));
  out.set("count", static_cast<std::int64_t>(s.count));
  // Omitted (not 1.0) when undefined — zero-wall phases and all-zero
  // metrics have no meaningful max/avg ratio (see Summary::has_imbalance).
  if (s.has_imbalance()) out.set("imbalance", s.imbalance());
  return out;
}

/// Parses "commx.<phase>.dst<k>.msgs|bytes"; returns false for
/// anything else.
bool parse_commx(const std::string& name, std::string& phase, int& dst,
                 bool& is_msgs) {
  if (!name.starts_with("commx.")) return false;
  std::string rest = name.substr(6);
  if (rest.ends_with(".msgs")) {
    is_msgs = true;
    rest.resize(rest.size() - 5);
  } else if (rest.ends_with(".bytes")) {
    is_msgs = false;
    rest.resize(rest.size() - 6);
  } else {
    return false;
  }
  const std::size_t pos = rest.rfind(".dst");
  if (pos == std::string::npos) return false;
  phase = rest.substr(0, pos);
  const std::string num = rest.substr(pos + 4);
  if (num.empty()) return false;
  dst = 0;
  for (char c : num) {
    if (c < '0' || c > '9') return false;
    dst = dst * 10 + (c - '0');
  }
  return true;
}

/// Per-phase cross-run aggregation state.
struct PhaseAgg {
  Accumulator wall, cpu, flops, msgs, bytes;
  double busy = 0.0;      ///< Σ span wall over ranks and runs
  double makespan = 0.0;  ///< Σ per-run cross-rank makespan
  bool has_span = false;
  // Flow-derived extensions (runs with --flow-trace only):
  Accumulator comm_wait;  ///< per-rank blocked-recv seconds in phase
  Accumulator slack;      ///< per-rank makespan - busy (span phases)
  double d_compute = 0.0; ///< Σ over ranks/runs: decomposition parts
  double d_wait = 0.0;
  double d_idle = 0.0;
  double d_wall = 0.0;
  bool has_decomp = false;
  double graph = 0.0;           ///< Σ per-run graph critical path
  double graph_compute = 0.0;   ///< ... its on-rank compute part
  double graph_transfer = 0.0;  ///< ... its message-transfer part
  bool has_graph = false;
};

/// Per-rank wait seconds attributed to `phase`, from the flat
/// `wait.<q>.seconds` counters: exact name plus children
/// ("wait.<phase>.<leaf>.seconds"). Each blocked receive is recorded
/// exactly once, under the cost-tracker phase active at the time, so
/// the prefix sum never double-counts (unlike hw.*).
double wait_seconds_of(const RankMetrics& rm, const std::string& phase) {
  const std::string exact = "wait." + phase + ".seconds";
  double total = 0.0;
  for (const auto& [name, v] : rm.counters) {
    if (!name.starts_with("wait.") || !name.ends_with(".seconds") ||
        name.ends_with(".max_seconds"))
      continue;
    if (name == exact) {
      total += v;
      continue;
    }
    const std::string q = name.substr(5, name.size() - 13);
    if (q.size() > phase.size() &&
        q.compare(0, phase.size(), phase) == 0 && q[phase.size()] == '.')
      total += v;
  }
  return total;
}

// ----------------------------------------------- flow matching / graph

/// One send/recv pair on the absolute (epoch-aligned) timeline.
struct MatchedMsg {
  int src = 0, dst = 0;
  double bytes = 0.0;
  double t_send = 0.0;   ///< sender enqueue
  double t_block = 0.0;  ///< receiver block begin
  double t_recv = 0.0;   ///< receiver dequeue complete
  bool blocked = false;  ///< the receive actually waited
  /// A "binding" edge constrains the receiver: it was blocked AND the
  /// send happened after the receiver started waiting (late sender) —
  /// the Scalasca-style condition under which the sender is on the
  /// receiver's critical path.
  bool binding() const { return blocked && t_send > t_block; }
};

struct FlowMatch {
  std::vector<MatchedMsg> msgs;
  std::size_t unmatched_sends = 0;  ///< e.g. receiver's ring dropped it
  std::size_t unmatched_recvs = 0;
  bool any = false;  ///< some rank recorded flow data this run
};

/// Joins the k-th send from (src, dst, tag) with the k-th receive —
/// the (src, dst, tag, seq) flow id; exact because the fabric is FIFO
/// per (src, dst, tag) — after restoring absolute time via each rank's
/// "obs.epoch" gauge.
FlowMatch match_flows(const std::vector<RankMetrics>& ranks) {
  FlowMatch out;
  struct SendRec {
    double t_send, bytes;
  };
  struct RecvRec {
    double t_block, t_recv;
    bool blocked;
  };
  std::map<std::array<int, 4>, SendRec> sends;
  std::map<std::array<int, 4>, RecvRec> recvs;
  for (const RankMetrics& rm : ranks) {
    if (!rm.flows.empty() || !rm.flow_phases.empty()) out.any = true;
    auto eit = rm.gauges.find("obs.epoch");
    const double epoch = eit == rm.gauges.end() ? 0.0 : eit->second;
    for (const FlowEvent& e : rm.flows) {
      if (e.kind == FlowEvent::kSend)
        sends[{rm.rank, e.peer, e.tag, e.seq}] =
            SendRec{epoch + e.t0, static_cast<double>(e.bytes)};
      else
        recvs[{e.peer, rm.rank, e.tag, e.seq}] = RecvRec{
            epoch + e.t0, epoch + e.t1, e.kind == FlowEvent::kRecvBlocked};
    }
  }
  std::size_t matched = 0;
  for (const auto& [key, s] : sends) {
    auto it = recvs.find(key);
    if (it == recvs.end()) {
      ++out.unmatched_sends;
      continue;
    }
    ++matched;
    MatchedMsg m;
    m.src = key[0];
    m.dst = key[1];
    m.bytes = s.bytes;
    m.t_send = s.t_send;
    m.t_block = it->second.t_block;
    m.t_recv = it->second.t_recv;
    m.blocked = it->second.blocked;
    out.msgs.push_back(m);
  }
  out.unmatched_recvs = recvs.size() - matched;
  return out;
}

/// Absolute time window one rank spent inside a phase (its spans of
/// that exact name).
struct Interval {
  double t0 = std::numeric_limits<double>::infinity();
  double t1 = -std::numeric_limits<double>::infinity();
  bool any = false;
};

struct GraphPath {
  double compute = 0.0;
  double transfer = 0.0;
  bool valid = false;
};

/// Backward critical-path walk over the cross-rank span+message graph:
/// start from the rank that ends the phase last, walk back through the
/// latest binding receive each time (the message whose late sender the
/// rank was provably waiting on), hopping to the sender at its send
/// time. Every hop decomposes the path into on-rank compute and
/// in-flight transfer. t_cur strictly decreases (t_send < t_recv <=
/// t_cur), so the walk terminates; the step cap is a belt-and-braces
/// guard against degenerate timestamps.
GraphPath graph_critical_path(
    const std::map<int, std::vector<const MatchedMsg*>>& by_dst,
    const std::vector<Interval>& ivs) {
  GraphPath out;
  int cur = -1;
  double t_cur = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < ivs.size(); ++i)
    if (ivs[i].any && ivs[i].t1 > t_cur) {
      t_cur = ivs[i].t1;
      cur = static_cast<int>(i);
    }
  if (cur < 0) return out;
  out.valid = true;
  std::size_t msg_total = 0;
  for (const auto& [dst, v] : by_dst) msg_total += v.size();
  for (std::size_t step = 0; step <= msg_total + ivs.size(); ++step) {
    const Interval& iv = ivs[static_cast<std::size_t>(cur)];
    const MatchedMsg* pick = nullptr;
    auto dit = by_dst.find(cur);
    if (dit != by_dst.end()) {
      // Latest binding receive at or before t_cur, inside the phase
      // window (the vectors are sorted by t_recv).
      const auto& v = dit->second;
      auto it = std::upper_bound(
          v.begin(), v.end(), t_cur,
          [](double t, const MatchedMsg* m) { return t < m->t_recv; });
      while (it != v.begin()) {
        --it;
        if ((*it)->t_recv < iv.t0) break;
        if ((*it)->binding()) {
          pick = *it;
          break;
        }
      }
    }
    if (pick == nullptr) {
      out.compute += std::max(0.0, t_cur - iv.t0);
      break;
    }
    out.compute += std::max(0.0, t_cur - pick->t_recv);
    out.transfer += std::max(0.0, pick->t_recv - pick->t_send);
    cur = pick->src;
    t_cur = pick->t_send;
    const Interval& siv = ivs[static_cast<std::size_t>(cur)];
    if (!siv.any || t_cur <= siv.t0) break;  // sender outside the phase
  }
  return out;
}

/// Cross-run (src, dst) pair aggregation for the summary's latency
/// table.
struct PairAgg {
  double msgs = 0.0, bytes = 0.0;
  double late_sender = 0.0;
  double wait_seconds = 0.0;  ///< blocked time this pair inflicted
  std::vector<double> latencies;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<std::size_t>(idx)];
}

/// Dense per-phase traffic matrices, grown to the largest rank count.
struct MatrixAgg {
  std::vector<std::vector<double>> msgs, bytes;

  void ensure(std::size_t n) {
    const std::size_t old = msgs.size();
    const std::size_t next = std::max(old, n);
    msgs.resize(next);
    bytes.resize(next);
    for (auto& row : msgs) row.resize(next, 0.0);
    for (auto& row : bytes) row.resize(next, 0.0);
  }
};

Json matrix_json(const std::vector<std::vector<double>>& m) {
  Json rows = Json::array();
  for (const auto& row : m) {
    Json jr = Json::array();
    for (double v : row) jr.push_back(Json(v));
    rows.push_back(std::move(jr));
  }
  return rows;
}

}  // namespace

Json summarize_metrics(const std::vector<RankMetrics>& ranks) {
  return summarize_runs("", {ranks});
}

Json summarize_runs(const std::string& bench,
                    const std::vector<std::vector<RankMetrics>>& runs) {
  std::map<std::string, Accumulator> metric_aggs;
  std::map<std::string, PhaseAgg> phase_aggs;
  std::map<std::string, MatrixAgg> matrices;
  std::size_t nranks = 0;
  bool have_flows = false;
  double fl_matched = 0.0, fl_unmatched_sends = 0.0, fl_unmatched_recvs = 0.0;
  double fl_late_sender = 0.0, fl_late_receiver = 0.0;
  std::map<std::pair<int, int>, PairAgg> pair_aggs;

  for (const std::vector<RankMetrics>& ranks : runs) {
    nranks = std::max(nranks, ranks.size());

    // ---- flow matching (runs traced with --flow-trace only) ---------
    const FlowMatch fm = match_flows(ranks);
    std::map<int, std::vector<const MatchedMsg*>> msgs_by_dst;
    if (fm.any) {
      have_flows = true;
      fl_matched += static_cast<double>(fm.msgs.size());
      fl_unmatched_sends += static_cast<double>(fm.unmatched_sends);
      fl_unmatched_recvs += static_cast<double>(fm.unmatched_recvs);
      for (const MatchedMsg& m : fm.msgs) {
        // Late sender: the send happened after the receiver was already
        // blocked waiting. Anything else — data queued before the
        // receive, or sent before the receiver blocked — is the
        // receiver arriving late (or on time).
        const bool late_sender = m.binding();
        fl_late_sender += late_sender ? 1.0 : 0.0;
        fl_late_receiver += late_sender ? 0.0 : 1.0;
        PairAgg& pa = pair_aggs[{m.src, m.dst}];
        pa.msgs += 1.0;
        pa.bytes += m.bytes;
        pa.late_sender += late_sender ? 1.0 : 0.0;
        if (m.blocked) pa.wait_seconds += m.t_recv - m.t_block;
        pa.latencies.push_back(m.t_recv - m.t_send);
        msgs_by_dst[m.dst].push_back(&m);
      }
      for (auto& [dst, v] : msgs_by_dst)
        std::sort(v.begin(), v.end(),
                  [](const MatchedMsg* a, const MatchedMsg* b) {
                    return a->t_recv < b->t_recv;
                  });
    }

    // ---- flat metric stats: union of counter names, missing -> 0 ----
    std::set<std::string> names;
    for (const RankMetrics& rm : ranks)
      for (const auto& [name, v] : rm.counters) names.insert(name);
    for (const std::string& name : names) {
      if (name.starts_with("commx.")) continue;  // matrix carries these
      Accumulator acc;
      for (const RankMetrics& rm : ranks) acc.add(rm.counter(name));
      metric_aggs[name].merge(acc);
    }

    // ---- phase discovery: canonical counters plus span names --------
    std::set<std::string> phases;
    std::set<std::string> counter_phases;
    for (const std::string& name : names) {
      if (name.starts_with("time.") && name.ends_with(".wall")) {
        counter_phases.insert(name.substr(5, name.size() - 10));
      } else if (name.starts_with("flops.")) {
        counter_phases.insert(name.substr(6));
      } else if (name.starts_with("comm.")) {
        const std::size_t dot = name.rfind('.');
        if (dot > 5) counter_phases.insert(name.substr(5, dot - 5));
      }
    }
    phases = counter_phases;
    for (const RankMetrics& rm : ranks)
      for (const SpanEvent& e : rm.spans) phases.insert(e.name);

    for (const std::string& phase : phases) {
      PhaseAgg& agg = phase_aggs[phase];
      const bool from_counters = counter_phases.count(phase) > 0;
      Accumulator wall, cpu, flops, msgs, bytes;
      double t0 = std::numeric_limits<double>::infinity();
      double t1 = -std::numeric_limits<double>::infinity();
      double busy = 0.0;
      bool any_span = false;
      std::vector<Interval> ivs(ranks.size());
      std::vector<double> rank_busy(ranks.size(), 0.0);

      for (std::size_t i = 0; i < ranks.size(); ++i) {
        const RankMetrics& rm = ranks[i];
        double s_wall = 0.0, s_cpu = 0.0, s_flops = 0.0, s_msgs = 0.0,
               s_bytes = 0.0;
        auto eit = rm.gauges.find("obs.epoch");
        const double epoch = eit == rm.gauges.end() ? 0.0 : eit->second;
        for (const SpanEvent& e : rm.spans) {
          if (e.name != phase) continue;
          any_span = true;
          s_wall += e.wall;
          s_cpu += e.cpu;
          s_flops += static_cast<double>(e.flops);
          s_msgs += static_cast<double>(e.msgs);
          s_bytes += static_cast<double>(e.bytes);
          t0 = std::min(t0, epoch + e.start);
          t1 = std::max(t1, epoch + e.start + e.wall);
          Interval& iv = ivs[i];
          iv.any = true;
          iv.t0 = std::min(iv.t0, epoch + e.start);
          iv.t1 = std::max(iv.t1, epoch + e.start + e.wall);
        }
        busy += s_wall;
        rank_busy[i] = s_wall;
        double r_wall, r_cpu;
        if (from_counters) {
          r_wall = rm.counter("time." + phase + ".wall");
          r_cpu = rm.counter("time." + phase + ".cpu");
          wall.add(r_wall);
          cpu.add(r_cpu);
          flops.add(rm.counter("flops." + phase));
          msgs.add(rm.counter("comm." + phase + ".msgs_sent"));
          bytes.add(rm.counter("comm." + phase + ".bytes_sent"));
        } else {
          r_wall = s_wall;
          r_cpu = s_cpu;
          wall.add(s_wall);
          cpu.add(s_cpu);
          flops.add(s_flops);
          msgs.add(s_msgs);
          bytes.add(s_bytes);
        }
        if (fm.any) {
          // Wall decomposition, exact by construction: compute is the
          // phase's thread-CPU time (clamped to wall), comm_wait the
          // measured blocked-recv time (clamped to what's left), and
          // pool_idle the residual — off-CPU time not explained by a
          // blocked receive (pool fan-in, scheduler, page faults).
          const double r_wait = wait_seconds_of(rm, phase);
          agg.comm_wait.add(r_wait);
          const double c = std::min(r_cpu, r_wall);
          const double w = std::min(r_wait, r_wall - c);
          agg.d_compute += c;
          agg.d_wait += w;
          agg.d_idle += r_wall - c - w;
          agg.d_wall += r_wall;
          agg.has_decomp = true;
        }
      }
      agg.wall.merge(wall);
      agg.cpu.merge(cpu);
      agg.flops.merge(flops);
      agg.msgs.merge(msgs);
      agg.bytes.merge(bytes);
      if (any_span) {
        agg.has_span = true;
        agg.busy += busy;
        agg.makespan += t1 - t0;
        // Per-rank slack: how much earlier each rank could have fired
        // relative to the phase makespan (ranks absent from the phase
        // idle through all of it).
        for (std::size_t i = 0; i < ranks.size(); ++i)
          agg.slack.add((t1 - t0) - rank_busy[i]);
        if (fm.any) {
          const GraphPath gp = graph_critical_path(msgs_by_dst, ivs);
          if (gp.valid) {
            agg.has_graph = true;
            agg.graph += gp.compute + gp.transfer;
            agg.graph_compute += gp.compute;
            agg.graph_transfer += gp.transfer;
          }
        }
      }
    }

    // ---- per-phase traffic matrices ---------------------------------
    for (const RankMetrics& rm : ranks) {
      for (const auto& [name, v] : rm.counters) {
        std::string phase;
        int dst = 0;
        bool is_msgs = false;
        if (!parse_commx(name, phase, dst, is_msgs)) continue;
        PKIFMM_CHECK_MSG(rm.rank >= 0 &&
                             rm.rank < static_cast<int>(ranks.size()) &&
                             dst >= 0 && dst < static_cast<int>(ranks.size()),
                         "commx counter '" << name << "' out of rank range");
        MatrixAgg& mat = matrices[phase];
        mat.ensure(ranks.size());
        auto& cell = is_msgs ? mat.msgs[static_cast<std::size_t>(rm.rank)]
                             : mat.bytes[static_cast<std::size_t>(rm.rank)];
        cell[static_cast<std::size_t>(dst)] += v;
      }
    }
  }

  // ---- document assembly --------------------------------------------
  Json doc = Json::object();
  doc.set("schema", kSummarySchema);
  doc.set("nranks", static_cast<std::int64_t>(nranks));
  doc.set("nruns", static_cast<std::int64_t>(runs.size()));
  doc.set("bench", bench);

  Json metrics = Json::object();
  for (const auto& [name, acc] : metric_aggs) metrics.set(name, stats_json(acc));
  doc.set("metrics", std::move(metrics));

  Json phases = Json::object();
  for (const auto& [name, agg] : phase_aggs) {
    Json ph = Json::object();
    ph.set("wall", stats_json(agg.wall));
    ph.set("cpu", stats_json(agg.cpu));
    ph.set("flops", stats_json(agg.flops));
    ph.set("msgs_sent", stats_json(agg.msgs));
    ph.set("bytes_sent", stats_json(agg.bytes));
    ph.set("critical_path", agg.makespan);
    // Defined only for phases with spans and a nonzero makespan window;
    // omitted otherwise (a fabricated 1.0 for a zero-wall phase would
    // read as "measured, perfectly overlapped").
    const double window = static_cast<double>(nranks) * agg.makespan;
    if (agg.has_span && window > 0.0)
      ph.set("overlap_efficiency", agg.busy / window);
    if (agg.has_span && have_flows) ph.set("slack", stats_json(agg.slack));
    if (agg.has_decomp) {
      ph.set("comm_wait", stats_json(agg.comm_wait));
      Json d = Json::object();
      d.set("compute", agg.d_compute);
      d.set("comm_wait", agg.d_wait);
      d.set("pool_idle", agg.d_idle);
      d.set("wall", agg.d_wall);
      ph.set("decomp", std::move(d));
    }
    if (agg.has_graph) {
      // Supersedes the epoch-aligned "critical_path" heuristic above:
      // the true dependency chain through spans + binding message
      // edges, split into compute and transfer legs.
      ph.set("critical_path_graph", agg.graph);
      ph.set("critical_path_graph_compute", agg.graph_compute);
      ph.set("critical_path_graph_transfer", agg.graph_transfer);
    }
    phases.set(name, std::move(ph));
  }
  doc.set("phases", std::move(phases));

  if (have_flows) {
    Json flow = Json::object();
    flow.set("matched", fl_matched);
    flow.set("unmatched_sends", fl_unmatched_sends);
    flow.set("unmatched_recvs", fl_unmatched_recvs);
    flow.set("late_sender", fl_late_sender);
    flow.set("late_receiver", fl_late_receiver);
    auto metric_total = [&](const char* name) -> double {
      auto it = metric_aggs.find(name);
      return it == metric_aggs.end()
                 ? 0.0
                 : it->second.mean() *
                       static_cast<double>(it->second.count());
    };
    flow.set("events", metric_total("flow.events"));
    flow.set("dropped", metric_total("flow.dropped"));
    flow.set("probes", metric_total("flow.probes"));
    Json pairs = Json::array();
    for (auto& [key, pa] : pair_aggs) {
      Json p = Json::object();
      p.set("src", static_cast<std::int64_t>(key.first));
      p.set("dst", static_cast<std::int64_t>(key.second));
      p.set("msgs", pa.msgs);
      p.set("bytes", pa.bytes);
      p.set("late_sender_msgs", pa.late_sender);
      p.set("wait_seconds", pa.wait_seconds);
      std::sort(pa.latencies.begin(), pa.latencies.end());
      p.set("latency_p50", percentile(pa.latencies, 0.50));
      p.set("latency_p95", percentile(pa.latencies, 0.95));
      p.set("latency_max",
            pa.latencies.empty() ? 0.0 : pa.latencies.back());
      pairs.push_back(std::move(p));
    }
    flow.set("pairs", std::move(pairs));
    doc.set("flow", std::move(flow));
  }

  // ---- health section (runs with FmmOptions::health only) -----------
  // All health signals are plain counters (the only metric kind the
  // cross-rank aggregation carries), so this section is pure
  // derivation: cross-rank sums for the additive signals, the exact
  // L2-norm ratio for the sampled error, and exact-equality checks for
  // the digest pairs that must balance globally (see obs/health.hpp —
  // digests are integer-valued doubles, so summed comparisons are
  // exact well below 2^53).
  {
    auto metric_total = [&](const char* name) -> double {
      auto it = metric_aggs.find(name);
      return it == metric_aggs.end()
                 ? 0.0
                 : it->second.mean() *
                       static_cast<double>(it->second.count());
    };
    auto metric_max = [&](const char* name) -> double {
      auto it = metric_aggs.find(name);
      return it == metric_aggs.end() || it->second.count() == 0
                 ? 0.0
                 : it->second.max();
    };
    bool have_health = false;
    for (const auto& [name, acc] : metric_aggs)
      if (name.starts_with("health.")) {
        have_health = true;
        break;
      }
    if (have_health) {
      Json health = Json::object();
      // Every rank counts each health-enabled evaluate() once, so the
      // per-rank max is the number of instrumented steps.
      health.set("steps", metric_max("health.steps"));

      Json sample = Json::object();
      const double cnt = metric_total("health.sample.count");
      const double err2 = metric_total("health.sample.err2");
      const double ref2 = metric_total("health.sample.ref2");
      sample.set("count", cnt);
      sample.set("err2", err2);
      sample.set("ref2", ref2);
      sample.set("rel_err", ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0);
      sample.set("gid_digest", metric_total("health.sample.gid_digest"));
      health.set("sample", std::move(sample));

      Json sent = Json::object();
      sent.set("nonfinite", metric_total("health.s2u.nonfinite") +
                                metric_total("health.reduce.nonfinite") +
                                metric_total("health.d2t.nonfinite"));
      sent.set("moment_violations",
               metric_total("health.moment.violations"));
      sent.set("moment_max_rel", metric_max("health.moment.max_rel"));
      sent.set("injected", metric_total("health.injected"));
      health.set("sentinels", std::move(sent));

      Json dig = Json::object();
      const double dden = metric_total("health.digest.den");
      const double dghost = metric_total("health.digest.ghost");
      const double psent = metric_total("health.comm.payload_sent");
      const double precv = metric_total("health.comm.payload_recv");
      dig.set("u", metric_total("health.digest.u"));
      dig.set("reduce", metric_total("health.digest.reduce"));
      dig.set("pot", metric_total("health.digest.pot"));
      dig.set("den", dden);
      dig.set("ghost", dghost);
      dig.set("ghost_match", dden == dghost);
      dig.set("payload_sent", psent);
      dig.set("payload_recv", precv);
      dig.set("payload_match", psent == precv);
      health.set("digests", std::move(dig));

      // Drift counters are recorded identically on every rank (the
      // decision derives from the shared summary), so per-rank max is
      // the per-run value.
      Json drift = Json::object();
      drift.set("steps", metric_max("health.drift.steps"));
      drift.set("warnings", metric_max("health.drift.warnings"));
      drift.set("err_max", metric_max("health.drift.err_max"));
      health.set("drift", std::move(drift));

      doc.set("health", std::move(health));
    }
  }

  Json comm_matrix = Json::object();
  for (auto& [phase, mat] : matrices) {
    mat.ensure(nranks);  // pad to the final rank count
    Json jm = Json::object();
    jm.set("msgs", matrix_json(mat.msgs));
    jm.set("bytes", matrix_json(mat.bytes));
    comm_matrix.set(phase, std::move(jm));
  }
  doc.set("comm_matrix", std::move(comm_matrix));
  return doc;
}

void validate_summary_json(const Json& doc) {
  PKIFMM_CHECK_MSG(doc.type() == Json::Type::kObject,
                   "summary document must be a JSON object");
  PKIFMM_CHECK_MSG(doc.contains("schema") &&
                       doc.at("schema").as_string() == kSummarySchema,
                   "unknown summary schema");
  for (const char* field : {"nranks", "nruns", "bench", "metrics", "phases",
                            "comm_matrix"})
    PKIFMM_CHECK_MSG(doc.contains(field),
                     "summary missing '" << field << "'");
  const std::int64_t nranks = doc.at("nranks").as_int();
  PKIFMM_CHECK_MSG(nranks >= 0, "negative nranks");

  const Json& metrics = doc.at("metrics");
  PKIFMM_CHECK(metrics.type() == Json::Type::kObject);
  for (const std::string& name : metrics.keys()) {
    for (const char* field : {"min", "max", "avg", "stddev", "sum", "count"})
      PKIFMM_CHECK_MSG(metrics.at(name).contains(field),
                       "metric '" << name << "' missing '" << field << "'");
    // Optional: omitted for degenerate (zero/empty) sample sets, but
    // must be numeric and finite when present.
    if (metrics.at(name).contains("imbalance")) {
      const Json& im = metrics.at(name).at("imbalance");
      PKIFMM_CHECK_MSG(im.is_number() && std::isfinite(im.as_double()),
                       "metric '" << name << "' imbalance not finite");
    }
  }

  const Json& phases = doc.at("phases");
  PKIFMM_CHECK(phases.type() == Json::Type::kObject);
  for (const std::string& name : phases.keys()) {
    const Json& ph = phases.at(name);
    for (const char* field : {"wall", "cpu", "flops", "msgs_sent",
                              "bytes_sent"})
      PKIFMM_CHECK_MSG(ph.contains(field) && ph.at(field).contains("sum"),
                       "phase '" << name << "' missing stats '" << field
                                 << "'");
    PKIFMM_CHECK_MSG(ph.contains("critical_path") &&
                         ph.at("critical_path").is_number(),
                     "phase '" << name << "' missing 'critical_path'");
    // Optional: omitted for zero-wall / span-less phases, but must be a
    // finite number when present.
    if (ph.contains("overlap_efficiency")) {
      const Json& oe = ph.at("overlap_efficiency");
      PKIFMM_CHECK_MSG(oe.is_number() && std::isfinite(oe.as_double()),
                       "phase '" << name
                                 << "' overlap_efficiency not finite");
    }
    // Flow-derived fields are optional (present for --flow-trace runs).
    if (ph.contains("decomp")) {
      const Json& d = ph.at("decomp");
      double sum = 0.0;
      for (const char* field : {"compute", "comm_wait", "pool_idle"}) {
        PKIFMM_CHECK_MSG(d.contains(field) && d.at(field).is_number() &&
                             d.at(field).as_double() >= 0.0,
                         "phase '" << name << "' decomp field '" << field
                                   << "' missing or negative");
        sum += d.at(field).as_double();
      }
      PKIFMM_CHECK_MSG(d.contains("wall") && d.at("wall").is_number(),
                       "phase '" << name << "' decomp missing 'wall'");
      const double wall = d.at("wall").as_double();
      // The decomposition is constructed to sum to wall exactly; 1%
      // covers float round-off through a JSON round-trip.
      PKIFMM_CHECK_MSG(std::abs(sum - wall) <= 0.01 * std::max(wall, 1e-12),
                       "phase '" << name << "' decomp does not sum to wall");
    }
    if (ph.contains("critical_path_graph"))
      for (const char* field :
           {"critical_path_graph", "critical_path_graph_compute",
            "critical_path_graph_transfer"})
        PKIFMM_CHECK_MSG(ph.contains(field) && ph.at(field).is_number() &&
                             ph.at(field).as_double() >= 0.0,
                         "phase '" << name << "' field '" << field
                                   << "' missing or negative");
  }

  if (doc.contains("flow")) {
    const Json& flow = doc.at("flow");
    PKIFMM_CHECK(flow.type() == Json::Type::kObject);
    for (const char* field :
         {"matched", "unmatched_sends", "unmatched_recvs", "late_sender",
          "late_receiver", "events", "dropped", "probes"})
      PKIFMM_CHECK_MSG(flow.contains(field) && flow.at(field).is_number(),
                       "flow section missing '" << field << "'");
    PKIFMM_CHECK_MSG(flow.contains("pairs") &&
                         flow.at("pairs").type() == Json::Type::kArray,
                     "flow section missing 'pairs' array");
    for (const Json& p : flow.at("pairs").items())
      for (const char* field :
           {"src", "dst", "msgs", "bytes", "late_sender_msgs",
            "wait_seconds", "latency_p50", "latency_p95", "latency_max"})
        PKIFMM_CHECK_MSG(p.contains(field) && p.at(field).is_number(),
                         "flow pair missing '" << field << "'");
  }

  // Health section is optional (FmmOptions::health runs only).
  if (doc.contains("health")) {
    const Json& health = doc.at("health");
    PKIFMM_CHECK(health.type() == Json::Type::kObject);
    PKIFMM_CHECK_MSG(health.contains("steps") &&
                         health.at("steps").is_number(),
                     "health section missing 'steps'");
    for (const char* sect : {"sample", "sentinels", "digests", "drift"})
      PKIFMM_CHECK_MSG(health.contains(sect) &&
                           health.at(sect).type() == Json::Type::kObject,
                       "health section missing '" << sect << "'");
    const Json& sample = health.at("sample");
    for (const char* field :
         {"count", "err2", "ref2", "rel_err", "gid_digest"})
      PKIFMM_CHECK_MSG(sample.contains(field) &&
                           sample.at(field).is_number() &&
                           std::isfinite(sample.at(field).as_double()),
                       "health sample missing '" << field << "'");
    const Json& sent = health.at("sentinels");
    for (const char* field :
         {"nonfinite", "moment_violations", "moment_max_rel", "injected"})
      PKIFMM_CHECK_MSG(sent.contains(field) && sent.at(field).is_number(),
                       "health sentinels missing '" << field << "'");
    const Json& dig = health.at("digests");
    for (const char* field : {"u", "reduce", "pot", "den", "ghost",
                              "payload_sent", "payload_recv"})
      PKIFMM_CHECK_MSG(dig.contains(field) && dig.at(field).is_number(),
                       "health digests missing '" << field << "'");
    for (const char* field : {"ghost_match", "payload_match"})
      PKIFMM_CHECK_MSG(dig.contains(field),
                       "health digests missing '" << field << "'");
    const Json& drift = health.at("drift");
    for (const char* field : {"steps", "warnings", "err_max"})
      PKIFMM_CHECK_MSG(drift.contains(field) &&
                           drift.at(field).is_number(),
                       "health drift missing '" << field << "'");
  }

  const Json& mats = doc.at("comm_matrix");
  PKIFMM_CHECK(mats.type() == Json::Type::kObject);
  for (const std::string& phase : mats.keys()) {
    const Json& jm = mats.at(phase);
    for (const char* field : {"msgs", "bytes"}) {
      PKIFMM_CHECK_MSG(jm.contains(field),
                       "comm_matrix '" << phase << "' missing '" << field
                                       << "'");
      const Json& rows = jm.at(field);
      PKIFMM_CHECK_MSG(
          static_cast<std::int64_t>(rows.size()) == nranks,
          "comm_matrix '" << phase << "." << field << "' is not " << nranks
                          << " rows");
      for (const Json& row : rows.items())
        PKIFMM_CHECK_MSG(static_cast<std::int64_t>(row.size()) == nranks,
                         "comm_matrix '" << phase << "." << field
                                         << "' row is not " << nranks
                                         << " wide");
    }
  }
}

void write_summary_json(const std::string& path, const Json& summary) {
  validate_summary_json(summary);
  write_json_file(path, summary);
}

}  // namespace pkifmm::obs
