#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <set>

namespace pkifmm::obs {

namespace {

Json hist_to_json(const Histogram& h) {
  Json out = Json::object();
  out.set("count", static_cast<std::int64_t>(h.count()));
  out.set("sum", h.sum());
  out.set("min", h.min());
  out.set("max", h.max());
  Json buckets = Json::array();
  for (int b = 0; b < Histogram::kBuckets; ++b) {
    if (h.buckets()[b] == 0) continue;
    Json pair = Json::array();
    pair.push_back(Json(static_cast<std::int64_t>(b)));
    pair.push_back(Json(static_cast<std::int64_t>(h.buckets()[b])));
    buckets.push_back(std::move(pair));
  }
  out.set("buckets", std::move(buckets));
  return out;
}

Json map_to_json(const std::map<std::string, double>& m) {
  Json out = Json::object();
  for (const auto& [name, v] : m) out.set(name, v);
  return out;
}

Json span_to_json(const SpanEvent& e) {
  Json out = Json::object();
  out.set("name", e.name);
  out.set("start", e.start);
  out.set("wall", e.wall);
  out.set("cpu", e.cpu);
  out.set("flops", static_cast<std::int64_t>(e.flops));
  out.set("msgs", static_cast<std::int64_t>(e.msgs));
  out.set("bytes", static_cast<std::int64_t>(e.bytes));
  out.set("parent", static_cast<std::int64_t>(e.parent));
  out.set("depth", static_cast<std::int64_t>(e.depth));
  out.set("tid", static_cast<std::int64_t>(e.tid));
  return out;
}

/// Compact array form (schema comment in export.hpp): one row per
/// FlowEvent keeps metrics.json from exploding at 10^4+ messages.
Json flow_to_json(const FlowEvent& e) {
  Json row = Json::array();
  row.push_back(Json(static_cast<std::int64_t>(e.kind)));
  row.push_back(Json(static_cast<std::int64_t>(e.peer)));
  row.push_back(Json(static_cast<std::int64_t>(e.tag)));
  row.push_back(Json(static_cast<std::int64_t>(e.seq)));
  row.push_back(Json(static_cast<std::int64_t>(e.phase)));
  row.push_back(Json(e.bytes));
  row.push_back(Json(e.t0));
  row.push_back(Json(e.t1));
  return row;
}

}  // namespace

Json metrics_to_json(const std::vector<RankMetrics>& ranks) {
  Json doc = Json::object();
  doc.set("schema", kMetricsSchema);
  doc.set("nranks", static_cast<std::int64_t>(ranks.size()));

  Json jranks = Json::array();
  std::map<std::string, double> counter_totals;
  for (const RankMetrics& rm : ranks) {
    Json jr = Json::object();
    jr.set("rank", static_cast<std::int64_t>(rm.rank));
    jr.set("counters", map_to_json(rm.counters));
    jr.set("gauges", map_to_json(rm.gauges));
    Json hists = Json::object();
    for (const auto& [name, h] : rm.histograms) hists.set(name, hist_to_json(h));
    jr.set("histograms", std::move(hists));
    Json spans = Json::array();
    for (const SpanEvent& e : rm.spans) spans.push_back(span_to_json(e));
    jr.set("spans", std::move(spans));
    if (!rm.flows.empty() || !rm.flow_phases.empty()) {
      Json flows = Json::array();
      for (const FlowEvent& e : rm.flows) flows.push_back(flow_to_json(e));
      jr.set("flows", std::move(flows));
      Json phases = Json::array();
      for (const std::string& p : rm.flow_phases) phases.push_back(Json(p));
      jr.set("flow_phases", std::move(phases));
    }
    jranks.push_back(std::move(jr));
    for (const auto& [name, v] : rm.counters) counter_totals[name] += v;
  }
  doc.set("ranks", std::move(jranks));

  Json totals = Json::object();
  totals.set("counters", map_to_json(counter_totals));
  doc.set("totals", std::move(totals));
  return doc;
}

namespace {

std::map<std::string, double> json_to_map(const Json& obj) {
  std::map<std::string, double> out;
  for (const std::string& key : obj.keys()) out[key] = obj.at(key).as_double();
  return out;
}

Histogram json_to_hist(const Json& obj) {
  std::uint64_t buckets[Histogram::kBuckets] = {};
  for (const Json& pair : obj.at("buckets").items()) {
    const auto b = pair.at(std::size_t{0}).as_int();
    PKIFMM_CHECK(b >= 0 && b < Histogram::kBuckets);
    buckets[b] = static_cast<std::uint64_t>(pair.at(std::size_t{1}).as_int());
  }
  return Histogram::from_parts(
      static_cast<std::uint64_t>(obj.at("count").as_int()),
      obj.at("sum").as_double(), obj.at("min").as_double(),
      obj.at("max").as_double(), buckets);
}

SpanEvent json_to_span(const Json& obj) {
  SpanEvent e;
  e.name = obj.at("name").as_string();
  e.start = obj.at("start").as_double();
  e.wall = obj.at("wall").as_double();
  e.cpu = obj.at("cpu").as_double();
  e.flops = static_cast<std::uint64_t>(obj.at("flops").as_int());
  e.msgs = static_cast<std::uint64_t>(obj.at("msgs").as_int());
  e.bytes = static_cast<std::uint64_t>(obj.at("bytes").as_int());
  e.parent = static_cast<std::int32_t>(obj.at("parent").as_int());
  e.depth = static_cast<std::int32_t>(obj.at("depth").as_int());
  // tid is optional: documents written before the TaskPool worker spans
  // existed carry only the rank thread (tid 0).
  if (obj.contains("tid"))
    e.tid = static_cast<std::int32_t>(obj.at("tid").as_int());
  return e;
}

}  // namespace

std::vector<RankMetrics> metrics_from_json(const Json& doc) {
  validate_metrics_json(doc);
  std::vector<RankMetrics> out;
  for (const Json& jr : doc.at("ranks").items()) {
    RankMetrics rm;
    rm.rank = static_cast<int>(jr.at("rank").as_int());
    rm.counters = json_to_map(jr.at("counters"));
    rm.gauges = json_to_map(jr.at("gauges"));
    const Json& hists = jr.at("histograms");
    for (const std::string& name : hists.keys())
      rm.histograms[name] = json_to_hist(hists.at(name));
    for (const Json& js : jr.at("spans").items())
      rm.spans.push_back(json_to_span(js));
    // flows/flow_phases are optional: present only for --flow-trace runs.
    if (jr.contains("flows")) {
      for (const Json& jf : jr.at("flows").items()) {
        FlowEvent e;
        e.kind = static_cast<std::int32_t>(jf.at(std::size_t{0}).as_int());
        e.peer = static_cast<std::int32_t>(jf.at(std::size_t{1}).as_int());
        e.tag = static_cast<std::int32_t>(jf.at(std::size_t{2}).as_int());
        e.seq = static_cast<std::int32_t>(jf.at(std::size_t{3}).as_int());
        e.phase = static_cast<std::int32_t>(jf.at(std::size_t{4}).as_int());
        e.bytes = jf.at(std::size_t{5}).as_int();
        e.t0 = jf.at(std::size_t{6}).as_double();
        e.t1 = jf.at(std::size_t{7}).as_double();
        rm.flows.push_back(e);
      }
      for (const Json& jp : jr.at("flow_phases").items())
        rm.flow_phases.push_back(jp.as_string());
    }
    out.push_back(std::move(rm));
  }
  return out;
}

void validate_metrics_json(const Json& doc) {
  PKIFMM_CHECK_MSG(doc.type() == Json::Type::kObject,
                   "metrics document must be a JSON object");
  PKIFMM_CHECK_MSG(doc.contains("schema") &&
                       doc.at("schema").as_string() == kMetricsSchema,
                   "unknown metrics schema");
  PKIFMM_CHECK(doc.contains("nranks"));
  PKIFMM_CHECK(doc.contains("ranks"));
  PKIFMM_CHECK(doc.contains("totals"));
  const Json& ranks = doc.at("ranks");
  PKIFMM_CHECK_MSG(ranks.type() == Json::Type::kArray &&
                       static_cast<std::int64_t>(ranks.size()) ==
                           doc.at("nranks").as_int(),
                   "nranks does not match ranks[] length");
  for (const Json& jr : ranks.items()) {
    for (const char* field :
         {"rank", "counters", "gauges", "histograms", "spans"})
      PKIFMM_CHECK_MSG(jr.contains(field),
                       "rank entry missing '" << field << "'");
    std::int64_t nspans = static_cast<std::int64_t>(jr.at("spans").size());
    for (const Json& js : jr.at("spans").items()) {
      for (const char* field : {"name", "start", "wall", "cpu", "flops",
                                "msgs", "bytes", "parent", "depth"})
        PKIFMM_CHECK_MSG(js.contains(field),
                         "span entry missing '" << field << "'");
      const std::int64_t parent = js.at("parent").as_int();
      PKIFMM_CHECK_MSG(parent >= -1 && parent < nspans,
                       "span parent index out of range");
      PKIFMM_CHECK_MSG(js.at("wall").as_double() >= 0.0 &&
                           js.at("cpu").as_double() >= 0.0,
                       "span durations must be nonnegative");
    }
    if (jr.contains("flows")) {
      PKIFMM_CHECK_MSG(jr.contains("flow_phases"),
                       "rank entry has 'flows' but no 'flow_phases'");
      const std::int64_t nphases =
          static_cast<std::int64_t>(jr.at("flow_phases").size());
      for (const Json& jf : jr.at("flows").items()) {
        PKIFMM_CHECK_MSG(jf.type() == Json::Type::kArray && jf.size() == 8,
                         "flow row must be an 8-element array");
        const std::int64_t kind = jf.at(std::size_t{0}).as_int();
        PKIFMM_CHECK_MSG(kind >= 0 && kind <= 2,
                         "flow kind out of range");
        const std::int64_t phase = jf.at(std::size_t{4}).as_int();
        PKIFMM_CHECK_MSG(phase >= 0 && phase < nphases,
                         "flow phase index out of range");
        PKIFMM_CHECK_MSG(jf.at(std::size_t{3}).as_int() >= 0,
                         "exported flow seq must be assigned (>= 0)");
      }
    }
  }
}

Json chrome_trace_json(const std::vector<RankMetrics>& ranks) {
  Json events = Json::array();
  for (const RankMetrics& rm : ranks) {
    // One *process* per rank (pid = rank): per-rank trace files can be
    // concatenated and still render as separate labeled rows of one
    // timeline in chrome://tracing / Perfetto, which key everything by
    // (pid, tid). The rank's recorder epoch (published as the
    // "obs.epoch" gauge) shifts span starts onto the shared process
    // clock so rows from different ranks align.
    auto eit = rm.gauges.find("obs.epoch");
    const double epoch = eit == rm.gauges.end() ? 0.0 : eit->second;
    Json pmeta = Json::object();
    pmeta.set("name", "process_name");
    pmeta.set("ph", "M");
    pmeta.set("pid", static_cast<std::int64_t>(rm.rank));
    pmeta.set("tid", std::int64_t{0});
    Json pargs = Json::object();
    pargs.set("name", "rank " + std::to_string(rm.rank));
    pmeta.set("args", std::move(pargs));
    events.push_back(std::move(pmeta));

    // One *thread* row per intra-rank tid: tid 0 is the rank thread,
    // tids >= 1 are the TaskPool worker lanes whose burst spans were
    // folded in via Recorder::record_span.
    std::set<std::int32_t> tids{0};
    for (const SpanEvent& e : rm.spans) tids.insert(e.tid);
    for (const std::int32_t tid : tids) {
      Json meta = Json::object();
      meta.set("name", "thread_name");
      meta.set("ph", "M");
      meta.set("pid", static_cast<std::int64_t>(rm.rank));
      meta.set("tid", static_cast<std::int64_t>(tid));
      Json margs = Json::object();
      margs.set("name", tid == 0 ? "rank " + std::to_string(rm.rank)
                                 : "worker " + std::to_string(tid));
      meta.set("args", std::move(margs));
      events.push_back(std::move(meta));
    }

    for (const SpanEvent& e : rm.spans) {
      Json ev = Json::object();
      ev.set("name", e.name);
      ev.set("ph", "X");
      ev.set("pid", static_cast<std::int64_t>(rm.rank));
      ev.set("tid", static_cast<std::int64_t>(e.tid));
      ev.set("ts", (epoch + e.start) * 1e6);  // microseconds
      ev.set("dur", e.wall * 1e6);
      Json args = Json::object();
      args.set("cpu_s", e.cpu);
      args.set("flops", static_cast<std::int64_t>(e.flops));
      args.set("msgs", static_cast<std::int64_t>(e.msgs));
      args.set("bytes", static_cast<std::int64_t>(e.bytes));
      ev.set("args", std::move(args));
      events.push_back(std::move(ev));
    }

    // Flow arrows: the id "f:<src>:<dst>:<tag>:<seq>" is built from
    // rank-symmetric fields, so the sender's "s" and the receiver's
    // "f" — emitted from two different RankMetrics — agree without
    // any cross-rank coordination. All comm happens on the rank
    // thread, so both endpoints sit on tid 0 where the phase slices
    // give Perfetto an enclosing slice to attach the arrow to.
    for (const FlowEvent& e : rm.flows) {
      const bool is_send = e.kind == FlowEvent::kSend;
      const int src = is_send ? rm.rank : e.peer;
      const int dst = is_send ? e.peer : rm.rank;
      Json ev = Json::object();
      ev.set("name", "msg");
      ev.set("cat", "flow");
      ev.set("ph", is_send ? "s" : "f");
      if (!is_send) ev.set("bp", "e");  // bind to enclosing slice
      ev.set("id", "f:" + std::to_string(src) + ":" + std::to_string(dst) +
                       ":" + std::to_string(e.tag) + ":" +
                       std::to_string(e.seq));
      ev.set("pid", static_cast<std::int64_t>(rm.rank));
      ev.set("tid", std::int64_t{0});
      ev.set("ts", (epoch + (is_send ? e.t0 : e.t1)) * 1e6);
      Json args = Json::object();
      args.set("bytes", e.bytes);
      if (static_cast<std::size_t>(e.phase) < rm.flow_phases.size())
        args.set("phase", rm.flow_phases[static_cast<std::size_t>(e.phase)]);
      ev.set("args", std::move(args));
      events.push_back(std::move(ev));

      if (e.kind == FlowEvent::kRecvBlocked) {
        Json w = Json::object();
        const std::string phase =
            static_cast<std::size_t>(e.phase) < rm.flow_phases.size()
                ? rm.flow_phases[static_cast<std::size_t>(e.phase)]
                : "default";
        w.set("name", "wait." + phase);
        w.set("cat", "wait");
        w.set("ph", "X");
        w.set("pid", static_cast<std::int64_t>(rm.rank));
        w.set("tid", std::int64_t{0});
        w.set("ts", (epoch + e.t0) * 1e6);
        w.set("dur", (e.t1 - e.t0) * 1e6);
        Json wargs = Json::object();
        wargs.set("src", static_cast<std::int64_t>(e.peer));
        wargs.set("tag", static_cast<std::int64_t>(e.tag));
        wargs.set("bytes", e.bytes);
        w.set("args", std::move(wargs));
        events.push_back(std::move(w));
      }
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

Json merge_chrome_traces(const std::vector<Json>& runs) {
  // Stride = max pid count over ALL runs: derived, not fixed, so a
  // 2^20-rank run can no longer bleed into run 1's pid range.
  std::int64_t stride = 1;
  for (const Json& run : runs)
    for (const Json& ev : run.at("traceEvents").items())
      if (ev.contains("pid")) stride = std::max(stride, ev.at("pid").as_int() + 1);

  Json events = Json::array();
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const std::int64_t shift = static_cast<std::int64_t>(k) * stride;
    for (const Json& ev : runs[k].at("traceEvents").items()) {
      Json out = ev;  // value copy; override the run-scoped fields
      if (ev.contains("pid")) out.set("pid", ev.at("pid").as_int() + shift);
      // Flow-event ids are only unique within one run; prefix with the
      // run ordinal so arrows never link across repetitions.
      if (ev.contains("id")) {
        std::string id = "r";
        id += std::to_string(k);
        id += ':';
        id += ev.at("id").as_string();
        out.set("id", id);
      }
      if (ev.contains("ph") && ev.at("ph").as_string() == "M" &&
          ev.at("name").as_string() == "process_name") {
        Json args = Json::object();
        args.set("name", "run" + std::to_string(k) + " " +
                             ev.at("args").at("name").as_string());
        out.set("args", std::move(args));
      }
      events.push_back(std::move(out));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

void write_metrics_json(const std::string& path,
                        const std::vector<RankMetrics>& ranks) {
  Json doc = metrics_to_json(ranks);
  validate_metrics_json(doc);
  write_json_file(path, doc);
}

}  // namespace pkifmm::obs
