#include "obs/trend.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/aggregate.hpp"
#include "obs/hw.hpp"

namespace pkifmm::obs {

namespace {

/// Per-phase metrics copied from the summary's `hw.<phase>.<event>` /
/// `mem.<phase>.<field>` flat counters into the run record. These are
/// exact-name matches — hw/mem counters are inclusive per span name
/// and must never be prefix-summed (see Recorder::fold_hw).
struct AuxMetric {
  const char* prefix;  ///< counter namespace ("hw.", "mem.", "wait.")
  const char* suffix;  ///< counter suffix incl. leading dot
  const char* key;     ///< key in the record's phase object
  double TrendOptions::* floor;  ///< skip values below this
  double TrendOptions::* ratio;  ///< warn bound
};
const AuxMetric kAuxMetrics[] = {
    {"hw.", ".cycles", "cycles", &TrendOptions::min_hw,
     &TrendOptions::hw_ratio},
    {"hw.", ".instructions", "instructions", &TrendOptions::min_hw,
     &TrendOptions::hw_ratio},
    {"hw.", ".l1d_misses", "l1d_misses", &TrendOptions::min_hw,
     &TrendOptions::hw_ratio},
    {"hw.", ".llc_misses", "llc_misses", &TrendOptions::min_hw,
     &TrendOptions::hw_ratio},
    {"hw.", ".branch_misses", "branch_misses", &TrendOptions::min_hw,
     &TrendOptions::hw_ratio},
    {"hw.", ".minor_faults", "minor_faults", &TrendOptions::min_hw,
     &TrendOptions::hw_ratio},
    {"mem.", ".peak_rss_delta_bytes", "peak_rss_delta_bytes",
     &TrendOptions::min_hw, &TrendOptions::hw_ratio},
    // Blocked-recv time per phase (--flow-trace runs): warn-only like
    // hw/mem — wait time is scheduler-sensitive, and gating hard on it
    // would make every loaded CI box a false failure.
    {"wait.", ".seconds", "wait_seconds", &TrendOptions::min_seconds,
     &TrendOptions::time_ratio},
};

/// Hard-gated metrics. Floors resolved from TrendOptions at check
/// time.
struct HardMetric {
  const char* key;
  double TrendOptions::* ratio;
  double TrendOptions::* floor;
};
const HardMetric kHardMetrics[] = {
    {"wall", &TrendOptions::time_ratio, &TrendOptions::min_seconds},
    {"cpu", &TrendOptions::time_ratio, &TrendOptions::min_seconds},
    {"flops", &TrendOptions::work_ratio, &TrendOptions::min_flops},
    {"msgs_sent", &TrendOptions::work_ratio, &TrendOptions::min_msgs},
    {"bytes_sent", &TrendOptions::work_ratio, &TrendOptions::min_bytes},
};

double median(std::vector<double> v) {
  PKIFMM_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// A record's "config" object; records written without one compare
/// as an empty config.
Json config_of(const Json& rec) {
  return rec.contains("config") ? rec.at("config") : Json::object();
}

Json finding(const std::string& phase, const std::string& metric,
             double reference, double fresh, double ratio, double limit) {
  Json f = Json::object();
  f.set("phase", phase);
  f.set("metric", metric);
  f.set("reference", reference);
  f.set("fresh", fresh);
  f.set("ratio", ratio);
  f.set("limit", limit);
  return f;
}

}  // namespace

Json run_record_from_summary(const Json& summary, const std::string& bench,
                             const std::string& git_sha,
                             const Json& config) {
  validate_summary_json(summary);
  Json rec = Json::object();
  rec.set("schema", kRunSchema);
  rec.set("bench", bench);
  rec.set("git_sha", git_sha.empty() ? "unknown" : git_sha);
  rec.set("nranks", summary.at("nranks").as_int());
  rec.set("nruns", summary.at("nruns").as_int());

  const Json& metrics = summary.at("metrics");
  auto metric_sum = [&](const std::string& name) -> double {
    return metrics.contains(name) ? metrics.at(name).at("sum").as_double()
                                  : -1.0;
  };
  const double perf_ranks = metric_sum("hw.ranks_perf");
  const double fb_ranks = metric_sum("hw.ranks_fallback");
  const char* src = "none";
  if (perf_ranks > 0 && fb_ranks > 0)
    src = "mixed";
  else if (perf_ranks > 0)
    src = "perf";
  else if (fb_ranks > 0)
    src = "fallback";
  rec.set("hw_source", src);
  rec.set("config", config);

  Json phases = Json::object();
  for (const std::string& name : summary.at("phases").keys()) {
    const Json& sp = summary.at("phases").at(name);
    Json p = Json::object();
    for (const char* f : {"wall", "cpu", "flops", "msgs_sent", "bytes_sent"})
      p.set(f, sp.at(f).at("sum").as_double());
    for (const AuxMetric& m : kAuxMetrics) {
      const double v =
          metric_sum(std::string(m.prefix) + name + m.suffix);
      if (v >= 0.0) p.set(m.key, v);
    }
    phases.set(name, std::move(p));
  }
  rec.set("phases", std::move(phases));

  Json mem = Json::object();
  mem.set("peak_rss_bytes",
          static_cast<std::int64_t>(peak_rss_bytes()));
  rec.set("mem", std::move(mem));

  // Optional numerical-health summary (FmmOptions::health runs): the
  // sampled relative error becomes a warn-gated longitudinal signal
  // alongside the perf metrics.
  if (summary.contains("health")) {
    const Json& hs = summary.at("health").at("sample");
    Json health = Json::object();
    health.set("sampled_rel_err", hs.at("rel_err").as_double());
    health.set("sample_count", hs.at("count").as_double());
    rec.set("health", std::move(health));
  }
  return rec;
}

void validate_run_json(const Json& doc) {
  PKIFMM_CHECK_MSG(doc.type() == Json::Type::kObject,
                   "run record is not an object");
  PKIFMM_CHECK_MSG(doc.contains("schema") &&
                       doc.at("schema").as_string() == kRunSchema,
                   "run record schema is not '" << kRunSchema << "'");
  for (const char* key : {"bench", "git_sha"})
    PKIFMM_CHECK_MSG(doc.contains(key) && doc.at(key).type() ==
                                              Json::Type::kString,
                     "run record missing string field '" << key << "'");
  for (const char* key : {"nranks", "nruns"})
    PKIFMM_CHECK_MSG(doc.contains(key) && doc.at(key).is_number(),
                     "run record missing numeric field '" << key << "'");
  PKIFMM_CHECK_MSG(doc.contains("phases") &&
                       doc.at("phases").type() == Json::Type::kObject,
                   "run record missing 'phases' object");
  for (const std::string& name : doc.at("phases").keys()) {
    const Json& p = doc.at("phases").at(name);
    PKIFMM_CHECK_MSG(p.type() == Json::Type::kObject,
                     "run phase '" << name << "' is not an object");
    for (const char* f : {"wall", "cpu", "flops"})
      PKIFMM_CHECK_MSG(p.contains(f) && p.at(f).is_number(),
                       "run phase '" << name << "' missing '" << f << "'");
  }
}

void append_run_record(const std::string& path, const Json& record) {
  validate_run_json(record);
  std::ofstream out(path, std::ios::app);
  PKIFMM_CHECK_MSG(out.good(),
                   "append_run_record: cannot open '" << path << "'");
  out << record.dump() << "\n";
  PKIFMM_CHECK_MSG(out.good(),
                   "append_run_record: write to '" << path << "' failed");
}

std::vector<Json> read_run_history(const std::string& path) {
  std::ifstream in(path);
  PKIFMM_CHECK_MSG(in.good(),
                   "read_run_history: cannot open '" << path << "'");
  std::vector<Json> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    Json rec;
    try {
      rec = Json::parse(line);
      validate_run_json(rec);
    } catch (const std::exception& e) {
      PKIFMM_CHECK_MSG(false, "read_run_history: " << path << ":" << lineno
                                                   << ": " << e.what());
    }
    out.push_back(std::move(rec));
  }
  return out;
}

Json trend_analyze(const std::vector<Json>& records,
                   const TrendOptions& opt) {
  for (const Json& r : records) validate_run_json(r);

  Json report = Json::object();
  Json regressions = Json::array();
  Json warnings = Json::array();
  std::int64_t checked = 0;

  // References: the last opt.window earlier records that ran at the
  // newest record's rank count and config. A run at another p or
  // problem size does other work, so it is no reference.
  std::vector<const Json*> refs;
  if (!records.empty()) {
    const Json& last = records.back();
    for (std::size_t i = 0; i + 1 < records.size(); ++i)
      if (records[i].at("nranks") == last.at("nranks") &&
          config_of(records[i]) == config_of(last))
        refs.push_back(&records[i]);
    const std::size_t keep =
        static_cast<std::size_t>(std::max(1, opt.window));
    if (refs.size() > keep)
      refs.erase(refs.begin(),
                 refs.end() - static_cast<std::ptrdiff_t>(keep));
  }

  if (refs.empty()) {
    report.set("ok", true);
    report.set("checked", checked);
    report.set("window", 0);
    report.set("newest_sha",
               records.empty() ? "" : records.back().at("git_sha")
                                          .as_string());
    report.set("regressions", std::move(regressions));
    report.set("warnings", std::move(warnings));
    return report;
  }

  const Json& fresh = records.back();
  const std::size_t nref = refs.size();

  // Union of phase names across reference records, in first-seen order.
  std::vector<std::string> phase_names;
  for (const Json* r : refs)
    for (const std::string& name : r->at("phases").keys())
      if (std::find(phase_names.begin(), phase_names.end(), name) ==
          phase_names.end())
        phase_names.push_back(name);

  const Json& fphases = fresh.at("phases");
  for (const std::string& phase : phase_names) {
    // Median over the reference records that have (phase, metric).
    auto ref_median = [&](const char* metric) -> std::vector<double> {
      std::vector<double> vals;
      for (const Json* r : refs) {
        const Json& ph = r->at("phases");
        if (ph.contains(phase) && ph.at(phase).contains(metric))
          vals.push_back(ph.at(phase).at(metric).as_double());
      }
      return vals;
    };

    if (!fphases.contains(phase)) {
      // Phase disappeared: only flag if every reference record had it
      // (a phase present in one noisy record should not hard-fail).
      const std::vector<double> walls = ref_median("wall");
      if (walls.size() == nref)
        regressions.push_back(
            finding(phase, "missing", median(walls), 0.0, 0.0, 0.0));
      continue;
    }
    const Json& fp = fphases.at(phase);

    for (const HardMetric& m : kHardMetrics) {
      if (!fp.contains(m.key)) continue;
      const std::vector<double> vals = ref_median(m.key);
      if (vals.empty()) continue;
      const double now = fp.at(m.key).as_double();
      const double floor = opt.*(m.floor);
      if (now < floor) continue;
      ++checked;
      const double ref = median(vals);
      const double ratio = now / std::max(ref, floor);
      if (ratio > opt.*(m.ratio))
        regressions.push_back(
            finding(phase, m.key, ref, now, ratio, opt.*(m.ratio)));
    }
    for (const AuxMetric& m : kAuxMetrics) {
      if (!fp.contains(m.key)) continue;
      const std::vector<double> vals = ref_median(m.key);
      if (vals.empty()) continue;
      const double now = fp.at(m.key).as_double();
      const double floor = opt.*(m.floor);
      if (now < floor) continue;
      ++checked;
      const double ref = median(vals);
      const double ratio = now / std::max(ref, floor);
      if (ratio > opt.*(m.ratio))
        warnings.push_back(
            finding(phase, m.key, ref, now, ratio, opt.*(m.ratio)));
    }
  }

  // Sampled-error trend (health-enabled runs): warn-only, against the
  // median of the reference records that carry the field. Accuracy is
  // configuration-determined, not machine-determined, but benches mix
  // health-on and health-off records in one history, so a hard gate
  // would mis-fire whenever the field's presence flips.
  if (fresh.contains("health")) {
    const Json& fh = fresh.at("health");
    std::vector<double> vals;
    for (const Json* r : refs)
      if (r->contains("health"))
        vals.push_back(r->at("health").at("sampled_rel_err").as_double());
    if (!vals.empty() && fh.contains("sampled_rel_err")) {
      const double now = fh.at("sampled_rel_err").as_double();
      if (now >= opt.min_err) {
        ++checked;
        const double ref = median(vals);
        const double ratio = now / std::max(ref, opt.min_err);
        if (ratio > opt.err_ratio)
          warnings.push_back(finding("health", "sampled_rel_err", ref, now,
                                     ratio, opt.err_ratio));
      }
    }
  }

  report.set("ok", regressions.size() == 0 &&
                       (!opt.strict || warnings.size() == 0));
  report.set("checked", checked);
  report.set("window", static_cast<std::int64_t>(nref));
  report.set("newest_sha", fresh.at("git_sha").as_string());
  report.set("regressions", std::move(regressions));
  report.set("warnings", std::move(warnings));
  return report;
}

}  // namespace pkifmm::obs
