/// \file pkifmm_trend.cpp
/// \brief Bench-trajectory diff over a BENCH_history.jsonl file of
/// "pkifmm.run.v1" records (appended by every bench's --history-out).
///
/// Records are grouped by bench name; within each group the newest
/// record is compared against the median of the preceding --window
/// records with the same rank count and config (obs::trend_analyze).
/// Wall/cpu/flops/msgs/bytes regressions beyond the gate ratios are
/// hard failures; hardware-counter and memory metrics only warn — they
/// move whenever CI lands on a different machine, and perf access comes
/// and goes with the container.
///
///   pkifmm_trend --history=<BENCH_history.jsonl>
///       [--bench=<name>]      # analyze only this bench's records
///       [--window=8]          # reference = median of last K records
///       [--time-ratio=1.6] [--work-ratio=1.25] [--hw-ratio=1.5]
///       [--err-ratio=4]       # WARN bound for the sampled relative
///                             # error of health-enabled runs
///       [--min-seconds=5e-2] [--min-flops=1e4]
///       [--report-out=<trend_report.json>]
///       [--warn-only]         # exit 0 even on hard regressions
///       [--strict]            # promote hw/mem/wait warnings to hard
///                             # failures (exit 1)
///
/// Exit status: 0 = no regressions (including the first-run case of an
/// empty history or a single record — nothing to gate against yet),
/// 1 = regression detected, 2 = bad input (missing/unparseable
/// history, unknown bench). --strict is for CI lanes pinned to one
/// machine class, where hw counters ARE comparable; --warn-only wins
/// if both are given.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trend.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pkifmm;

namespace {

double phase_total(const obs::Json& rec, const char* metric) {
  double total = 0.0;
  const obs::Json& phases = rec.at("phases");
  for (const std::string& name : phases.keys()) {
    // Roots ("setup", "eval") include their children; summing only
    // top-level names avoids double counting.
    if (name.find('.') != std::string::npos) continue;
    const obs::Json& p = phases.at(name);
    if (p.contains(metric)) total += p.at(metric).as_double();
  }
  return total;
}

void print_findings(const char* label, const obs::Json& findings) {
  if (findings.size() == 0) return;
  Table t({"Phase", "Metric", "Reference", "Fresh", "Ratio", "Limit"});
  for (const obs::Json& f : findings.items())
    t.add_row({f.at("phase").as_string(), f.at("metric").as_string(),
               sci(f.at("reference").as_double()),
               sci(f.at("fresh").as_double()),
               fixed(f.at("ratio").as_double()),
               fixed(f.at("limit").as_double())});
  std::printf("%s:\n%s", label, t.str().c_str());
}

}  // namespace

static int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string history = cli.get("history", "");
  if (history.empty()) {
    std::fprintf(stderr,
                 "usage: pkifmm_trend --history=<BENCH_history.jsonl>\n");
    return 2;
  }
  const std::string want_bench = cli.get("bench", "");
  const bool warn_only = cli.has("warn-only");
  obs::TrendOptions opt;
  opt.window = cli.get_int_as<int>("window", opt.window);
  opt.time_ratio = cli.get_double("time-ratio", opt.time_ratio);
  opt.work_ratio = cli.get_double("work-ratio", opt.work_ratio);
  opt.hw_ratio = cli.get_double("hw-ratio", opt.hw_ratio);
  opt.err_ratio = cli.get_double("err-ratio", opt.err_ratio);
  opt.min_seconds = cli.get_double("min-seconds", opt.min_seconds);
  opt.min_flops = cli.get_double("min-flops", opt.min_flops);
  opt.strict = cli.has("strict");

  const std::vector<obs::Json> records = obs::read_run_history(history);

  // An empty history is the normal first-run state (the file is
  // created by the first --history-out append): there is nothing to
  // gate against, which is not an error. A MISSING or unparseable file
  // still exits 2 (read_run_history throws), as does naming a bench
  // that has records for other benches only — that is a typo, not a
  // first run.
  if (records.empty()) {
    std::printf("pkifmm_trend: no run records yet in %s — no reference "
                "window to gate against (first run): OK\n",
                history.c_str());
    return 0;
  }

  // Group by bench, preserving file (= chronological) order per group.
  std::vector<std::string> bench_order;
  std::map<std::string, std::vector<obs::Json>> groups;
  for (const obs::Json& rec : records) {
    const std::string& bench = rec.at("bench").as_string();
    if (!want_bench.empty() && bench != want_bench) continue;
    if (!groups.count(bench)) bench_order.push_back(bench);
    groups[bench].push_back(rec);
  }
  if (groups.empty()) {
    std::fprintf(stderr, "pkifmm_trend: no records for bench %s in %s\n",
                 want_bench.c_str(), history.c_str());
    return 2;
  }

  bool all_ok = true;
  obs::Json report = obs::Json::object();
  report.set("schema", "pkifmm.trend.v1");
  obs::Json benches = obs::Json::object();

  for (const std::string& bench : bench_order) {
    const std::vector<obs::Json>& recs = groups[bench];
    std::printf("bench %s: %zu record(s)\n", bench.c_str(), recs.size());

    // Trajectory: the window the analysis actually references.
    const std::size_t first =
        recs.size() > static_cast<std::size_t>(opt.window) + 1
            ? recs.size() - static_cast<std::size_t>(opt.window) - 1
            : 0;
    Table traj({"#", "git sha", "hw", "Wall (s)", "CPU (s)", "Flops",
                "Peak RSS"});
    for (std::size_t i = first; i < recs.size(); ++i) {
      const obs::Json& r = recs[i];
      const double rss =
          r.contains("mem") && r.at("mem").contains("peak_rss_bytes")
              ? r.at("mem").at("peak_rss_bytes").as_double()
              : 0.0;
      traj.add_row({std::to_string(i) + (i + 1 == recs.size() ? "*" : ""),
                    r.at("git_sha").as_string().substr(0, 12),
                    r.at("hw_source").as_string(),
                    fixed(phase_total(r, "wall"), 3),
                    fixed(phase_total(r, "cpu"), 3),
                    sci(phase_total(r, "flops")), sci(rss)});
    }
    std::printf("%s", traj.str().c_str());

    const obs::Json analysis = obs::trend_analyze(recs, opt);
    const bool ok = analysis.at("ok").as_bool();
    all_ok = all_ok && ok;
    if (analysis.at("window").as_int() == 0) {
      // No prior window — say so instead of the baffling "median of 0
      // prior: OK (0 checks)".
      if (recs.size() == 1)
        std::printf("only one record — no reference window to gate "
                    "against (first run): OK\n");
      else
        std::printf("no earlier record at this rank count and config — no "
                    "reference window to gate against (first run): OK\n");
    } else {
      std::printf("newest vs median of %lld prior: %s (%lld checks, "
                  "%zu regression(s), %zu warning(s))\n",
                  static_cast<long long>(analysis.at("window").as_int()),
                  ok ? "OK" : "REGRESSION",
                  static_cast<long long>(analysis.at("checked").as_int()),
                  analysis.at("regressions").size(),
                  analysis.at("warnings").size());
    }
    print_findings("Regressions (hard)", analysis.at("regressions"));
    print_findings("Warnings (hw/mem/health, advisory)",
                   analysis.at("warnings"));
    std::printf("\n");
    benches.set(bench, analysis);
  }

  report.set("ok", all_ok);
  report.set("benches", std::move(benches));
  const std::string report_out = cli.get("report-out", "");
  if (!report_out.empty()) obs::write_json_file(report_out, report);

  if (!all_ok && warn_only)
    std::printf("regressions found, but --warn-only requested: exit 0\n");
  return all_ok || warn_only ? 0 : 1;
}

int main(int argc, char** argv) {
  return util::guarded_main(argc, argv, run, 2);
}
