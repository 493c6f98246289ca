/// \file baseline_check.cpp
/// \brief Perf-regression gate: compares a freshly produced
/// "pkifmm.summary.v1" document (any bench's --summary-out) against a
/// checked-in baseline (BENCH_baseline.json) and exits nonzero when a
/// phase regressed past its threshold.
///
/// Two threshold classes (see obs::GateOptions): work metrics (flops,
/// messages, bytes) are exactly reproducible, so their default bound
/// is tight; wall/cpu time depends on the machine, so its bound is
/// loose and phases under the absolute floors are skipped — the
/// machine-tolerance envelope that lets the gate run on shared CI
/// runners without flaking.
///
///   baseline_check --summary=fresh.json --baseline=BENCH_baseline.json
///       [--time-ratio=1.6] [--work-ratio=1.25] [--min-seconds=5e-2]
///       [--min-flops=1e4] [--min-msgs=16] [--min-bytes=4096]
///       [--report-out=gate_report.json]
///
/// Exit status: 0 = no regression, 1 = regression (violations listed
/// on stdout), other nonzero = bad input.

#include <cstdio>

#include "common.hpp"
#include "obs/aggregate.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pkifmm;

int bench_main(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string summary_path = cli.get("summary", "");
  const std::string baseline_path = cli.get("baseline", "");
  if (summary_path.empty() || baseline_path.empty()) {
    std::fprintf(stderr,
                 "usage: baseline_check --summary=<fresh.json> "
                 "--baseline=<BENCH_baseline.json>\n");
    return 2;
  }

  obs::GateOptions opt;
  opt.time_ratio = cli.get_double("time-ratio", opt.time_ratio);
  opt.work_ratio = cli.get_double("work-ratio", opt.work_ratio);
  opt.min_seconds = cli.get_double("min-seconds", opt.min_seconds);
  opt.min_flops = cli.get_double("min-flops", opt.min_flops);
  opt.min_msgs = cli.get_double("min-msgs", opt.min_msgs);
  opt.min_bytes = cli.get_double("min-bytes", opt.min_bytes);

  const obs::Json fresh = obs::read_json_file(summary_path);
  const obs::Json baseline = obs::read_json_file(baseline_path);
  const obs::Json report = obs::compare_summaries(fresh, baseline, opt);

  const std::string report_path = cli.get("report-out", "");
  if (!report_path.empty()) obs::write_json_file(report_path, report);

  const auto& violations = report.at("violations").items();
  std::printf("baseline_check: %lld checks against %s\n",
              static_cast<long long>(report.at("checked").as_int()),
              baseline_path.c_str());
  if (violations.empty()) {
    std::printf("OK: no phase regressed past its threshold\n");
    return 0;
  }

  Table table({"Phase", "Metric", "Baseline", "Fresh", "Ratio", "Limit"});
  for (const obs::Json& v : violations) {
    table.add_row({v.at("phase").as_string(), v.at("metric").as_string(),
                   sci(v.at("baseline").as_double()),
                   sci(v.at("fresh").as_double()),
                   sci(v.at("ratio").as_double()),
                   sci(v.at("limit").as_double())});
  }
  std::printf("REGRESSION: %zu violation(s)\n%s\n", violations.size(),
              table.str().c_str());
  return 1;
}

int main(int argc, char** argv) {
  // An unreadable or malformed summary is bad input, not a regression.
  return pkifmm::bench::guarded_main(argc, argv, bench_main, 2);
}
