#pragma once
/// \file trend.hpp
/// \brief Bench-trajectory records ("pkifmm.run.v1") and trend
/// analysis over BENCH_history.jsonl.
///
/// Trend records are the perf gate (tools/pkifmm_trend): "is this run
/// worse than the recent runs of the same bench and config?", asked
/// against the median of the last K comparable runs rather than one
/// checked-in baseline, so no single noisy run in the history sets
/// the reference. Every bench appends one compact line per run:
///
///   {
///     "schema": "pkifmm.run.v1",
///     "bench": "<name>",            // which bench produced it
///     "git_sha": "<sha|unknown>",   // --git-sha / PKIFMM_GIT_SHA /
///                                   // GITHUB_SHA
///     "nranks": <int>, "nruns": <int>,
///     "hw_source": "perf"|"fallback"|"mixed"|"none",
///     "config": { ... },            // free-form bench configuration
///     "phases": {                   // cross-rank SUMS per phase
///       "<phase>": { "wall", "cpu", "flops", "msgs_sent",
///                    "bytes_sent",
///                    // present only when any rank had perf access:
///                    "cycles", "instructions", "l1d_misses",
///                    "llc_misses", "branch_misses",
///                    // always present when ranks sampled memory:
///                    "minor_faults", "peak_rss_delta_bytes",
///                    // present only for --flow-trace runs (warn-only
///                    // gate, like hw/mem):
///                    "wait_seconds" }, ...
///     },
///     "mem": { "peak_rss_bytes": <process VmHWM at record time> },
///     // present only for health-enabled runs (warn-only gate):
///     "health": { "sampled_rel_err": <double>, "sample_count": <double> }
///   }
///
/// One JSON document per line (JSONL): appends are atomic enough for
/// sequential bench runs, the file diffs line-per-run in git, and a
/// truncated last line (crashed bench) only loses that run.
///
/// trend_analyze compares the newest record against the *median* of
/// the previous `window` records with the same nranks and config per
/// (phase, metric) — the median keeps one noisy CI machine from
/// poisoning the reference. Time and work metrics hard-fail past their
/// ratio bounds (phases below the absolute floors are skipped: sub-50ms
/// walls of thread-simulated ranks are scheduler noise); hardware-
/// counter and memory metrics only ever WARN, because they are
/// machine-dependent (a different CI host has a different cache) and
/// perf access comes and goes with the container.

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace pkifmm::obs {

inline constexpr const char* kRunSchema = "pkifmm.run.v1";

/// Builds a run record from a validated summary document ("phases"
/// sums + `hw.<phase>.*` / `mem.<phase>.*` metric sums + the current
/// process peak RSS). `config` is stored verbatim (pass Json::object()
/// for none).
Json run_record_from_summary(const Json& summary, const std::string& bench,
                             const std::string& git_sha,
                             const Json& config);

/// Validates the structural schema of one run record; throws
/// CheckFailure describing the first violation.
void validate_run_json(const Json& doc);

/// Appends one record as a single JSONL line (creates the file if
/// missing). Throws CheckFailure if the record fails validation or
/// the file cannot be written.
void append_run_record(const std::string& path, const Json& record);

/// Reads a JSONL history file; skips blank lines, throws CheckFailure
/// on unreadable files or lines that fail to parse/validate.
std::vector<Json> read_run_history(const std::string& path);

/// Thresholds for trend_analyze. Work metrics (flops, msgs, bytes) are
/// exactly reproducible run-over-run, so their ratio bound is tight;
/// wall/cpu time is measured on whatever machine CI lands on, so its
/// bound is loose. hw metrics get their own looser ratio and are
/// warn-only regardless.
struct TrendOptions {
  int window = 8;             ///< reference = median of last `window`
                              ///< records before the newest
  double time_ratio = 1.6;    ///< hard bound for wall & cpu
  double work_ratio = 1.25;   ///< hard bound for flops / msgs / bytes
  double hw_ratio = 1.5;      ///< WARN bound for cycles/misses/faults/rss
  double min_seconds = 5e-2;  ///< ignore values below these floors
  double min_flops = 1e4;
  double min_msgs = 16;
  double min_bytes = 4096;
  double min_hw = 1e6;        ///< ignore hw metrics below this count
  /// WARN bound for the sampled relative error of health-enabled runs
  /// (run record field "health.sampled_rel_err"): warn when fresh
  /// exceeds err_ratio × the reference median. Generous because the
  /// sample set varies per step and small samples are noisy; the hard
  /// accuracy contract stays in the offline tests.
  double err_ratio = 4.0;
  double min_err = 1e-12;     ///< ignore errors below this (p large
                              ///< enough that the sample underflows)
  /// Promote the warn-only hw/mem/wait findings to hard failures
  /// ("ok" = false when any warning fires). For CI lanes pinned to one
  /// machine class, where hw counters ARE comparable run-over-run.
  bool strict = false;
};

/// Analyzes records of ONE bench, ordered oldest -> newest. The newest
/// record is compared per phase against the median of up to
/// opt.window preceding records that ran at the same "nranks" with an
/// equal "config" object (other records are not comparable and are
/// skipped). Returns
///   { "ok": bool,                  // no hard regressions
///     "checked": <int>, "window": <int>,  // references actually used
///     "newest_sha": "<sha>",
///     "regressions": [ { "phase", "metric", "reference", "fresh",
///                        "ratio", "limit" }, ... ],
///     "warnings":   [ ...same shape, hw/mem metrics... ] }
/// A phase present in every reference record but missing from the
/// newest is a regression with metric "missing". No comparable earlier
/// record (fewer than 2 records, or none at the newest's nranks and
/// config) yields ok with window = checked = 0 (nothing to compare
/// yet). Throws
/// CheckFailure if any record fails validate_run_json.
Json trend_analyze(const std::vector<Json>& records,
                   const TrendOptions& opt = {});

}  // namespace pkifmm::obs
