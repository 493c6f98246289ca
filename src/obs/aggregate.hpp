#pragma once
/// \file aggregate.hpp
/// \brief Cross-rank aggregation: per-rank RankMetrics snapshots ->
/// one summary.json ("pkifmm.summary.v1"). The perf gate over these
/// summaries is obs/trend.hpp (run records + tools/pkifmm_trend).
///
/// The paper's headline evidence is cross-rank: Table II is Max/Avg
/// per phase across 65K processes, Fig. 5 is per-rank flop variance,
/// and the Algorithm 2/3 claims are about traffic *shape*. A single
/// rank's metrics.json cannot show any of that, so this layer joins
/// the per-rank tables into one document:
///
///   {
///     "schema": "pkifmm.summary.v1",
///     "nranks": <int>,              // ranks per run (max across runs)
///     "nruns": <int>,               // merged runs (1 for a plain run)
///     "bench": "<name>",            // "" unless a bench wrote it
///     "metrics": {                  // every counter, stats across ranks
///       "<counter>": { "min", "max", "avg", "stddev", "sum", "count",
///                      "imbalance" }, ...
///     },
///     "phases": {                   // per-phase cross-rank breakdown
///       "<phase>": {
///         "wall":  { ...stats... }, // time.<phase>.wall per rank
///         "cpu":   { ...stats... },
///         "flops": { ...stats... },
///         "msgs_sent":  { ...stats... },
///         "bytes_sent": { ...stats... },
///         "critical_path": <s>,       // cross-rank span makespan
///         "overlap_efficiency": <x>,  // busy / (nranks * makespan)
///         // present only for --flow-trace runs (obs/flow.hpp):
///         "comm_wait": { ...stats... },  // blocked-recv s per rank
///         "slack": { ...stats... },      // makespan - rank busy
///         "decomp": { "compute", "comm_wait", "pool_idle", "wall" },
///         "critical_path_graph": <s>,    // true cross-rank dep chain
///         "critical_path_graph_compute": <s>,
///         "critical_path_graph_transfer": <s>
///       }, ...
///     },
///     "comm_matrix": {              // dense per-phase traffic matrices
///       "<phase>": { "msgs":  [[...p x p...]],
///                    "bytes": [[...p x p...]] }, ...
///     },
///     "flow": {                     // only for --flow-trace runs
///       "matched", "unmatched_sends", "unmatched_recvs",
///       "late_sender", "late_receiver", "events", "dropped", "probes",
///       "pairs": [ { "src", "dst", "msgs", "bytes",
///                    "late_sender_msgs", "wait_seconds",
///                    "latency_p50", "latency_p95", "latency_max" } ]
///     }
///   }
///
/// Flow-derived pieces (see obs/flow.hpp): "decomp" splits the phase's
/// summed rank wall time into thread-CPU compute, measured blocked-recv
/// comm_wait, and the pool_idle residual — the three sum to "wall"
/// exactly by construction. "critical_path_graph" replaces the
/// epoch-aligned makespan heuristic with a backward walk over the
/// cross-rank graph of spans + binding message edges (a receive that
/// provably waited on a late sender hops the path to that sender), and
/// splits the path into compute and in-flight transfer legs. The
/// "critical_path" makespan stays; tools/pkifmm_report's Makespan
/// column reads it.
///
/// Sources, per phase:
///  - wall/cpu come from the canonical `time.<phase>.*` counters when
///    any rank has them, else from that rank's spans named `<phase>`
///    (this is how the trace-only roots "setup"/"eval" get totals);
///    flops/msgs/bytes fall back the same way. Ranks missing a counter
///    contribute 0 — imbalance therefore reflects ranks that did no
///    work in a phase, exactly like the paper's Max/Avg columns.
///  - critical_path is the cross-rank makespan of the phase's spans:
///    max over ranks of absolute span end minus min of absolute span
///    start, with per-rank recorder epochs ("obs.epoch" gauge) added
///    back so the timelines align. overlap_efficiency is the fraction
///    of the p * makespan window the ranks spent inside the phase —
///    1.0 means perfectly overlapped, 1/p means fully serialized.
///  - comm_matrix row r is rank r's per-destination send attribution
///    (`commx.<phase>.dst<k>.msgs|bytes` counters), so row sums equal
///    the `comm.<phase>.msgs_sent|bytes_sent` counters and column sums
///    equal what each destination received (the tests pin both).
///
/// Stats use util/stats.hpp's Welford Accumulator; multi-run merging
/// (summarize_runs) folds per-run accumulators with
/// Accumulator::merge(), it never revisits raw samples.

#include <span>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace pkifmm::obs {

inline constexpr const char* kSummarySchema = "pkifmm.summary.v1";

/// Aggregates one run's per-rank snapshots into a summary document.
Json summarize_metrics(const std::vector<RankMetrics>& ranks);

/// Aggregates several runs (e.g. the repetitions a bench records) into
/// one summary: per-metric/per-phase accumulators are merged across
/// runs via Accumulator::merge, critical paths add up (runs execute
/// back to back), and the comm matrices are summed, zero-padded to the
/// largest run's rank count.
Json summarize_runs(const std::string& bench,
                    const std::vector<std::vector<RankMetrics>>& runs);

/// Validates the structural schema of a summary document; throws
/// CheckFailure describing the first violation.
void validate_summary_json(const Json& doc);

/// Validates and writes a summary document.
void write_summary_json(const std::string& path, const Json& summary);

/// Gathers every rank's snapshot to every rank over any communicator
/// providing `allgatherv(std::span<const char>)` (comm::Comm does; the
/// duck typing keeps obs free of a link dependency on comm). Each rank
/// serializes its snapshot as a one-rank metrics.json, the documents
/// travel as bytes, and every rank parses all of them back — exactly
/// the pattern a real MPI build would use with MPI_Allgatherv. The
/// bytes grow with p and with the recorded spans, so nothing on the
/// ParallelFmm::evaluate() path calls it: a caller that wants a
/// mid-run summary runs it on demand, under its own cost phase (e.g.
/// "obs.gather") so the gather's traffic stays out of the FMM phases,
/// after taking its snapshot with comm::snapshot_with_counters:
///
///   ctx.comm.cost().set_phase("obs.gather");
///   const RankMetrics mine = comm::snapshot_with_counters(ctx);
///   const Json summary = summarize_metrics(gather_metrics(ctx.comm, mine));
template <class CommT>
std::vector<RankMetrics> gather_metrics(CommT& comm,
                                        const RankMetrics& mine) {
  const std::string text = metrics_to_json({mine}).dump();
  auto per_rank =
      comm.allgatherv(std::span<const char>(text.data(), text.size()));
  std::vector<RankMetrics> out;
  out.reserve(per_rank.size());
  for (const auto& buf : per_rank) {
    auto parsed = metrics_from_json(
        Json::parse(std::string(buf.begin(), buf.end())));
    PKIFMM_CHECK_MSG(parsed.size() == 1,
                     "gather_metrics: peer sent " << parsed.size()
                                                  << " rank entries");
    out.push_back(std::move(parsed.front()));
  }
  return out;
}

}  // namespace pkifmm::obs
