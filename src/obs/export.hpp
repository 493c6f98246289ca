#pragma once
/// \file export.hpp
/// \brief Exporters: RankMetrics snapshots -> metrics.json / Chrome
/// trace_event JSON, plus the inverse parse for round-trip testing.
///
/// Schema "pkifmm.metrics.v1" (flat machine-readable metrics):
///
///   {
///     "schema": "pkifmm.metrics.v1",
///     "nranks": <int>,
///     "ranks": [
///       { "rank": <int>,
///         "counters":   { "<name>": <double>, ... },
///         "gauges":     { "<name>": <double>, ... },
///         "histograms": { "<name>": { "count", "sum", "min", "max",
///                                     "buckets": [[bucket, count], ...] } },
///         "spans": [ { "name", "start", "wall", "cpu", "flops",
///                      "msgs", "bytes", "parent", "depth" }, ... ],
///         "flows": [ [kind, peer, tag, seq, phase, bytes, t0, t1], ... ],
///         "flow_phases": [ "<phase>", ... ] },
///       ...
///     ],
///     "totals": { "counters": { "<name>": <sum across ranks> } }
///   }
///
/// "flows"/"flow_phases" are present only when the rank recorded flow
/// events (--flow-trace, obs/flow.hpp); each flow row is the compact
/// array form of obs::FlowEvent (kind 0=send, 1=recv, 2=blocked recv;
/// phase indexes flow_phases; t0/t1 are seconds relative to the
/// recorder epoch).
///
/// Canonical counter names of every rank. PhaseTimer, FlopCounter and
/// comm::CostTracker write theirs into the rank's recorder as they go,
/// so every snapshot (and so every comm::RankReport) carries them:
///   time.<phase>.wall / time.<phase>.cpu     seconds (PhaseTimer)
///   flops.<phase>                            analytic flops (FlopCounter)
///   comm.<phase>.msgs_sent / .bytes_sent     per-phase sends (CostTracker)
///   comm.<phase>.msgs_recv / .bytes_recv
///   commx.<phase>.dst<k>.msgs / .bytes       sends to rank k in <phase>
///                                            (sparse; obs::summarize_metrics
///                                            assembles the dense matrix)
///   coll.<collective>.calls / .rounds / .msgs / .bytes
///   health.comm.payload_sent / _recv         payload digests (health on)
/// and, with flow tracing on, the ring's flow.* and wait.<phase>.*
/// counters, folded in by Recorder::snapshot (obs/flow.hpp).
///
/// Hardware/memory counters folded at span close while an
/// obs::HwCounters is bound (obs/hw.hpp; names match span names
/// EXACTLY and are inclusive of child spans — never prefix-sum them):
///   hw.<phase>.cycles / .instructions        perf_event_open, only when
///   hw.<phase>.l1d_misses / .llc_misses      the rank has perf access
///   hw.<phase>.branch_misses                 (absent under fallback)
///   hw.<phase>.minor_faults / .major_faults  getrusage(RUSAGE_THREAD),
///   hw.<phase>.ctx_switches                  always present
///   mem.<phase>.peak_rss_delta_bytes         process VmHWM advance while
///                                            the phase was open
///   hw.ranks_perf / hw.ranks_fallback        1 per rank, by source
/// and the gauges
///   obs.epoch                                recorder epoch on the process
///                                            wall clock (aligns per-rank
///                                            span timelines)
///   hw.perf_errno                            errno of the failed
///                                            perf_event_open (0 = live)
///   mem.peak_rss_bytes                       process VmHWM at rank exit
///   mem.let.*, mem.eval.*                    structure footprints
///                                            (DESIGN.md §5b)
///
/// The Chrome trace export ("trace_event" JSON-array format, load via
/// chrome://tracing or Perfetto) maps rank -> pid (with process_name /
/// thread_name metadata events naming each row "rank N") and emits one
/// complete ("ph":"X") event per span with flops/msgs/bytes in args.
/// Because the pid carries the rank, per-rank trace files written by
/// separate processes concatenate into one merged timeline. When flow
/// events were recorded, every message additionally becomes a flow-
/// event pair — "ph":"s" on the sender at enqueue, "ph":"f","bp":"e"
/// on the receiver at dequeue, both carrying the stable string id
/// "f:<src>:<dst>:<tag>:<seq>" — so Perfetto draws send→recv arrows
/// across the rank rows, and every blocked receive becomes a
/// "wait.<phase>" slice on the receiver's rank-thread row.

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace pkifmm::obs {

inline constexpr const char* kMetricsSchema = "pkifmm.metrics.v1";

/// Serializes snapshots into the metrics.json schema above.
Json metrics_to_json(const std::vector<RankMetrics>& ranks);

/// Parses a metrics.json document back into snapshots (round-trip
/// inverse of metrics_to_json; throws CheckFailure on schema errors).
std::vector<RankMetrics> metrics_from_json(const Json& doc);

/// Validates the structural schema of a metrics.json document; throws
/// CheckFailure with a description of the first violation.
void validate_metrics_json(const Json& doc);

/// Chrome trace_event document ({"traceEvents": [...]}) for the spans
/// (+ flow arrows and wait slices when flow events are present).
Json chrome_trace_json(const std::vector<RankMetrics>& ranks);

/// Merges per-run Chrome trace documents into one timeline: run k's
/// pids are shifted by k * stride where stride = max pids-per-run over
/// ALL runs (so pids can never collide, whatever the rank count — the
/// PR 2 fixed stride overflowed into the next run's pid range when
/// ranks >= stride), flow-event ids get a "r<k>:" prefix so arrows
/// never cross runs, and process_name metadata is rewritten to
/// "run<k> rank N".
Json merge_chrome_traces(const std::vector<Json>& runs);

/// Convenience file writer (schema-validated before writing).
void write_metrics_json(const std::string& path,
                        const std::vector<RankMetrics>& ranks);

}  // namespace pkifmm::obs
