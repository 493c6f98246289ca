#pragma once
/// \file common.hpp
/// \brief Shared experiment harness for the paper-reproduction benches.
///
/// Timing methodology (see DESIGN.md §2): simulated ranks run as
/// threads of one process, so wall-clock time is contended and
/// meaningless per rank. Instead, each rank's "cluster time" for a
/// phase is
///     t(rank, phase) = thread_cpu_seconds(phase)      [measured work]
///                    + t_s * msgs + t_w * bytes        [modeled comm]
/// with the alpha-beta constants of comm::CostModel. Max/Avg across
/// ranks are then reported exactly the way the paper's Table II and
/// Figs. 3-4 report them.

#include <functional>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "core/direct.hpp"
#include "core/fmm.hpp"
#include "gpu/evaluator.hpp"
#include "obs/export.hpp"
#include "octree/points.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace pkifmm::bench {

struct ExperimentConfig {
  int p = 1;
  octree::Distribution dist = octree::Distribution::kUniform;
  std::uint64_t n_points = 10000;
  std::uint64_t seed = 42;
  core::FmmOptions opts;
};

struct Experiment {
  std::vector<comm::RankReport> reports;
  comm::CostModel model;

  /// Per-rank modeled time summed over all phases whose name starts
  /// with `prefix` ("eval." -> whole evaluation, "setup." -> setup,
  /// "eval.uli" -> one phase).
  std::vector<double> phase_times(const std::string& prefix) const;

  /// Per-rank flops summed over matching phases.
  std::vector<double> phase_flops(const std::string& prefix) const;

  Summary time_summary(const std::string& prefix) const {
    auto t = phase_times(prefix);
    return Summary::of(t);
  }

  /// Per-rank measured thread-CPU seconds over matching phases (no
  /// modeled comm term — the denominator for achieved-flop-rate math).
  std::vector<double> phase_cpu(const std::string& prefix) const;

  /// Per-rank value of an obs counter by EXACT name (0 where a rank
  /// never recorded it). Use for the `hw.<phase>.*` / `mem.<phase>.*`
  /// counters, which are inclusive per span name and must not be
  /// prefix-summed (obs/export.hpp).
  std::vector<double> obs_counter(const std::string& name) const;

  /// Per-rank modeled communication time over matching phases.
  std::vector<double> comm_times(const std::string& prefix) const;

  /// Total messages / bytes sent across ranks for matching phases.
  std::uint64_t total_msgs(const std::string& prefix) const;
  std::uint64_t total_bytes(const std::string& prefix) const;
  /// Max over ranks of messages sent in matching phases.
  std::uint64_t max_msgs(const std::string& prefix) const;

  /// Per-rank time at the *paper's* CPU rate: science flops / 500 MF/s
  /// plus modeled communication. Used where the paper compares against
  /// Kraken/Lincoln CPU cores (Fig. 6 CPU baseline, Table III).
  std::vector<double> paper_times(const std::string& prefix) const;
};

/// Runs setup + evaluate with a shared Tables instance and returns the
/// per-rank reports. The same kernel/options Tables are cached across
/// calls so repeated sweep points do not redo the SVD precomputation.
Experiment run_fmm(const ExperimentConfig& cfg, const std::string& kernel);

/// Enables `--metrics-out=<path>` (flat "pkifmm.bench-metrics.v1"
/// JSON), `--trace-out=<path>` (Chrome trace_event JSON; multi-run
/// sweeps are merged with obs::merge_chrome_traces, so flow arrows and
/// pid blocks stay separable per repetition),
/// `--summary-out=<path>` (cross-rank "pkifmm.summary.v1", see
/// obs/aggregate.hpp) and `--history-out=<path>` (one compact
/// "pkifmm.run.v1" line APPENDED per bench process to a
/// BENCH_history.jsonl trajectory file, see obs/trend.hpp) for this
/// bench. The history record's git sha comes from `--git-sha`, else
/// the PKIFMM_GIT_SHA or GITHUB_SHA environment, else "unknown". Call
/// once right after constructing the Cli; every subsequent
/// run_fmm/run_gpu_fmm is recorded and the files are written when the
/// bench exits. The per-phase summaries in the metrics file are
/// computed from the same RankReports and CostModel as the stdout
/// tables, so the numbers agree to within formatting; each run also
/// carries the process peak RSS and per-phase peak-RSS deltas. The
/// summary merges all recorded runs (per-phase accumulators folded
/// with Accumulator::merge) and is built here, from the RankReports,
/// at exit — ParallelFmm::evaluate() sends no observability traffic.
/// The history record condenses it for `tools/pkifmm_trend`, the perf
/// gate.
/// Also parses `--flow-trace` / `--flow-capacity=<events>`
/// (obs/flow.hpp message-flow tracing, off by default); apply_flow_flags
/// copies them onto an FmmOptions, and run_fmm / run_gpu_fmm apply them
/// automatically.
/// Also parses `--health` / `--health-sample-rate=<frac in [0,1]>`
/// (FmmOptions::health numerical-health layer, DESIGN.md §5g): health
/// runs carry `config.health` (+ rate) and an extra `health` object in
/// their run.v1 history records.
void metrics_init(const Cli& cli, const std::string& bench_name);

/// Copies the --flow-trace / --flow-capacity /
/// --health / --health-sample-rate flags captured by metrics_init onto
/// `opts`. Benches that drive comm::Runtime directly (instead of via
/// run_fmm) call this on their own FmmOptions.
void apply_flow_flags(core::FmmOptions& opts);

/// Internal: appends one run's reports to the metrics log (no-op when
/// metrics_init was not called or no output was requested).
void record_run(const std::string& kind, const ExperimentConfig& cfg,
                const std::string& kernel,
                const std::vector<comm::RankReport>& reports,
                const comm::CostModel& model);

/// Cached Tables lookup (geometry fields only drive the cache; other
/// options are rebound per call via Tables::with_options).
const core::Tables& tables_for(const std::string& kernel,
                               const core::FmmOptions& opts);

/// Prints a headline for a bench, echoing the paper artifact it
/// regenerates.
void print_header(const std::string& artifact, const std::string& what);

/// A GPU-configuration run: every rank owns one streaming device
/// (paper: one GPU per MPI process). Laplace kernel only.
struct GpuRun {
  std::vector<comm::RankReport> reports;
  std::vector<std::map<std::string, gpu::KernelStats>> dev_kernels;
  std::vector<double> dev_transfer_seconds;
  comm::CostModel model;

  /// Per-rank modeled device time of one kernel ("uli", "s2u", "d2t",
  /// "vli").
  std::vector<double> device_times(const std::string& kernel) const;

  /// Per-rank modeled time of the CPU-resident phases (flops at the
  /// paper CPU rate + modeled communication).
  std::vector<double> host_times() const;

  /// Per-rank total modeled evaluation time in the GPU configuration:
  /// device kernels + transfers + host phases.
  std::vector<double> eval_times() const;
};

GpuRun run_gpu_fmm(const ExperimentConfig& cfg, int block = 64);

}  // namespace pkifmm::bench
