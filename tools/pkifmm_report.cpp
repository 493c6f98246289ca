/// \file pkifmm_report.cpp
/// \brief Human-readable report over a "pkifmm.summary.v1" document
/// (the cross-rank summary written by any bench's --summary-out or by
/// obs::write_summary_json).
///
/// Sections:
///   1. a paper-style per-phase breakdown (Table II layout: Max/Avg
///      wall time, Max/Avg flops, plus the overlap efficiency the
///      summary derives from cross-rank span timelines),
///   1b. a setup breakdown (sort/tree, LET+ghost exchange,
///      repartition sub-phases) plus the `setup.incr.*`
///      counters — amortized per update step — when the run used
///      incremental repair (ParallelFmm::update_points),
///   1c. numerical health (only when the summary carries a "health"
///      section, i.e. the run set FmmOptions::health / --health): the
///      sampled relative error against direct summation, sentinel hit
///      counts (non-finite values, moment-invariant violations,
///      injected corruptions), digest match verdicts (ghost transit,
///      message payload transit), and the drift monitor's step/warning
///      counters. Any sentinel hit or digest mismatch prints a
///      WARNING line,
///   2. a roofline classification: per-phase achieved GFLOP/s,
///      arithmetic intensity (flops / estimated bytes moved, where
///      bytes = LLC misses x 64B lines), IPC and miss rates from the
///      `hw.<phase>.*` counters, and a compute- vs bandwidth-bound
///      verdict against the --peak-gflops / --peak-gbs machine model.
///      On fallback-source runs (no perf access) the hw-derived
///      columns print "-" and a note explains why,
///   3. the top-k phases by wall-time imbalance (max/avg across
///      ranks) — where to look first when scaling stalls,
///   4. the intra-rank scheduler (only when `sched.*` counters are
///      present, i.e. the run drove a util::TaskPool): per-worker-lane
///      busy fraction over the pool lifetime plus the ULI overlap
///      efficiency — what fraction of the U-list direct work executed
///      concurrently with the far-field pipeline,
///   5. message-flow waits (only when the summary carries a "flow"
///      section, i.e. the run used --flow-trace): per-phase wall-time
///      decomposition into compute / comm-wait / pool-idle with a wait
///      fraction bar, the graph-based critical path vs the makespan
///      heuristic, the top-k late-sender ranks by inflicted wait, and
///      a per-(src,dst) message latency table (p50/p95/max),
///   6. an ASCII heatmap of the per-phase communication matrix
///      (row = sender, column = receiver), the traffic-shape evidence
///      behind the paper's Algorithm 2/3 claims.
///
///   pkifmm_report --summary=<summary.json>
///       [--top=5]                  # rows in the imbalance section
///       [--matrix-phase=<phase>]   # default: every phase with traffic
///       [--matrix-metric=bytes]    # or msgs
///       [--peak-gflops=8]          # per-rank peak for the roofline
///       [--peak-gbs=20]            # per-rank memory bandwidth
///
/// Exit status: 0 on success, 2 on bad input (missing/malformed JSON
/// included — schema violations print a one-line error, never crash).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/aggregate.hpp"
#include "obs/health.hpp"
#include "obs/json.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace pkifmm;

namespace {

double stat(const obs::Json& phase, const std::string& metric,
            const std::string& field) {
  return phase.at(metric).at(field).as_double();
}

/// Stats field that summaries omit when undefined ("imbalance" for
/// zero-wall phases, "overlap_efficiency" for span-less phases):
/// returns `fallback` instead of throwing on older/degenerate docs.
double opt_field(const obs::Json& obj, const std::string& field,
                 double fallback) {
  return obj.contains(field) ? obj.at(field).as_double() : fallback;
}

/// Ten-step density ramp used for the heatmap cells.
char shade(double value, double vmax) {
  static const char kRamp[] = " .:-=+*#%@";
  if (vmax <= 0.0 || value <= 0.0) return kRamp[0];
  const double frac = value / vmax;
  int idx = 1 + static_cast<int>(frac * 8.999);
  idx = std::min(idx, 9);
  return kRamp[idx];
}

double matrix_total(const obs::Json& mat) {
  double total = 0.0;
  for (const obs::Json& row : mat.items())
    for (const obs::Json& cell : row.items()) total += cell.as_double();
  return total;
}

void print_heatmap(const std::string& phase, const std::string& metric,
                   const obs::Json& mat) {
  const auto& rows = mat.items();
  const int p = static_cast<int>(rows.size());
  double vmax = 0.0;
  for (const obs::Json& row : rows)
    for (const obs::Json& cell : row.items())
      vmax = std::max(vmax, cell.as_double());

  std::printf("  %s (%s, row=src, col=dst, max cell %s)\n", phase.c_str(),
              metric.c_str(), sci(vmax).c_str());
  std::printf("      ");
  for (int c = 0; c < p; ++c) std::printf("%d", c % 10);
  std::printf("\n");
  for (int r = 0; r < p; ++r) {
    std::printf("  %3d ", r);
    for (int c = 0; c < p; ++c)
      std::putchar(shade(rows[r].items()[c].as_double(), vmax));
    std::printf("\n");
  }
}

/// Cross-rank sum of a flat summary metric, or -1 when no rank
/// recorded it (hw counters are absent, not zero, under fallback).
double metric_sum(const obs::Json& metrics, const std::string& name) {
  return metrics.contains(name) ? metrics.at(name).at("sum").as_double()
                                : -1.0;
}

}  // namespace

static int run(int argc, char** argv) {
  Cli cli(argc, argv);
  const std::string path = cli.get("summary", "");
  if (path.empty()) {
    std::fprintf(stderr, "usage: pkifmm_report --summary=<summary.json>\n");
    return 2;
  }
  const auto top_k = cli.get_int_as<std::size_t>("top", 5);
  const std::string want_phase = cli.get("matrix-phase", "");
  const std::string matrix_metric = cli.get("matrix-metric", "bytes");
  const double peak_gflops = cli.get_double("peak-gflops", 8.0);
  const double peak_gbs = cli.get_double("peak-gbs", 20.0);
  if (matrix_metric != "bytes" && matrix_metric != "msgs") {
    std::fprintf(stderr, "pkifmm_report: --matrix-metric must be bytes|msgs\n");
    return 2;
  }
  if (peak_gflops <= 0.0 || peak_gbs <= 0.0) {
    std::fprintf(stderr,
                 "pkifmm_report: --peak-gflops/--peak-gbs must be > 0\n");
    return 2;
  }

  const obs::Json doc = obs::read_json_file(path);
  obs::validate_summary_json(doc);

  const std::string bench = doc.at("bench").as_string();
  std::printf("pkifmm summary report: %s\n", path.c_str());
  std::printf("schema %s | bench %s | %lld rank(s) | %lld run(s)\n\n",
              doc.at("schema").as_string().c_str(),
              bench.empty() ? "-" : bench.c_str(),
              static_cast<long long>(doc.at("nranks").as_int()),
              static_cast<long long>(doc.at("nruns").as_int()));

  // --- 1. Paper-style breakdown (Table II layout), sorted by max wall.
  const obs::Json& phases = doc.at("phases");
  std::vector<std::string> names = phases.keys();
  std::sort(names.begin(), names.end(),
            [&](const std::string& a, const std::string& b) {
              return stat(phases.at(a), "wall", "max") >
                     stat(phases.at(b), "wall", "max");
            });

  Table breakdown({"Phase", "Max Wall", "Avg Wall", "Max Flops", "Avg Flops",
                   "Msgs", "Bytes", "Overlap"});
  for (const std::string& name : names) {
    const obs::Json& ph = phases.at(name);
    breakdown.add_row({name, sci(stat(ph, "wall", "max")),
                       sci(stat(ph, "wall", "avg")),
                       sci(stat(ph, "flops", "max")),
                       sci(stat(ph, "flops", "avg")),
                       sci(stat(ph, "msgs_sent", "sum")),
                       sci(stat(ph, "bytes_sent", "sum")),
                       ph.contains("overlap_efficiency")
                           ? fixed(ph.at("overlap_efficiency").as_double())
                           : std::string("-")});
  }
  std::printf("Per-phase breakdown (sorted by max wall time):\n%s\n",
              breakdown.str().c_str());

  const obs::Json& metrics = doc.at("metrics");

  // --- 1b. Setup breakdown: where tree construction spends its time
  // (sort+tree build / LET+ghost exchange / repartition), plus the
  // incremental-repair counters when the run drove update_points
  // (time-stepping workloads). Phase names: setup() records
  // setup.tree/.let/.balance, update_points setup.incr.tree/.let/.balance.
  {
    std::vector<std::string> setup_phases;
    for (const std::string& name : names)
      if (name.rfind("setup.", 0) == 0) setup_phases.push_back(name);
    std::sort(setup_phases.begin(), setup_phases.end());
    if (!setup_phases.empty()) {
      Table st({"Setup phase", "Max Wall", "Avg Wall", "Imbalance", "Msgs",
                "Bytes"});
      for (const std::string& name : setup_phases) {
        const obs::Json& ph = phases.at(name);
        st.add_row({name, sci(stat(ph, "wall", "max")),
                    sci(stat(ph, "wall", "avg")),
                    fixed(opt_field(ph.at("wall"), "imbalance", 1.0)),
                    sci(stat(ph, "msgs_sent", "sum")),
                    sci(stat(ph, "bytes_sent", "sum"))});
      }
      std::printf("Setup breakdown (sort/tree | LET+ghost | partition):\n"
                  "%s\n",
                  st.str().c_str());
    }
    // Incremental-repair counters, amortized per update step. Absent
    // on pure setup()+evaluate() runs.
    const double steps = metric_sum(metrics, "setup.incr.steps");
    if (steps > 0.0) {
      std::printf(
          "Incremental setup: %s update step(s), %s repartition(s)\n",
          sci(steps).c_str(),
          sci(std::max(0.0, metric_sum(metrics, "setup.incr.repartitions")))
              .c_str());
      Table incr({"Counter", "Sum", "Per step"});
      for (const std::string& key : metrics.keys()) {
        if (key.rfind("setup.incr.", 0) != 0 || key == "setup.incr.steps")
          continue;
        const double sum = metric_sum(metrics, key);
        incr.add_row({key.substr(11), sci(sum), sci(sum / steps)});
      }
      std::printf("%s\n", incr.str().c_str());
    }
  }

  // --- 1c. Numerical health (FmmOptions::health runs only).
  if (doc.contains("health")) {
    const obs::Json& h = doc.at("health");
    const obs::Json& sample = h.at("sample");
    const obs::Json& sent = h.at("sentinels");
    const obs::Json& dig = h.at("digests");
    const obs::Json& drift = h.at("drift");
    std::printf("Numerical health (%s evaluation(s)):\n",
                sci(h.at("steps").as_double()).c_str());
    const double count = sample.at("count").as_double();
    if (count > 0.0)
      std::printf("  sampled accuracy: rel l2 err %s over %s target(s) "
                  "(vs direct summation)\n",
                  sci(sample.at("rel_err").as_double()).c_str(),
                  sci(count).c_str());
    else
      std::printf("  sampled accuracy: no targets sampled "
                  "(health_sample_rate 0 or tiny)\n");
    const double nonfinite = sent.at("nonfinite").as_double();
    const double violations = sent.at("moment_violations").as_double();
    const double injected = sent.at("injected").as_double();
    std::printf("  sentinels: %s non-finite, %s moment violation(s) "
                "(max rel %s), %s injected\n",
                sci(nonfinite).c_str(), sci(violations).c_str(),
                sci(sent.at("moment_max_rel").as_double()).c_str(),
                sci(injected).c_str());
    const bool ghost_ok = dig.at("ghost_match").as_bool();
    const bool payload_ok = dig.at("payload_match").as_bool();
    std::printf("  digests: ghost transit %s | payload transit %s\n",
                ghost_ok ? "MATCH" : "MISMATCH",
                payload_ok ? "MATCH" : "MISMATCH");
    const double dsteps = drift.at("steps").as_double();
    const double dwarn = drift.at("warnings").as_double();
    if (dsteps > 0.0)
      std::printf("  drift: %s step(s), %s warning(s), max step err %s\n",
                  sci(dsteps).c_str(), sci(dwarn).c_str(),
                  sci(drift.at("err_max").as_double()).c_str());
    if (nonfinite > 0.0)
      std::printf("  WARNING: non-finite values detected in equivalent "
                  "densities / potentials\n");
    if (violations > 0.0)
      std::printf("  WARNING: root-moment invariant violated — multipole "
                  "moments disagree\n  with summed source densities\n");
    if (!ghost_ok)
      std::printf("  WARNING: ghost-density digests disagree between owner "
                  "and consumer ranks\n");
    if (!payload_ok)
      std::printf("  WARNING: message payload digests disagree between "
                  "send and receive sides\n");
    if (dwarn > 0.0)
      std::printf("  WARNING: sampled error drifted past %gx the "
                  "early-step baseline\n",
                  obs::kDriftRatio);
    if (injected > 0.0)
      std::printf("  note: %s corruption(s) were fault-injected "
                  "(PKIFMM_INJECT_CORRUPTION)\n",
                  sci(injected).c_str());
    std::printf("\n");
  }

  // --- 2. Roofline classification. Rates are cluster-level: summed
  // flops over the phase's max wall across ranks. Bytes moved are
  // estimated as LLC misses x 64B cache lines — an undercount with
  // hardware prefetching, so the printed intensity is an upper bound.
  // The ridge point peak_gflops/peak_gbs splits bandwidth- from
  // compute-bound; "roof util" is achieved / roofline(AI).
  {
    const double ranks_perf = metric_sum(metrics, "hw.ranks_perf");
    const double ranks_fb = metric_sum(metrics, "hw.ranks_fallback");
    const double ridge = peak_gflops / peak_gbs;  // flop/byte
    Table roof({"Phase", "GFLOP/s", "AI (F/B)", "IPC", "L1d/KI", "LLC/KI",
                "Br/KI", "Bound", "Roof util"});
    for (const std::string& name : names) {
      const obs::Json& ph = phases.at(name);
      const double flops = stat(ph, "flops", "sum");
      const double wall = stat(ph, "wall", "max");
      if (wall <= 1e-9) continue;  // rates over ~zero time are noise
      const double cycles = metric_sum(metrics, "hw." + name + ".cycles");
      const double instr =
          metric_sum(metrics, "hw." + name + ".instructions");
      const double l1d = metric_sum(metrics, "hw." + name + ".l1d_misses");
      const double llc = metric_sum(metrics, "hw." + name + ".llc_misses");
      const double br =
          metric_sum(metrics, "hw." + name + ".branch_misses");
      // Flopless phases (comm, bookkeeping) only earn a row when hw
      // counters give them content; their flop-derived columns are "-"
      // rather than 0.00/inf garbage.
      if (flops <= 0.0 && instr <= 0.0) continue;
      std::string gfs_s = "-", ai = "-", ipc = "-", l1dki = "-",
                  llcki = "-", brki = "-", bound = "-", util = "-";
      if (instr > 0.0 && cycles > 0.0) ipc = fixed(instr / cycles);
      if (instr > 0.0) {
        if (l1d >= 0.0) l1dki = fixed(1e3 * l1d / instr);
        if (llc >= 0.0) llcki = fixed(1e3 * llc / instr);
        if (br >= 0.0) brki = fixed(1e3 * br / instr);
      }
      if (flops > 0.0) {
        const double gfs = flops / wall / 1e9;
        gfs_s = fixed(gfs);
        if (llc > 0.0) {
          const double intensity = flops / (llc * 64.0);
          ai = fixed(intensity);
          bound = intensity < ridge ? "bandwidth" : "compute";
          const double roofline =
              std::min(peak_gflops, intensity * peak_gbs);
          util = bar(gfs / roofline, 1.0, 12);
        }
      }
      roof.add_row({name, gfs_s, ai, ipc, l1dki, llcki, brki, bound,
                    util});
    }
    std::printf(
        "Roofline (peak %.1f GFLOP/s, %.1f GB/s, ridge %.2f flop/byte):\n%s",
        peak_gflops, peak_gbs, ridge, roof.str().c_str());
    if (ranks_perf <= 0.0)
      std::printf(
          "note: no rank had perf_event_open access (%d/%d fallback) — "
          "hw-derived\ncolumns are '-'; GFLOP/s uses analytic flop counts "
          "over wall time.\n",
          static_cast<int>(ranks_fb < 0.0 ? 0.0 : ranks_fb),
          static_cast<int>((ranks_perf < 0.0 ? 0.0 : ranks_perf) +
                           (ranks_fb < 0.0 ? 0.0 : ranks_fb)));
    else if (metrics.contains("sched.workers") &&
             metric_sum(metrics, "sched.workers") > 0.0)
      std::printf(
          "note: hw counters cover rank threads only — TaskPool worker "
          "lanes are\nuncounted, so hw-derived columns understate "
          "multi-lane phases.\n");
    std::printf("\n");
  }

  // --- 3. Top-k phases by wall-time imbalance. Phases with negligible
  // time are skipped: max/avg over microseconds is noise, not signal.
  std::vector<std::string> ranked;
  for (const std::string& name : names)
    if (stat(phases.at(name), "wall", "max") > 1e-6) ranked.push_back(name);
  std::sort(ranked.begin(), ranked.end(),
            [&](const std::string& a, const std::string& b) {
              return opt_field(phases.at(a).at("wall"), "imbalance", 1.0) >
                     opt_field(phases.at(b).at("wall"), "imbalance", 1.0);
            });
  if (ranked.size() > top_k) ranked.resize(top_k);

  Table imbalance({"Phase", "Imbalance", "Max Wall", "Avg Wall", "Bar"});
  for (const std::string& name : ranked) {
    const obs::Json& ph = phases.at(name);
    const double imb = opt_field(ph.at("wall"), "imbalance", 1.0);
    imbalance.add_row({name, fixed(imb), sci(stat(ph, "wall", "max")),
                       sci(stat(ph, "wall", "avg")), bar(imb, 4.0, 16)});
  }
  std::printf("Top-%zu phases by wall-time imbalance (max/avg):\n%s\n",
              ranked.size(), imbalance.str().c_str());

  // --- 4. Intra-rank scheduler, when the run drove a task pool.
  std::vector<std::string> lanes;  // "sched.busy.w<k>" keys, lane order
  for (const std::string& key : metrics.keys())
    if (key.rfind("sched.busy.w", 0) == 0) lanes.push_back(key);
  std::sort(lanes.begin(), lanes.end(),
            [](const std::string& a, const std::string& b) {
              return std::stoi(a.substr(12)) < std::stoi(b.substr(12));
            });
  if (!lanes.empty()) {
    const double lifetime =
        metrics.at("sched.lifetime_seconds").at("sum").as_double();
    std::printf(
        "Intra-rank scheduler (%s tasks, %s steals across ranks):\n",
        sci(metrics.at("sched.tasks").at("sum").as_double()).c_str(),
        sci(metrics.at("sched.steals").at("sum").as_double()).c_str());
    Table sched({"Lane", "Busy (s)", "Busy frac", "Bar"});
    for (const std::string& key : lanes) {
      const double busy = metrics.at(key).at("sum").as_double();
      const double frac = lifetime > 0.0 ? busy / lifetime : 0.0;
      const std::string lane = key.substr(12);
      sched.add_row({lane == "0" ? "0 (rank thread)" : lane, sci(busy),
                     fixed(frac), bar(frac, 1.0, 16)});
    }
    std::printf("%s", sched.str().c_str());
    if (metrics.contains("sched.uli.busy_seconds")) {
      const double uli_busy =
          metrics.at("sched.uli.busy_seconds").at("sum").as_double();
      const double uli_overlap =
          metrics.at("sched.uli.overlap_seconds").at("sum").as_double();
      std::printf(
          "ULI overlap efficiency: %.2f (%s of %s ULI-busy seconds ran\n"
          "concurrently with the far-field V/X/W + downward pipeline)\n",
          uli_busy > 0.0 ? uli_overlap / uli_busy : 0.0, sci(uli_overlap).c_str(),
          sci(uli_busy).c_str());
    }
    std::printf("\n");
  }

  // --- 5. Message-flow waits (--flow-trace runs only).
  if (doc.contains("flow")) {
    const obs::Json& flow = doc.at("flow");
    std::printf(
        "Message-flow waits: %s matched msgs (%s late-sender, %s "
        "late-receiver),\n%s unmatched, %s ring-dropped, %s probes\n",
        sci(flow.at("matched").as_double()).c_str(),
        sci(flow.at("late_sender").as_double()).c_str(),
        sci(flow.at("late_receiver").as_double()).c_str(),
        sci(flow.at("unmatched_sends").as_double() +
            flow.at("unmatched_recvs").as_double())
            .c_str(),
        sci(flow.at("dropped").as_double()).c_str(),
        sci(flow.at("probes").as_double()).c_str());
    // Ring overflow silently biases every wait figure below: dropped
    // events mean unmatched sends/recvs whose wait time is simply
    // missing. Make that loud instead of one number in the line above.
    const double dropped = flow.at("dropped").as_double();
    if (dropped > 0.0)
      std::printf(
          "  WARNING: %s flow event(s) dropped (ring full) — wait/latency "
          "figures\n  below UNDERCOUNT; re-run with a larger "
          "--flow-capacity.\n",
          sci(dropped).c_str());

    Table waits({"Phase", "Wall (s)", "Compute", "Comm wait", "Pool idle",
                 "Wait frac", "Bar"});
    for (const std::string& name : names) {
      const obs::Json& ph = phases.at(name);
      if (!ph.contains("decomp")) continue;
      const obs::Json& d = ph.at("decomp");
      const double wall = d.at("wall").as_double();
      if (wall <= 1e-6) continue;
      const double wait = d.at("comm_wait").as_double();
      const double frac = wait / wall;
      waits.add_row({name, sci(wall), sci(d.at("compute").as_double()),
                     sci(wait), sci(d.at("pool_idle").as_double()),
                     fixed(frac), bar(frac, 1.0, 16)});
    }
    std::printf("Per-phase wall decomposition (summed across ranks):\n%s",
                waits.str().c_str());

    Table cpath({"Phase", "Makespan", "Graph path", "Compute leg",
                 "Transfer leg"});
    bool any_graph = false;
    for (const std::string& name : names) {
      const obs::Json& ph = phases.at(name);
      if (!ph.contains("critical_path_graph")) continue;
      any_graph = true;
      cpath.add_row(
          {name, sci(ph.at("critical_path").as_double()),
           sci(ph.at("critical_path_graph").as_double()),
           sci(ph.at("critical_path_graph_compute").as_double()),
           sci(ph.at("critical_path_graph_transfer").as_double())});
    }
    if (any_graph)
      std::printf(
          "Critical path, graph-based (dependency chain through binding "
          "receives):\n%s",
          cpath.str().c_str());

    // Late senders, aggregated over destinations: who to look at first
    // when a phase is wait-bound.
    struct SrcAgg {
      int src;
      double late_msgs, wait_s;
    };
    std::vector<SrcAgg> senders;
    const obs::Json& pairs = flow.at("pairs");
    for (const obs::Json& p : pairs.items()) {
      const int src = static_cast<int>(p.at("src").as_int());
      auto it = std::find_if(senders.begin(), senders.end(),
                             [&](const SrcAgg& s) { return s.src == src; });
      if (it == senders.end()) {
        senders.push_back({src, 0.0, 0.0});
        it = senders.end() - 1;
      }
      it->late_msgs += p.at("late_sender_msgs").as_double();
      it->wait_s += p.at("wait_seconds").as_double();
    }
    std::sort(senders.begin(), senders.end(),
              [](const SrcAgg& a, const SrcAgg& b) {
                return a.wait_s > b.wait_s;
              });
    if (senders.size() > top_k) senders.resize(top_k);
    double wait_max = senders.empty() ? 0.0 : senders.front().wait_s;
    Table late({"Src rank", "Late msgs", "Wait inflicted (s)", "Bar"});
    for (const SrcAgg& s : senders)
      late.add_row({std::to_string(s.src), sci(s.late_msgs), sci(s.wait_s),
                    bar(wait_max > 0.0 ? s.wait_s / wait_max : 0.0, 1.0,
                        16)});
    std::printf("Top-%zu late-sender ranks (by blocked time inflicted):\n%s",
                senders.size(), late.str().c_str());

    // Per-pair latency table, worst (by inflicted wait) first.
    std::vector<const obs::Json*> plist;
    for (const obs::Json& p : pairs.items()) plist.push_back(&p);
    std::sort(plist.begin(), plist.end(),
              [](const obs::Json* a, const obs::Json* b) {
                return a->at("wait_seconds").as_double() >
                       b->at("wait_seconds").as_double();
              });
    if (plist.size() > top_k) plist.resize(top_k);
    Table lat({"Src->Dst", "Msgs", "Bytes", "Lat p50 (s)", "Lat p95 (s)",
               "Lat max (s)", "Wait (s)"});
    for (const obs::Json* p : plist)
      lat.add_row({std::to_string(p->at("src").as_int()) + "->" +
                       std::to_string(p->at("dst").as_int()),
                   sci(p->at("msgs").as_double()),
                   sci(p->at("bytes").as_double()),
                   sci(p->at("latency_p50").as_double()),
                   sci(p->at("latency_p95").as_double()),
                   sci(p->at("latency_max").as_double()),
                   sci(p->at("wait_seconds").as_double())});
    std::printf("Message latency by (src, dst) pair:\n%s\n",
                lat.str().c_str());
  }

  // --- 6. Communication-matrix heatmaps.
  const obs::Json& matrices = doc.at("comm_matrix");
  std::printf("Communication matrices:\n");
  bool printed = false;
  for (const std::string& phase : matrices.keys()) {
    if (!want_phase.empty() && phase != want_phase) continue;
    const obs::Json& mat = matrices.at(phase).at(matrix_metric);
    if (want_phase.empty() && matrix_total(mat) <= 0.0) continue;
    print_heatmap(phase, matrix_metric, mat);
    printed = true;
  }
  if (!printed) {
    if (!want_phase.empty() && !matrices.contains(want_phase)) {
      std::fprintf(stderr, "pkifmm_report: no comm matrix for phase '%s'\n",
                   want_phase.c_str());
      return 2;
    }
    std::printf("  (no point-to-point traffic recorded)\n");
  }
  return 0;
}

int main(int argc, char** argv) {
  // Missing files and schema violations surface as CheckFailure from
  // read_json_file/validate_summary_json: print them and exit 2.
  return util::guarded_main(argc, argv, run, 2);
}
