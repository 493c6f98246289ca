/// Message-flow tracing and wait-state attribution tests: the
/// FlowRecorder ring/seq/wait contracts, the off-by-default zero-cost
/// guarantee (counters ABSENT, not zero), Chrome flow arrows and the
/// derived multi-run pid stride, the summary's compute/comm-wait/
/// pool-idle decomposition and graph-based critical path against
/// hand-computed values, and the trend layer's warn-only (or --strict)
/// wait_seconds gate.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "comm/comm.hpp"
#include "core/fmm.hpp"
#include "kernels/kernel.hpp"
#include "obs/aggregate.hpp"
#include "obs/export.hpp"
#include "obs/flow.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trend.hpp"
#include "octree/points.hpp"

namespace pkifmm::obs {
namespace {

// ---------------------------------------------------- FlowRecorder

TEST(FlowRecorder, RingDropsNewestAndCountsWhenFull) {
  FlowRecorder fr(4);
  for (int i = 0; i < 6; ++i) fr.on_send(1, 7, 100);
  EXPECT_EQ(fr.events(), 4u);
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.dropped(), 2u);
  EXPECT_EQ(fr.sends(), 6u);  // totals keep counting past the drop

  RankMetrics m;
  fr.fold_into(m);
  EXPECT_DOUBLE_EQ(m.counters.at("flow.events"), 4.0);
  EXPECT_DOUBLE_EQ(m.counters.at("flow.dropped"), 2.0);
  EXPECT_DOUBLE_EQ(m.counters.at("flow.sends"), 6.0);
  EXPECT_EQ(m.flows.size(), 4u);
}

TEST(FlowRecorder, SeqIsMonotonicPerDirectionPeerTag) {
  FlowRecorder fr(16);
  fr.on_send(1, 7, 10);
  fr.on_send(2, 7, 10);               // different peer: own stream
  fr.on_send(1, 7, 10);
  fr.on_send(1, 8, 10);               // different tag: own stream
  fr.on_recv(1, 7, 10, 0.0, 0.0, false);  // recvs count independently
  fr.on_recv(1, 7, 10, 0.0, 0.1, true);

  RankMetrics m;
  fr.fold_into(m);
  ASSERT_EQ(m.flows.size(), 6u);
  // Per-(direction, peer, tag) occurrence order, in record order.
  std::map<std::tuple<int, int, int>, std::int32_t> expect_next;
  for (const FlowEvent& e : m.flows) {
    const int dir = e.kind == FlowEvent::kSend ? 0 : 1;
    const std::int32_t want =
        expect_next[std::make_tuple(dir, e.peer, e.tag)]++;
    EXPECT_EQ(e.seq, want);
  }
  // Spot checks: sends to (1,7) got 0,1; the send to (2,7) restarted
  // at 0; recvs from (1,7) restarted at 0 despite the sends.
  EXPECT_EQ(m.flows[0].seq, 0);
  EXPECT_EQ(m.flows[1].seq, 0);
  EXPECT_EQ(m.flows[2].seq, 1);
  EXPECT_EQ(m.flows[3].seq, 0);
  EXPECT_EQ(m.flows[4].seq, 0);
  EXPECT_EQ(m.flows[5].seq, 1);
}

TEST(FlowRecorder, WaitCountersAccumulatePerPhase) {
  FlowRecorder fr(16);
  fr.set_phase("eval.comm");
  fr.on_recv(0, 3, 8, 1.0, 1.5, true);   // 0.5 s blocked
  fr.on_recv(0, 3, 8, 2.0, 2.2, true);   // 0.2 s blocked
  fr.on_recv(0, 3, 8, 3.0, 3.0, false);  // hit, no wait
  fr.set_phase("setup.let");
  fr.on_send(1, 2, 4);  // sends only: phase gets NO wait counters

  RankMetrics m;
  fr.fold_into(m);
  EXPECT_NEAR(m.counters.at("wait.eval.comm.seconds"), 0.7, 1e-12);
  EXPECT_DOUBLE_EQ(m.counters.at("wait.eval.comm.recvs"), 3.0);
  EXPECT_DOUBLE_EQ(m.counters.at("wait.eval.comm.blocked"), 2.0);
  // Worst single wait, not a sum.
  EXPECT_NEAR(m.counters.at("wait.eval.comm.max_seconds"), 0.5, 1e-12);
  EXPECT_EQ(m.counters.count("wait.setup.let.seconds"), 0u);
  EXPECT_EQ(m.counters.count("wait.default.seconds"), 0u);
}

TEST(FlowRecorder, RecorderSnapshotFoldsTheRing) {
  Recorder rec;
  EXPECT_EQ(rec.flow(), nullptr);  // off until enabled
  FlowRecorder& fr = rec.enable_flow(8);
  EXPECT_EQ(&rec.enable_flow(2), &fr);  // idempotent: the first ring stays
  EXPECT_EQ(fr.capacity(), 8u);
  EXPECT_EQ(fr.epoch(), rec.epoch());
  fr.set_phase("eval.comm");
  fr.on_send(1, 2, 64);
  fr.on_recv(1, 2, 32, 0.5, 0.9, true);
  fr.on_probe();

  RankMetrics folded;
  fr.fold_into(folded);
  // The live store holds no flow data: each snapshot folds the ring
  // afresh, so taking two never double-counts.
  EXPECT_TRUE(rec.metrics().flows.empty());
  EXPECT_EQ(rec.metrics().counters.count("flow.sends"), 0u);
  for (int pass = 0; pass < 2; ++pass) {
    const RankMetrics m = rec.snapshot();
    EXPECT_EQ(m.counters, folded.counters);
    EXPECT_DOUBLE_EQ(m.counters.at("flow.probes"), 1.0);
    ASSERT_EQ(m.flows.size(), 2u);
    EXPECT_GE(m.flows[0].seq, 0);
    ASSERT_EQ(m.flow_phases.size(), 2u);  // "default", "eval.comm"
    EXPECT_EQ(m.flow_phases[1], "eval.comm");
  }
}

// ------------------------------------------------ export / traces

/// Minimal two-rank snapshot with one matched message: rank 0 sends,
/// rank 1 receives blocked. Times are on each rank's own epoch.
std::vector<RankMetrics> flow_pair_ranks() {
  std::vector<RankMetrics> ranks(2);
  for (int r = 0; r < 2; ++r) {
    RankMetrics& rm = ranks[static_cast<std::size_t>(r)];
    rm.rank = r;
    rm.flow_phases = {"eval.comm"};
    SpanEvent sp;
    sp.name = "eval.comm";
    sp.start = 0.0;
    sp.wall = 2.0;
    sp.cpu = r == 0 ? 1.9 : 0.5;
    rm.spans.push_back(sp);
  }
  ranks[0].gauges["obs.epoch"] = 10.0;
  ranks[1].gauges["obs.epoch"] = 10.5;

  FlowEvent send;
  send.kind = FlowEvent::kSend;
  send.peer = 1;
  send.tag = 5;
  send.seq = 0;
  send.phase = 0;
  send.bytes = 256;
  send.t0 = send.t1 = 1.5;  // abs 11.5
  ranks[0].flows.push_back(send);

  FlowEvent recv;
  recv.kind = FlowEvent::kRecvBlocked;
  recv.peer = 0;
  recv.tag = 5;
  recv.seq = 0;
  recv.phase = 0;
  recv.bytes = 256;
  recv.t0 = 0.2;  // abs 10.7: blocked before the send fired
  recv.t1 = 1.2;  // abs 11.7
  ranks[1].flows.push_back(recv);
  ranks[1].counters["wait.eval.comm.seconds"] = 1.0;
  ranks[1].counters["wait.eval.comm.recvs"] = 1.0;
  ranks[1].counters["wait.eval.comm.blocked"] = 1.0;
  ranks[1].counters["wait.eval.comm.max_seconds"] = 1.0;
  return ranks;
}

TEST(Export, MetricsJsonRoundTripsFlows) {
  const auto ranks = flow_pair_ranks();
  const Json doc = metrics_to_json(ranks);
  validate_metrics_json(doc);
  const auto back = metrics_from_json(doc);
  ASSERT_EQ(back.size(), 2u);
  ASSERT_EQ(back[0].flows.size(), 1u);
  EXPECT_EQ(back[0].flows[0].kind, FlowEvent::kSend);
  EXPECT_EQ(back[0].flows[0].peer, 1);
  EXPECT_EQ(back[0].flows[0].seq, 0);
  EXPECT_EQ(back[0].flow_phases, ranks[0].flow_phases);
  EXPECT_EQ(metrics_to_json(back), doc);

  // The validator rejects out-of-range kinds: rebuild rank 0 with a
  // corrupted flow row appended (Json is a value type — set() swaps
  // whole subtrees).
  Json r0 = doc.at("ranks").at(0);
  Json flows = r0.at("flows");
  Json row = Json::array();
  for (int v : {9, 0, 0, 0, 0, 0, 0, 0}) row.push_back(Json(std::int64_t{v}));
  flows.push_back(std::move(row));
  r0.set("flows", std::move(flows));
  Json ranks_arr = Json::array();
  ranks_arr.push_back(std::move(r0));
  ranks_arr.push_back(doc.at("ranks").at(1));
  Json bad = doc;
  bad.set("ranks", std::move(ranks_arr));
  EXPECT_ANY_THROW(validate_metrics_json(bad));
}

TEST(Export, ChromeTraceDrawsFlowArrowsAndWaitSlices) {
  const Json doc = chrome_trace_json(flow_pair_ranks());
  const Json* s_ev = nullptr;
  const Json* f_ev = nullptr;
  const Json* wait_ev = nullptr;
  for (const Json& ev : doc.at("traceEvents").items()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "s") s_ev = &ev;
    if (ph == "f") f_ev = &ev;
    if (ph == "X" && ev.contains("cat") &&
        ev.at("cat").as_string() == "wait")
      wait_ev = &ev;
  }
  ASSERT_NE(s_ev, nullptr);
  ASSERT_NE(f_ev, nullptr);
  ASSERT_NE(wait_ev, nullptr);

  // The arrow's id is rank-symmetric: both endpoints derive the same
  // "f:<src>:<dst>:<tag>:<seq>" without coordination.
  EXPECT_EQ(s_ev->at("id").as_string(), "f:0:1:5:0");
  EXPECT_EQ(f_ev->at("id").as_string(), "f:0:1:5:0");
  EXPECT_EQ(s_ev->at("pid").as_int(), 0);
  EXPECT_EQ(f_ev->at("pid").as_int(), 1);
  EXPECT_EQ(f_ev->at("bp").as_string(), "e");
  // Epoch-aligned: sender stamped at abs 11.5, receiver dequeue 11.7,
  // so the arrow points forward in time.
  EXPECT_DOUBLE_EQ(s_ev->at("ts").as_double(), 11.5 * 1e6);
  EXPECT_DOUBLE_EQ(f_ev->at("ts").as_double(), 11.7 * 1e6);
  EXPECT_LT(s_ev->at("ts").as_double(), f_ev->at("ts").as_double());

  // The blocked receive became a wait.<phase> slice of the block span.
  EXPECT_EQ(wait_ev->at("name").as_string(), "wait.eval.comm");
  EXPECT_DOUBLE_EQ(wait_ev->at("ts").as_double(), 10.7 * 1e6);
  EXPECT_DOUBLE_EQ(wait_ev->at("dur").as_double(), 1.0 * 1e6);
  EXPECT_EQ(wait_ev->at("args").at("src").as_int(), 0);
}

TEST(Export, MergeChromeTracesDerivesStrideFromActualRankCount) {
  // Regression for the fixed 1<<20 stride: a run whose pids reach the
  // old stride must still land in its own block, and a small sweep
  // must not leave 2^20-wide gaps. Stride = max(pid)+1 across runs.
  auto run_doc = [](std::vector<std::int64_t> pids, const std::string& id) {
    Json events = Json::array();
    for (std::int64_t pid : pids) {
      Json meta = Json::object();
      meta.set("ph", "M");
      meta.set("name", "process_name");
      meta.set("pid", pid);
      Json args = Json::object();
      args.set("name", "rank " + std::to_string(pid));
      meta.set("args", std::move(args));
      events.push_back(std::move(meta));

      Json ev = Json::object();
      ev.set("ph", "s");
      ev.set("id", id);
      ev.set("pid", pid);
      ev.set("ts", 1.0);
      events.push_back(std::move(ev));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    return doc;
  };

  const std::int64_t big = std::int64_t{1} << 20;  // the old fixed stride
  const Json merged = merge_chrome_traces(
      {run_doc({0, 1, big}, "f:0:1:7:0"), run_doc({0, 1}, "f:0:1:7:0")});

  std::set<std::int64_t> run0_pids, run1_pids;
  std::set<std::string> ids;
  std::set<std::string> proc_names;
  for (const Json& ev : merged.at("traceEvents").items()) {
    if (ev.contains("id")) ids.insert(ev.at("id").as_string());
    if (ev.at("ph").as_string() == "M")
      proc_names.insert(ev.at("args").at("name").as_string());
    (ev.at("pid").as_int() > big ? run1_pids : run0_pids)
        .insert(ev.at("pid").as_int());
  }
  // Run 0 keeps its pids; run 1 is shifted by exactly big + 1.
  EXPECT_EQ(run0_pids, (std::set<std::int64_t>{0, 1, big}));
  EXPECT_EQ(run1_pids, (std::set<std::int64_t>{big + 1, big + 2}));
  // Flow ids are disambiguated per run so arrows never cross runs.
  EXPECT_EQ(ids,
            (std::set<std::string>{"r0:f:0:1:7:0", "r1:f:0:1:7:0"}));
  EXPECT_TRUE(proc_names.count("run0 rank 0"));
  EXPECT_TRUE(proc_names.count("run1 rank 1"));
}

// --------------------------------------------------- aggregation

TEST(Aggregate, FlowDecompClassificationAndGraphPath) {
  const Json doc = summarize_metrics(flow_pair_ranks());
  validate_summary_json(doc);

  // Matching + classification: one message, sent at abs 11.5 while the
  // receiver had been blocked since 10.7 — a late sender.
  const Json& flow = doc.at("flow");
  EXPECT_DOUBLE_EQ(flow.at("matched").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(flow.at("unmatched_sends").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(flow.at("unmatched_recvs").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(flow.at("late_sender").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(flow.at("late_receiver").as_double(), 0.0);

  const auto& pairs = flow.at("pairs").items();
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].at("src").as_int(), 0);
  EXPECT_EQ(pairs[0].at("dst").as_int(), 1);
  EXPECT_DOUBLE_EQ(pairs[0].at("msgs").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(pairs[0].at("late_sender_msgs").as_double(), 1.0);
  // Latency = dequeue - send = 11.7 - 11.5; wait = dequeue - block.
  EXPECT_NEAR(pairs[0].at("latency_p50").as_double(), 0.2, 1e-12);
  EXPECT_NEAR(pairs[0].at("latency_max").as_double(), 0.2, 1e-12);
  EXPECT_NEAR(pairs[0].at("wait_seconds").as_double(), 1.0, 1e-12);

  // Decomposition, hand-computed: rank 0 contributes compute 1.9 +
  // idle 0.1; rank 1 compute 0.5 + wait 1.0 + idle 0.5; wall 4.0.
  const Json& ph = doc.at("phases").at("eval.comm");
  const Json& d = ph.at("decomp");
  EXPECT_NEAR(d.at("compute").as_double(), 2.4, 1e-12);
  EXPECT_NEAR(d.at("comm_wait").as_double(), 1.0, 1e-12);
  EXPECT_NEAR(d.at("pool_idle").as_double(), 0.6, 1e-12);
  EXPECT_NEAR(d.at("wall").as_double(), 4.0, 1e-12);
  // The acceptance invariant: the three legs sum to wall.
  EXPECT_NEAR(d.at("compute").as_double() + d.at("comm_wait").as_double() +
                  d.at("pool_idle").as_double(),
              d.at("wall").as_double(), 1e-9);

  // Slack vs the [10, 12.5] makespan: both ranks busy 2.0 of 2.5.
  EXPECT_NEAR(ph.at("critical_path").as_double(), 2.5, 1e-12);
  EXPECT_NEAR(ph.at("slack").at("avg").as_double(), 0.5, 1e-12);

  // Graph critical path from the latest-ending rank (rank 1, 12.5):
  // compute back to the binding recv (12.5 - 11.7), transfer across
  // the message (11.7 - 11.5), then rank 0's compute back to its
  // phase start (11.5 - 10.0). Exactly the 2.5 s makespan here.
  EXPECT_NEAR(ph.at("critical_path_graph_compute").as_double(),
              0.8 + 1.5, 1e-12);
  EXPECT_NEAR(ph.at("critical_path_graph_transfer").as_double(), 0.2,
              1e-12);
  EXPECT_NEAR(ph.at("critical_path_graph").as_double(), 2.5, 1e-12);
}

TEST(Aggregate, NoFlowSectionWithoutFlows) {
  std::vector<RankMetrics> ranks(1);
  ranks[0].counters["time.eval.uli.wall"] = 1.0;
  ranks[0].counters["time.eval.uli.cpu"] = 1.0;
  const Json doc = summarize_metrics(ranks);
  validate_summary_json(doc);
  EXPECT_FALSE(doc.contains("flow"));
  EXPECT_FALSE(doc.at("phases").at("eval.uli").contains("decomp"));
  EXPECT_FALSE(doc.at("phases").at("eval.uli").contains("slack"));
}

// -------------------------------------------------------- trend

Json synth_run_record(const std::string& sha, double wall, double wait) {
  Json rec = Json::object();
  rec.set("schema", kRunSchema);
  rec.set("bench", "bench_x");
  rec.set("git_sha", sha);
  rec.set("nranks", std::int64_t{2});
  rec.set("nruns", std::int64_t{1});
  rec.set("hw_source", "none");
  rec.set("config", Json::object());
  Json ph = Json::object();
  ph.set("wall", wall);
  ph.set("cpu", wall);
  ph.set("flops", 1e6);
  ph.set("msgs_sent", 100.0);
  ph.set("bytes_sent", 1e5);
  ph.set("wait_seconds", wait);
  Json phases = Json::object();
  phases.set("eval", std::move(ph));
  rec.set("phases", std::move(phases));
  return rec;
}

TEST(Trend, WaitSecondsRegressionWarnsByDefault) {
  std::vector<Json> recs;
  for (int i = 0; i < 4; ++i)
    recs.push_back(synth_run_record("ref" + std::to_string(i), 1.0, 0.1));
  recs.push_back(synth_run_record("fresh", 1.0, 10.0));  // 100x the wait

  const Json report = trend_analyze(recs, TrendOptions{});
  EXPECT_TRUE(report.at("ok").as_bool());  // warn-only by default
  EXPECT_EQ(report.at("regressions").size(), 0u);
  ASSERT_EQ(report.at("warnings").size(), 1u);
  const Json& w = report.at("warnings").items()[0];
  EXPECT_EQ(w.at("metric").as_string(), "wait_seconds");
  EXPECT_NEAR(w.at("reference").as_double(), 0.1, 1e-12);
  EXPECT_NEAR(w.at("fresh").as_double(), 10.0, 1e-12);
}

TEST(Trend, StrictPromotesWarningsToFailure) {
  std::vector<Json> recs;
  for (int i = 0; i < 4; ++i)
    recs.push_back(synth_run_record("ref" + std::to_string(i), 1.0, 0.1));
  recs.push_back(synth_run_record("fresh", 1.0, 10.0));

  TrendOptions strict;
  strict.strict = true;
  const Json report = trend_analyze(recs, strict);
  EXPECT_FALSE(report.at("ok").as_bool());
  // Still reported as a warning (the finding class does not change —
  // only the verdict does), and hard regressions stay empty.
  EXPECT_EQ(report.at("regressions").size(), 0u);
  EXPECT_EQ(report.at("warnings").size(), 1u);

  // A clean history is ok under strict too.
  std::vector<Json> clean;
  for (int i = 0; i < 5; ++i)
    clean.push_back(synth_run_record("c" + std::to_string(i), 1.0, 0.1));
  EXPECT_TRUE(trend_analyze(clean, strict).at("ok").as_bool());
}

TEST(Trend, RunRecordCarriesWaitSeconds) {
  const Json summary = summarize_metrics(flow_pair_ranks());
  const Json rec =
      run_record_from_summary(summary, "bench_x", "sha", Json::object());
  validate_run_json(rec);
  const Json& ph = rec.at("phases").at("eval.comm");
  ASSERT_TRUE(ph.contains("wait_seconds"));
  // Cross-rank sum of wait.eval.comm.seconds: only rank 1 waited.
  EXPECT_NEAR(ph.at("wait_seconds").as_double(), 1.0, 1e-12);
}

// --------------------------------------------------- integration

core::FmmOptions small_opts(bool flow_trace) {
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 20;
  opts.flow_trace = flow_trace;
  return opts;
}

std::vector<comm::RankReport> run_small_fmm(const core::Tables& tables,
                                            int p, int threads = 1) {
  return comm::Runtime::run(p, threads, /*clamp=*/true,
                            [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(octree::Distribution::kEllipsoid,
                                       2000, ctx.rank(), ctx.size(), 1, 42);
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    (void)fmm.evaluate();
  });
}

TEST(FlowIntegration, CountersAbsentWhenFlowTraceOff) {
  kernels::LaplaceKernel kernel;
  const core::Tables tables(kernel, small_opts(false));
  const auto reports = run_small_fmm(tables, 2);
  for (const auto& rep : reports) {
    EXPECT_TRUE(rep.flows.empty());
    EXPECT_TRUE(rep.flow_phases.empty());
    // The zero-overhead contract: no flow.* / wait.* counters AT ALL —
    // absent, not zero.
    for (const auto& [name, v] : rep.counters) {
      EXPECT_FALSE(name.starts_with("flow.")) << name;
      EXPECT_FALSE(name.starts_with("wait.")) << name;
    }
  }
}

TEST(FlowIntegration, TracedRunMatchesAndDecomposes) {
  kernels::LaplaceKernel kernel;
  core::FmmOptions opts = small_opts(true);
  opts.threads_per_rank = 4;  // the acceptance shape: 4 ranks x 4 threads
  const core::Tables tables(kernel, opts);

  constexpr int kP = 4;
  std::vector<Json> summaries(kP);
  const auto reports = comm::Runtime::run(
      kP, opts.threads_per_rank, /*clamp=*/true, [&](comm::RankCtx& ctx) {
        auto pts = octree::generate_points(
            octree::Distribution::kEllipsoid, 2000, ctx.rank(), ctx.size(),
            1, 42);
        core::ParallelFmm fmm(ctx, tables);
        fmm.setup(std::move(pts));
        (void)fmm.evaluate();
        // The cross-rank summary, built on demand; the gather runs in
        // its own phase after the snapshot, so its traffic stays out.
        ctx.comm.cost().set_phase("obs.gather");
        const RankMetrics mine = comm::snapshot_with_counters(ctx);
        summaries[static_cast<std::size_t>(ctx.rank())] =
            summarize_metrics(gather_metrics(ctx.comm, mine));
      });
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kP));

  // Every rank published its ring into the end-of-run snapshot.
  double total_sends = 0.0, total_recvs = 0.0;
  for (const auto& rep : reports) {
    const auto& c = rep.counters;
    ASSERT_TRUE(c.count("flow.sends"));
    total_sends += c.at("flow.sends");
    total_recvs += c.at("flow.recvs");
    EXPECT_DOUBLE_EQ(c.at("flow.dropped"), 0.0);
    EXPECT_FALSE(rep.flows.empty());
    for (const FlowEvent& e : rep.flows) {
      EXPECT_GE(e.seq, 0);
      EXPECT_GE(e.t1, e.t0);
    }
  }
  EXPECT_GT(total_sends, 0.0);
  // Fabric conservation: every receive dequeued exactly one send.
  EXPECT_DOUBLE_EQ(total_sends, total_recvs);

  // Epoch-aligned matching: pair the k-th send to (src, dst, tag) with
  // the k-th receive from (src, tag) at dst; latency must come out
  // non-negative on the shared clock (the send is stamped before the
  // enqueue, the receive after the dequeue).
  std::map<std::array<int, 4>, std::vector<double>> send_ts, recv_ts;
  for (const auto& rep : reports) {
    const double epoch = rep.gauges.at("obs.epoch");
    for (const FlowEvent& e : rep.flows) {
      if (e.kind == FlowEvent::kSend)
        send_ts[{rep.rank, e.peer, e.tag, e.seq}].push_back(epoch +
                                                                e.t0);
      else
        recv_ts[{e.peer, rep.rank, e.tag, e.seq}].push_back(epoch +
                                                                e.t1);
    }
  }
  std::size_t matched = 0;
  for (const auto& [key, st] : send_ts) {
    const auto rit = recv_ts.find(key);
    if (rit == recv_ts.end()) continue;
    ASSERT_EQ(st.size(), 1u);  // (src,dst,tag,seq) is a unique flow id
    ASSERT_EQ(rit->second.size(), 1u);
    EXPECT_GE(rit->second[0], st[0]);
    ++matched;
  }
  EXPECT_GT(matched, 0u);

  // The cross-rank summary decomposes every phase's wall time, and the
  // three legs sum to the wall within 1% (the acceptance bound; exact
  // by construction, the slack is pure float headroom).
  const Json& doc = summaries[0];
  validate_summary_json(doc);
  ASSERT_TRUE(doc.contains("flow"));
  EXPECT_GT(doc.at("flow").at("matched").as_double(), 0.0);
  std::size_t decomposed = 0;
  for (const std::string& name : doc.at("phases").keys()) {
    const Json& ph = doc.at("phases").at(name);
    if (!ph.contains("decomp")) continue;
    ++decomposed;
    const Json& d = ph.at("decomp");
    const double wall = d.at("wall").as_double();
    const double sum = d.at("compute").as_double() +
                       d.at("comm_wait").as_double() +
                       d.at("pool_idle").as_double();
    EXPECT_NEAR(sum, wall, 0.01 * std::max(wall, 1e-12)) << name;
    EXPECT_GE(d.at("compute").as_double(), 0.0) << name;
    EXPECT_GE(d.at("comm_wait").as_double(), 0.0) << name;
    EXPECT_GE(d.at("pool_idle").as_double(), 0.0) << name;
  }
  EXPECT_GT(decomposed, 0u);

  // The merged chrome trace carries flow arrows with matching ids on
  // both endpoints.
  const Json trace = chrome_trace_json(reports);
  std::set<std::string> s_ids, f_ids;
  for (const Json& ev : trace.at("traceEvents").items()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "s") s_ids.insert(ev.at("id").as_string());
    if (ph == "f") f_ids.insert(ev.at("id").as_string());
  }
  EXPECT_FALSE(s_ids.empty());
  EXPECT_EQ(s_ids, f_ids);

  // And the full snapshot set still round-trips as schema-valid JSON.
  const Json mdoc = metrics_to_json(reports);
  validate_metrics_json(mdoc);
  EXPECT_EQ(metrics_to_json(metrics_from_json(mdoc)), mdoc);
}

/// The rank's recorder is the one store of its traffic: a flow-traced,
/// health-enabled ParallelFmm destroyed well before the rank function
/// returns still leaves its flow events, wait counters and payload
/// digests in the Runtime::run report, and the cost tracker's
/// read-back equals the recorder's `comm.*` counters mid-run.
TEST(FlowIntegration, ReportKeepsTheTrafficOfADestroyedFmm) {
  kernels::LaplaceKernel kernel;
  core::FmmOptions opts = small_opts(true);
  opts.health = true;
  const core::Tables tables(kernel, opts);

  constexpr int kP = 2;
  std::vector<std::size_t> phases_read(kP, 0);
  const auto reports = comm::Runtime::run(kP, [&](comm::RankCtx& ctx) {
    {
      core::ParallelFmm fmm(ctx, tables);
      fmm.setup(octree::generate_points(octree::Distribution::kEllipsoid,
                                        2000, ctx.rank(), ctx.size(), 1, 42));
      (void)fmm.evaluate();
    }
    const comm::CostTracker& cost = ctx.comm.cost();
    const auto phases = cost.phases();
    phases_read[static_cast<std::size_t>(ctx.rank())] = phases.size();
    for (const auto& entry : phases) {
      const std::string& phase = entry.first;
      const comm::CostTracker::Counters g = cost.get(phase);
      const std::string stem = "comm." + phase + ".";
      EXPECT_EQ(static_cast<double>(g.msgs_sent),
                ctx.rec.counter(stem + "msgs_sent")) << phase;
      EXPECT_EQ(static_cast<double>(g.bytes_sent),
                ctx.rec.counter(stem + "bytes_sent")) << phase;
      EXPECT_EQ(static_cast<double>(g.msgs_recv),
                ctx.rec.counter(stem + "msgs_recv")) << phase;
      EXPECT_EQ(static_cast<double>(g.bytes_recv),
                ctx.rec.counter(stem + "bytes_recv")) << phase;
      // A phase's four counters appear together.
      EXPECT_EQ(ctx.rec.metrics().counters.count(stem + "msgs_recv"), 1u);
    }
    EXPECT_GT(cost.get("eval.comm").msgs_sent, 0u);
  });

  double sent_digest = 0.0, recv_digest = 0.0;
  for (const auto& rep : reports) {
    EXPECT_GE(phases_read[static_cast<std::size_t>(rep.rank)], 4u);
    // Every message of the object's life is in the ring: the ring saw
    // each send the comm counters charged.
    EXPECT_DOUBLE_EQ(rep.counter("flow.sends"),
                     rep.sum("comm.", ".msgs_sent"));
    EXPECT_DOUBLE_EQ(rep.counter("flow.recvs"),
                     rep.sum("comm.", ".msgs_recv"));
    EXPECT_DOUBLE_EQ(rep.counter("flow.dropped"), 0.0);
    EXPECT_EQ(rep.flows.size(),
              static_cast<std::size_t>(rep.counter("flow.events")));
    bool eval_flow = false;
    for (const FlowEvent& e : rep.flows)
      eval_flow = eval_flow ||
                  rep.flow_phases[static_cast<std::size_t>(e.phase)] ==
                      "eval.comm";
    EXPECT_TRUE(eval_flow) << "rank " << rep.rank;
    EXPECT_GT(rep.counter("wait.eval.comm.recvs"), 0.0);
    EXPECT_GT(rep.counter("wait.setup.tree.recvs"), 0.0);
    sent_digest += rep.counter("health.comm.payload_sent");
    recv_digest += rep.counter("health.comm.payload_recv");
  }
  EXPECT_GT(sent_digest, 0.0);
  EXPECT_EQ(sent_digest, recv_digest);
}

}  // namespace
}  // namespace pkifmm::obs
