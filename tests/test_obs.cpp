/// Observability layer tests: JSON round-trips, recorder/span
/// invariants, the RankMetrics counter reader, exporter schemas, the
/// PhaseTimer single-measurement contract, and a Table II-shaped
/// integration run asserting the nine paper phases show up with real
/// work attributed to them.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "comm/comm.hpp"
#include "core/fmm.hpp"
#include "kernels/kernel.hpp"
#include "obs/aggregate.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "octree/points.hpp"
#include "util/check.hpp"
#include "util/flops.hpp"
#include "util/timer.hpp"

namespace pkifmm::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(Json, ParseDumpRoundTrip) {
  const std::string text = R"({
  "schema": "pkifmm.metrics.v1",
  "pi": 3.141592653589793,
  "n": -42,
  "big": 9007199254740993,
  "flag": true,
  "none": null,
  "esc": "quote\" slash\\ newline\n tab\t",
  "arr": [1, 2.5, "x", [], {}]
})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("schema").as_string(), "pkifmm.metrics.v1");
  EXPECT_DOUBLE_EQ(doc.at("pi").as_double(), 3.141592653589793);
  EXPECT_EQ(doc.at("n").as_int(), -42);
  // Above 2^53: must survive as an integer, not a rounded double.
  EXPECT_EQ(doc.at("big").as_int(), 9007199254740993LL);
  EXPECT_TRUE(doc.at("flag").as_bool());
  EXPECT_TRUE(doc.at("none").is_null());
  EXPECT_EQ(doc.at("esc").as_string(), "quote\" slash\\ newline\n tab\t");
  EXPECT_EQ(doc.at("arr").size(), 5u);

  // dump -> parse -> structurally identical, both compact and pretty.
  EXPECT_EQ(Json::parse(doc.dump()), doc);
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(Json, ObjectKeyOrderIsPreserved) {
  Json obj = Json::object();
  obj.set("zulu", 1);
  obj.set("alpha", 2);
  obj.set("mike", 3);
  obj.set("zulu", 4);  // overwrite keeps position
  ASSERT_EQ(obj.keys().size(), 3u);
  EXPECT_EQ(obj.keys()[0], "zulu");
  EXPECT_EQ(obj.keys()[1], "alpha");
  EXPECT_EQ(obj.keys()[2], "mike");
  EXPECT_EQ(obj.at("zulu").as_int(), 4);
  const Json reparsed = Json::parse(obj.dump());
  EXPECT_EQ(reparsed.keys(), obj.keys());
}

TEST(Json, DoubleRoundTripIsExact) {
  for (double v : {0.0, -0.0, 1e-300, 6.02214076e23, 0.1, 1.0 / 3.0,
                   123456.789012345678}) {
    Json j(v);
    const Json back = Json::parse(j.dump());
    EXPECT_EQ(back.type(), Json::Type::kDouble) << v;
    EXPECT_EQ(back.as_double(), v);
  }
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(Json::parse("{"), CheckFailure);
  EXPECT_THROW(Json::parse("[1, 2,]"), CheckFailure);
  EXPECT_THROW(Json::parse("\"unterminated"), CheckFailure);
  EXPECT_THROW(Json::parse("{\"a\": 1} trailing"), CheckFailure);
  EXPECT_THROW(Json::parse("nul"), CheckFailure);
}

// ----------------------------------------------------------- Histogram

TEST(Histogram, BucketsAndRoundTrip) {
  Histogram h;
  h.observe(0.5);  // bucket 0
  h.observe(1.0);  // bucket 0
  h.observe(2.0);  // bucket 1
  h.observe(1000.0);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 1003.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[10], 1u);  // 2^9 < 1000 <= 2^10

  Histogram other;
  other.observe(4096.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.buckets()[12], 1u);

  std::uint64_t buckets[Histogram::kBuckets];
  for (int i = 0; i < Histogram::kBuckets; ++i) buckets[i] = h.buckets()[i];
  const Histogram rebuilt =
      Histogram::from_parts(h.count(), h.sum(), h.min(), h.max(), buckets);
  EXPECT_TRUE(rebuilt == h);
}

// ------------------------------------------------------------ Recorder

TEST(Recorder, SpanAttributionIsDeltaBased) {
  Recorder rec(3);
  {
    auto outer = rec.span("outer");
    rec.add_flops(100);
    rec.add_sent(2, 64);
    {
      auto inner = rec.span("inner");
      rec.add_flops(40);
      rec.add_sent(1, 32);
    }
    rec.add_flops(5);
  }
  const RankMetrics m = rec.snapshot();
  ASSERT_EQ(m.spans.size(), 2u);
  // Spans are stored in open order; the inner one closed first but
  // keeps its slot.
  const SpanEvent& outer = m.spans[0];
  const SpanEvent& inner = m.spans[1];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, 0);
  EXPECT_EQ(inner.depth, 1);
  EXPECT_EQ(outer.parent, -1);
  EXPECT_EQ(outer.depth, 0);
  // Parent totals are inclusive of the child's.
  EXPECT_EQ(inner.flops, 40u);
  EXPECT_EQ(outer.flops, 145u);
  EXPECT_EQ(inner.msgs, 1u);
  EXPECT_EQ(outer.msgs, 3u);
  EXPECT_EQ(inner.bytes, 32u);
  EXPECT_EQ(outer.bytes, 96u);
  // Wall-clock nesting: children cannot exceed the parent.
  EXPECT_LE(m.child_wall_sum(0), outer.wall + 1e-9);
  EXPECT_GE(inner.start, outer.start);
}

TEST(Recorder, SpansMustCloseInnermostFirst) {
  Recorder rec;
  auto outer = rec.span("outer");
  auto inner = rec.span("inner");
  EXPECT_THROW(outer.close(), CheckFailure);
  (void)inner.close();
  (void)outer.close();
}

TEST(RankMetrics, CounterAndPrefixSum) {
  RankMetrics m;
  m.counters["time.eval.uli.cpu"] = 1.0;
  m.counters["time.eval.uli.wall"] = 2.0;
  m.counters["time.eval.vli.cpu"] = 4.0;
  m.counters["time.evalx.cpu"] = 8.0;
  m.counters["flops.eval.uli"] = 16.0;
  // Counts time.eval.uli.cpu and time.eval.vli.cpu only: not the .wall
  // counter, and not time.evalx.cpu, whose name lacks the "eval." prefix.
  EXPECT_DOUBLE_EQ(m.sum("time.eval.", ".cpu"), 5.0);
  EXPECT_DOUBLE_EQ(m.sum("time."), 15.0);
  EXPECT_DOUBLE_EQ(m.sum("nothing."), 0.0);
  EXPECT_DOUBLE_EQ(m.counter("time.eval.vli.cpu"), 4.0);
  EXPECT_DOUBLE_EQ(m.counter("time.eval.xli.cpu"), 0.0);
}

// ----------------------------------------------------------- Exporters

std::vector<RankMetrics> sample_ranks() {
  std::vector<RankMetrics> out;
  for (int r = 0; r < 2; ++r) {
    Recorder rec(r);
    {
      auto eval = rec.span("eval");
      {
        auto s2u = rec.span("eval.s2u");
        rec.add_flops(1000 + 7 * static_cast<std::uint64_t>(r));
      }
      {
        auto comm = rec.span("eval.comm");
        rec.add_sent(3, 4096);
      }
    }
    rec.counter_add("flops.eval.s2u", 1000.0 + 7 * r);
    rec.gauge_set("tree.leaves", 42.0 + r);
    rec.observe("comm.msg_bytes.eval.comm", 4096.0);
    out.push_back(rec.snapshot());
  }
  return out;
}

TEST(Export, MetricsJsonRoundTrip) {
  const auto ranks = sample_ranks();
  const Json doc = metrics_to_json(ranks);
  validate_metrics_json(doc);
  EXPECT_EQ(doc.at("schema").as_string(), kMetricsSchema);
  EXPECT_EQ(doc.at("nranks").as_int(), 2);
  // totals aggregate across ranks.
  EXPECT_DOUBLE_EQ(
      doc.at("totals").at("counters").at("flops.eval.s2u").as_double(),
      2007.0);

  // Serialize -> parse -> rebuild -> serialize: must be identical.
  const Json reparsed = Json::parse(doc.dump(2));
  EXPECT_EQ(reparsed, doc);
  const std::vector<RankMetrics> back = metrics_from_json(reparsed);
  ASSERT_EQ(back.size(), ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    EXPECT_EQ(back[r].rank, ranks[r].rank);
    EXPECT_EQ(back[r].counters, ranks[r].counters);
    EXPECT_EQ(back[r].gauges, ranks[r].gauges);
    EXPECT_TRUE(back[r].histograms.at("comm.msg_bytes.eval.comm") ==
                ranks[r].histograms.at("comm.msg_bytes.eval.comm"));
    ASSERT_EQ(back[r].spans.size(), ranks[r].spans.size());
    for (std::size_t i = 0; i < ranks[r].spans.size(); ++i) {
      EXPECT_EQ(back[r].spans[i].name, ranks[r].spans[i].name);
      EXPECT_EQ(back[r].spans[i].flops, ranks[r].spans[i].flops);
      EXPECT_EQ(back[r].spans[i].parent, ranks[r].spans[i].parent);
      EXPECT_EQ(back[r].spans[i].wall, ranks[r].spans[i].wall);
    }
  }
  EXPECT_EQ(metrics_to_json(back), doc);
}

TEST(Export, FileRoundTrip) {
  const auto ranks = sample_ranks();
  const std::string path = ::testing::TempDir() + "pkifmm_metrics_test.json";
  write_metrics_json(path, ranks);
  const Json doc = read_json_file(path);
  validate_metrics_json(doc);
  EXPECT_EQ(doc, metrics_to_json(ranks));
  std::remove(path.c_str());
}

TEST(Export, ValidatorRejectsBrokenDocuments) {
  const auto ranks = sample_ranks();
  Json doc = metrics_to_json(ranks);
  doc.set("schema", "not.a.schema");
  EXPECT_THROW(validate_metrics_json(doc), CheckFailure);

  Json doc2 = metrics_to_json(ranks);
  doc2.set("nranks", 99);
  EXPECT_THROW(validate_metrics_json(doc2), CheckFailure);

  EXPECT_THROW(validate_metrics_json(Json::parse("{}")), CheckFailure);
}

TEST(Export, ChromeTraceShape) {
  const auto ranks = sample_ranks();
  const Json doc = chrome_trace_json(ranks);
  const auto& events = doc.at("traceEvents").items();
  // Merged-timeline scheme: one *process* per rank, so 2 ranks x
  // (process_name + thread_name metadata + 3 spans).
  ASSERT_EQ(events.size(), 10u);
  std::size_t process_meta = 0, thread_meta = 0, complete = 0;
  for (const Json& ev : events) {
    const std::string ph = ev.at("ph").as_string();
    const std::int64_t pid = ev.at("pid").as_int();
    // pid IS the rank; everything lives on that rank's single thread.
    EXPECT_TRUE(pid == 0 || pid == 1);
    EXPECT_EQ(ev.at("tid").as_int(), 0);
    if (ph == "M") {
      const std::string name = ev.at("name").as_string();
      if (name == "process_name") {
        ++process_meta;
        EXPECT_EQ(ev.at("args").at("name").as_string(),
                  "rank " + std::to_string(pid));
      } else {
        EXPECT_EQ(name, "thread_name");
        ++thread_meta;
      }
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_GE(ev.at("dur").as_double(), 0.0);
    EXPECT_GE(ev.at("ts").as_double(), 0.0);
    EXPECT_TRUE(ev.at("args").contains("flops"));
  }
  EXPECT_EQ(process_meta, 2u);
  EXPECT_EQ(thread_meta, 2u);
  EXPECT_EQ(complete, 6u);
}

/// With the "obs.epoch" gauge set, span timestamps move onto the
/// process-wide clock: two ranks whose recorders started at different
/// epochs must come out time-aligned in the merged trace.
TEST(Export, ChromeTraceAlignsRankEpochs) {
  std::vector<RankMetrics> ranks;
  for (int r = 0; r < 2; ++r) {
    RankMetrics rm;
    rm.rank = r;
    rm.gauges["obs.epoch"] = 100.0 + 50.0 * r;  // rank 1 started later
    SpanEvent e;
    e.name = "eval";
    e.start = 2.0;  // same recorder-relative start on both ranks
    e.wall = 1.0;
    rm.spans.push_back(e);
    ranks.push_back(std::move(rm));
  }
  const Json doc = chrome_trace_json(ranks);
  std::map<std::int64_t, double> ts_by_pid;
  for (const Json& ev : doc.at("traceEvents").items())
    if (ev.at("ph").as_string() == "X")
      ts_by_pid[ev.at("pid").as_int()] = ev.at("ts").as_double();
  ASSERT_EQ(ts_by_pid.size(), 2u);
  EXPECT_DOUBLE_EQ(ts_by_pid[0], (100.0 + 2.0) * 1e6);
  EXPECT_DOUBLE_EQ(ts_by_pid[1], (150.0 + 2.0) * 1e6);
}

// -------------------------------------- PhaseTimer single measurement

/// PhaseTimer::Scope must measure through the span tracer only — the
/// `time.*` counters and the trace come from ONE clock read, so they
/// can never disagree (a double measurement lets "Comm" time drift
/// between the two reports).
TEST(PhaseTimer, FlatTableEqualsSpanTotals) {
  Recorder rec;
  PhaseTimer timer(rec);
  for (int rep = 0; rep < 3; ++rep) {
    auto outer = timer.scope("eval.uli");
    double sink = 0.0;
    for (int i = 0; i < 20000; ++i) sink += 1.0 / (1.0 + i);
    ASSERT_GT(sink, 0.0);
    auto inner = timer.scope("eval.uli.inner");
  }
  const RankMetrics m = rec.snapshot();
  ASSERT_EQ(m.spans.size(), 6u);

  double span_wall = 0.0, span_cpu = 0.0;
  for (const SpanEvent& e : m.spans)
    if (e.name == "eval.uli") {
      span_wall += e.wall;
      span_cpu += e.cpu;
    }
  // Exact equality: the counters are fed from the very same span close.
  EXPECT_EQ(m.counters.at("time.eval.uli.wall"), span_wall);
  EXPECT_EQ(m.counters.at("time.eval.uli.cpu"), span_cpu);

  // Child time is contained in parent time.
  for (std::size_t i = 0; i < m.spans.size(); ++i)
    EXPECT_LE(m.child_wall_sum(i), m.spans[i].wall + 1e-9) << m.spans[i].name;
}

// --------------------------------------------- Cross-rank aggregation

/// Synthetic rank with the canonical counters of one phase, scaled.
RankMetrics synth_rank(int rank, double scale) {
  RankMetrics rm;
  rm.rank = rank;
  rm.counters["time.eval.uli.wall"] = 1.0 * scale;
  rm.counters["time.eval.uli.cpu"] = 0.5 * scale;
  rm.counters["flops.eval.uli"] = 1.0e5 * scale;
  rm.counters["comm.eval.uli.msgs_sent"] = 50.0 * scale;
  rm.counters["comm.eval.uli.bytes_sent"] = 5.0e4 * scale;
  return rm;
}

TEST(Aggregate, SummaryStatsMatchHandComputedValues) {
  // rank 0 all-ones scale, rank 1 three times the work.
  const Json doc = summarize_metrics({synth_rank(0, 1.0), synth_rank(1, 3.0)});
  validate_summary_json(doc);
  EXPECT_EQ(doc.at("schema").as_string(), kSummarySchema);
  EXPECT_EQ(doc.at("nranks").as_int(), 2);
  EXPECT_EQ(doc.at("nruns").as_int(), 1);

  // Flat metric stats: wall samples are {1, 3}.
  const Json& wall = doc.at("metrics").at("time.eval.uli.wall");
  EXPECT_DOUBLE_EQ(wall.at("min").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(wall.at("max").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(wall.at("avg").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(wall.at("stddev").as_double(), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(wall.at("sum").as_double(), 4.0);
  EXPECT_EQ(wall.at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(wall.at("imbalance").as_double(), 1.5);

  // Per-phase breakdown agrees with the counters feeding it.
  const Json& ph = doc.at("phases").at("eval.uli");
  EXPECT_DOUBLE_EQ(ph.at("wall").at("max").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(ph.at("flops").at("sum").as_double(), 4.0e5);
  EXPECT_DOUBLE_EQ(ph.at("msgs_sent").at("sum").as_double(), 200.0);
  EXPECT_DOUBLE_EQ(ph.at("bytes_sent").at("sum").as_double(), 2.0e5);
  EXPECT_DOUBLE_EQ(ph.at("wall").at("imbalance").as_double(), 1.5);
}

TEST(Aggregate, RankMissingACounterContributesZero) {
  RankMetrics a = synth_rank(0, 1.0);
  RankMetrics b = synth_rank(1, 1.0);
  b.counters["flops.eval.wli"] = 10.0;  // only rank 1 entered this phase
  const Json doc = summarize_metrics({a, b});
  const Json& m = doc.at("metrics").at("flops.eval.wli");
  EXPECT_DOUBLE_EQ(m.at("min").as_double(), 0.0);
  EXPECT_DOUBLE_EQ(m.at("max").as_double(), 10.0);
  EXPECT_DOUBLE_EQ(m.at("avg").as_double(), 5.0);
  EXPECT_DOUBLE_EQ(m.at("imbalance").as_double(), 2.0);
  EXPECT_EQ(m.at("count").as_int(), 2);
}

TEST(Aggregate, SpanFallbackGivesPhaseTotalsAndOverlap) {
  // Trace-only phase (no canonical counters): rank 1's recorder was
  // created 1 s after rank 0's, both spend 2 s in "eval" starting at
  // their local zero. Absolute window is [10, 13] -> makespan 3,
  // busy 4, overlap 4 / (2 * 3).
  std::vector<RankMetrics> ranks;
  for (int r = 0; r < 2; ++r) {
    RankMetrics rm;
    rm.rank = r;
    rm.gauges["obs.epoch"] = 10.0 + 1.0 * r;
    SpanEvent e;
    e.name = "eval";
    e.start = 0.0;
    e.wall = 2.0;
    e.cpu = 1.5;
    rm.spans.push_back(e);
    ranks.push_back(std::move(rm));
  }
  const Json doc = summarize_metrics(ranks);
  const Json& ph = doc.at("phases").at("eval");
  EXPECT_DOUBLE_EQ(ph.at("wall").at("avg").as_double(), 2.0);
  EXPECT_DOUBLE_EQ(ph.at("cpu").at("sum").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(ph.at("critical_path").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(ph.at("overlap_efficiency").as_double(), 4.0 / 6.0);
}

TEST(Aggregate, ZeroWallPhaseOmitsImbalanceAndOverlap) {
  // A phase whose canonical wall counters are all zero (declared but
  // never entered) and an all-zero metric: max/avg is undefined, so
  // the summary must OMIT "imbalance" and "overlap_efficiency" rather
  // than emit NaN/Inf or a fabricated 1.0 — and still validate.
  std::vector<RankMetrics> ranks;
  for (int r = 0; r < 2; ++r) {
    RankMetrics rm;
    rm.rank = r;
    rm.counters["time.eval.wli.wall"] = 0.0;
    rm.counters["time.eval.wli.cpu"] = 0.0;
    rm.counters["flops.eval.wli"] = 0.0;
    ranks.push_back(std::move(rm));
  }
  const Json doc = summarize_metrics(ranks);
  validate_summary_json(doc);

  const Json& m = doc.at("metrics").at("time.eval.wli.wall");
  EXPECT_EQ(m.at("count").as_int(), 2);
  EXPECT_DOUBLE_EQ(m.at("avg").as_double(), 0.0);
  EXPECT_FALSE(m.contains("imbalance"));

  const Json& ph = doc.at("phases").at("eval.wli");
  EXPECT_DOUBLE_EQ(ph.at("wall").at("sum").as_double(), 0.0);
  EXPECT_FALSE(ph.at("wall").contains("imbalance"));
  // Counter-only phase, no spans: no makespan window exists.
  EXPECT_FALSE(ph.contains("overlap_efficiency"));

  // JSON round-trip revalidates (the optional fields stay optional).
  validate_summary_json(Json::parse(doc.dump()));

  // Nondegenerate phases still carry both fields (guard against the
  // omission being overeager): reuse the synthetic two-rank setup.
  const Json live = summarize_metrics({synth_rank(0, 1.0), synth_rank(1, 3.0)});
  EXPECT_TRUE(
      live.at("phases").at("eval.uli").at("wall").contains("imbalance"));
}

TEST(Aggregate, MultiRunMergeAccumulates) {
  std::vector<RankMetrics> run1 = {synth_rank(0, 1.0), synth_rank(1, 3.0)};
  std::vector<RankMetrics> run2 = {synth_rank(0, 2.0), synth_rank(1, 4.0)};
  run1[0].counters["commx.eval.uli.dst1.msgs"] = 5.0;
  run2[0].counters["commx.eval.uli.dst1.msgs"] = 7.0;
  const Json doc = summarize_runs("bench_x", {run1, run2});
  validate_summary_json(doc);
  EXPECT_EQ(doc.at("nruns").as_int(), 2);
  EXPECT_EQ(doc.at("bench").as_string(), "bench_x");

  // Welford-merged across runs: wall samples {1, 3, 2, 4}.
  const Json& wall = doc.at("metrics").at("time.eval.uli.wall");
  EXPECT_EQ(wall.at("count").as_int(), 4);
  EXPECT_DOUBLE_EQ(wall.at("min").as_double(), 1.0);
  EXPECT_DOUBLE_EQ(wall.at("max").as_double(), 4.0);
  EXPECT_DOUBLE_EQ(wall.at("avg").as_double(), 2.5);
  EXPECT_NEAR(wall.at("sum").as_double(), 10.0, 1e-12);

  // Traffic matrices sum across runs.
  const Json& mat = doc.at("comm_matrix").at("eval.uli").at("msgs");
  EXPECT_DOUBLE_EQ(mat.items()[0].items()[1].as_double(), 12.0);
  EXPECT_DOUBLE_EQ(mat.items()[1].items()[0].as_double(), 0.0);
}

TEST(Aggregate, ValidatorRejectsBrokenSummary) {
  Json doc = summarize_metrics({synth_rank(0, 1.0)});
  doc.set("schema", "not.a.schema");
  EXPECT_THROW(validate_summary_json(doc), CheckFailure);
  EXPECT_THROW(validate_summary_json(Json::parse("{}")), CheckFailure);

  // commx traffic must stay inside the rank range.
  RankMetrics bad = synth_rank(0, 1.0);
  bad.counters["commx.eval.uli.dst7.msgs"] = 1.0;  // only 1 rank exists
  EXPECT_THROW(summarize_metrics({bad}), CheckFailure);
}

/// Multi-rank end-to-end: a deterministic exchange (ring send-right
/// plus an XOR pairing, distinct phases) whose summary stats and
/// comm-matrix entries are hand-computable, and whose matrix marginals
/// must equal the tagged comm.* counters of every rank.
TEST(Aggregate, CommMatrixMarginalsMatchCounters) {
  constexpr int kP = 4;
  auto reports = comm::Runtime::run(kP, [&](comm::RankCtx& ctx) {
    const int r = ctx.rank();
    // Phase 1: ring. Rank r sends 100*(r+1) bytes to its right peer.
    ctx.comm.cost().set_phase("x.ring");
    std::vector<char> ring(static_cast<std::size_t>(100 * (r + 1)), 'a');
    ctx.comm.send<char>((r + 1) % kP, 7, ring);
    (void)ctx.comm.recv<char>((r - 1 + kP) % kP, 7);
    // Phase 2: XOR pairing, fixed 64-byte payload.
    ctx.comm.cost().set_phase("x.pair");
    std::vector<char> pair(64, 'b');
    ctx.comm.send<char>(r ^ 1, 8, pair);
    (void)ctx.comm.recv<char>(r ^ 1, 8);
  });

  const Json doc = summarize_metrics(reports);
  validate_summary_json(doc);

  // Hand-computed stats: per-rank ring bytes are {100, 200, 300, 400}.
  const Json& sent = doc.at("metrics").at("comm.x.ring.bytes_sent");
  EXPECT_DOUBLE_EQ(sent.at("min").as_double(), 100.0);
  EXPECT_DOUBLE_EQ(sent.at("max").as_double(), 400.0);
  EXPECT_DOUBLE_EQ(sent.at("avg").as_double(), 250.0);
  EXPECT_DOUBLE_EQ(sent.at("imbalance").as_double(), 1.6);
  EXPECT_NEAR(sent.at("stddev").as_double(), std::sqrt(50000.0 / 3.0), 1e-9);

  // Hand-computed matrix cells; diagonals stay empty.
  const Json& ring = doc.at("comm_matrix").at("x.ring");
  const Json& pair = doc.at("comm_matrix").at("x.pair");
  for (int r = 0; r < kP; ++r) {
    const auto& ring_msgs = ring.at("msgs").items()[r].items();
    const auto& ring_bytes = ring.at("bytes").items()[r].items();
    const auto& pair_bytes = pair.at("bytes").items()[r].items();
    for (int c = 0; c < kP; ++c) {
      EXPECT_DOUBLE_EQ(ring_msgs[c].as_double(), c == (r + 1) % kP ? 1.0 : 0.0)
          << r << "->" << c;
      EXPECT_DOUBLE_EQ(ring_bytes[c].as_double(),
                       c == (r + 1) % kP ? 100.0 * (r + 1) : 0.0)
          << r << "->" << c;
      EXPECT_DOUBLE_EQ(pair_bytes[c].as_double(), c == (r ^ 1) ? 64.0 : 0.0)
          << r << "->" << c;
    }
  }

  // Marginals: row sums equal each rank's send counters, column sums
  // equal each rank's recv counters, for both phases and both units.
  for (const char* phase : {"x.ring", "x.pair"}) {
    const Json& mat = doc.at("comm_matrix").at(phase);
    for (const char* unit : {"msgs", "bytes"}) {
      const auto& rows = mat.at(unit).items();
      for (int r = 0; r < kP; ++r) {
        double row_sum = 0.0, col_sum = 0.0;
        for (int k = 0; k < kP; ++k) {
          row_sum += rows[r].items()[k].as_double();
          col_sum += rows[k].items()[r].as_double();
        }
        const auto& c = reports[r].counters;
        const std::string base = std::string("comm.") + phase + ".";
        EXPECT_DOUBLE_EQ(row_sum,
                         c.at(base + unit + "_sent"))
            << phase << " " << unit << " row " << r;
        EXPECT_DOUBLE_EQ(col_sum,
                         c.at(base + unit + "_recv"))
            << phase << " " << unit << " col " << r;
      }
    }
  }
}

TEST(Aggregate, GatherMetricsDeliversEveryRankSnapshot) {
  constexpr int kP = 3;
  std::vector<std::vector<RankMetrics>> gathered(kP);
  comm::Runtime::run(kP, [&](comm::RankCtx& ctx) {
    ctx.rec.counter_add("test.marker", 10.0 + ctx.rank());
    gathered[static_cast<std::size_t>(ctx.rank())] =
        gather_metrics(ctx.comm, comm::snapshot_with_counters(ctx));
  });
  for (int r = 0; r < kP; ++r) {
    const auto& mine = gathered[static_cast<std::size_t>(r)];
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(kP));
    for (int k = 0; k < kP; ++k) {
      EXPECT_EQ(mine[static_cast<std::size_t>(k)].rank, k);
      EXPECT_DOUBLE_EQ(
          mine[static_cast<std::size_t>(k)].counters.at("test.marker"),
          10.0 + k);
    }
  }
}

// ------------------------------------------------- Table II int. test

/// Table II-shaped integration check: a small nonuniform run at p=4
/// must produce all nine paper phases (S2U, U2U, comm/reduce, VLI,
/// XLI, D2D/down, WLI, D2T, ULI) with real work attributed — the eight
/// compute phases carry nonzero flops and the communication phase
/// carries nonzero message traffic. This pins the whole reporting
/// chain: FlopCounter/CostTracker -> Recorder -> canonical counters.
TEST(Integration, PaperPhasesAllReport) {
  kernels::LaplaceKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 20;
  const core::Tables tables(kernel, opts);

  auto reports = comm::Runtime::run(4, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(octree::Distribution::kEllipsoid,
                                       2000, ctx.rank(), ctx.size(), 1, 42);
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    (void)fmm.evaluate();
  });
  ASSERT_EQ(reports.size(), 4u);

  static const char* kComputePhases[] = {"eval.s2u", "eval.u2u", "eval.vli",
                                         "eval.xli", "eval.down", "eval.wli",
                                         "eval.d2t", "eval.uli"};
  // Cross-rank totals: every compute phase did real flops somewhere,
  // and the reduction phase moved real messages.
  for (const char* phase : kComputePhases) {
    double flops = 0.0, wall = 0.0;
    for (const auto& rep : reports) {
      const auto& c = rep.counters;
      auto fit = c.find(std::string("flops.") + phase);
      if (fit != c.end()) flops += fit->second;
      auto wit = c.find(std::string("time.") + phase + ".wall");
      if (wit != c.end()) wall += wit->second;
    }
    EXPECT_GT(flops, 0.0) << phase;
    EXPECT_GT(wall, 0.0) << phase;
  }
  double comm_msgs = 0.0;
  for (const auto& rep : reports)
    comm_msgs += rep.counters.at("comm.eval.comm.msgs_sent");
  EXPECT_GT(comm_msgs, 0.0);

  for (const auto& m : reports) {
    // Span tree: "setup" and "eval" roots exist in the trace but NOT in
    // the phase table (prefix sums over "eval." must not double-count).
    std::set<std::string> span_names;
    for (const SpanEvent& e : m.spans) span_names.insert(e.name);
    EXPECT_TRUE(span_names.count("setup"));
    EXPECT_TRUE(span_names.count("eval"));
    EXPECT_EQ(m.counters.count("time.eval.wall"), 0u);
    EXPECT_EQ(m.counters.count("time.setup.wall"), 0u);
    for (const char* phase : kComputePhases)
      EXPECT_TRUE(span_names.count(phase)) << phase;
    EXPECT_TRUE(span_names.count("eval.comm"));

    // Tracer invariant: children are contained in their parents.
    for (std::size_t i = 0; i < m.spans.size(); ++i)
      EXPECT_LE(m.child_wall_sum(i), m.spans[i].wall + 1e-6)
          << m.spans[i].name;

    // Collective accounting reached the tagged counters.
    EXPECT_GT(m.counters.at("coll.reduce_scatter.calls"), 0.0);
    EXPECT_GT(m.counters.at("coll.reduce_scatter.msgs"), 0.0);
    EXPECT_GT(m.counters.at("coll.allgatherv.calls"), 0.0);

    // Message-size histogram saw the reduce-scatter traffic.
    const auto hit = m.histograms.find("comm.msg_bytes.eval.comm");
    ASSERT_NE(hit, m.histograms.end());
    EXPECT_GT(hit->second.count(), 0u);
  }

  // The full snapshot set exports as schema-valid metrics JSON.
  const Json doc = metrics_to_json(reports);
  validate_metrics_json(doc);
  EXPECT_EQ(metrics_to_json(metrics_from_json(doc)), doc);
}

/// Builds the cross-rank summary after an FMM call, the on-demand way:
/// the snapshot is taken before the gather, and the gather is charged
/// to its own "obs.gather" phase, so its traffic stays out of both the
/// summary and the FMM phases of the end-of-run counters.
Json summary_now(comm::RankCtx& ctx) {
  ctx.comm.cost().set_phase("obs.gather");
  const RankMetrics mine = comm::snapshot_with_counters(ctx);
  return summarize_metrics(gather_metrics(ctx.comm, mine));
}

/// The acceptance check for the cross-rank summary: a real multi-rank
/// FMM run, summarized on demand on every rank, must give every rank
/// the SAME schema-valid summary, whose per-phase totals equal the sum
/// of the per-rank canonical counters and whose comm-matrix marginals
/// equal the tagged comm.* counters.
TEST(Integration, CrossRankSummaryAgreesWithPerRankMetrics) {
  kernels::LaplaceKernel kernel;
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 20;
  const core::Tables tables(kernel, opts);

  constexpr int kP = 4;
  std::vector<Json> summaries(kP);
  auto reports = comm::Runtime::run(kP, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(octree::Distribution::kEllipsoid,
                                       2000, ctx.rank(), ctx.size(), 1, 42);
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    (void)fmm.evaluate();
    summaries[static_cast<std::size_t>(ctx.rank())] = summary_now(ctx);
  });

  // Identical document on every rank (the allgather pattern).
  validate_summary_json(summaries[0]);
  for (int r = 1; r < kP; ++r) EXPECT_EQ(summaries[r], summaries[0]);
  const Json& doc = summaries[0];
  EXPECT_EQ(doc.at("nranks").as_int(), kP);

  // Per-phase totals equal the sum of per-rank counter values. The
  // summary is built after evaluate(), so the eval-phase counters in
  // the end-of-run reports are exactly what was summarized.
  for (const char* phase : {"eval.s2u", "eval.vli", "eval.uli"}) {
    double wall = 0.0, flops = 0.0;
    for (const auto& rep : reports) {
      wall += rep.counters.at(std::string("time.") + phase + ".wall");
      flops += rep.counters.at(std::string("flops.") + phase);
    }
    const Json& ph = doc.at("phases").at(phase);
    EXPECT_NEAR(ph.at("wall").at("sum").as_double(), wall, 1e-9 * wall + 1e-12)
        << phase;
    EXPECT_NEAR(ph.at("flops").at("sum").as_double(), flops, 1e-9 * flops)
        << phase;
    const double eff = ph.at("overlap_efficiency").as_double();
    EXPECT_GT(eff, 0.0) << phase;
    EXPECT_LE(eff, 1.0 + 1e-9) << phase;
  }
  EXPECT_GT(doc.at("phases").at("eval").at("critical_path").as_double(), 0.0);

  // The gather's own traffic is excluded from the summary it builds.
  EXPECT_FALSE(doc.at("phases").contains("obs.gather"));

  // Comm-matrix row sums equal the tagged per-rank send counters; the
  // reduction phase actually moved traffic.
  const Json& mats = doc.at("comm_matrix");
  EXPECT_TRUE(mats.contains("eval.comm"));
  for (const std::string& phase : mats.keys()) {
    for (const char* unit : {"msgs", "bytes"}) {
      const auto& rows = mats.at(phase).at(unit).items();
      double total = 0.0;
      for (int r = 0; r < kP; ++r) {
        double row_sum = 0.0;
        for (const Json& cell : rows[static_cast<std::size_t>(r)].items())
          row_sum += cell.as_double();
        total += row_sum;
        const auto& c = reports[static_cast<std::size_t>(r)].counters;
        auto it = c.find("comm." + phase + "." + unit + "_sent");
        EXPECT_DOUBLE_EQ(row_sum, it == c.end() ? 0.0 : it->second)
            << phase << " " << unit << " row " << r;
      }
      // Same total through the flat-metric path.
      EXPECT_NEAR(doc.at("metrics")
                      .at("comm." + phase + "." + unit + "_sent")
                      .at("sum")
                      .as_double(),
                  total, 1e-9 * total + 1e-12)
          << phase << " " << unit;
    }
  }
  const auto& rmat = mats.at("eval.comm").at("msgs").items();
  double reduce_msgs = 0.0;
  for (const auto& row : rmat)
    for (const Json& cell : row.items()) reduce_msgs += cell.as_double();
  EXPECT_GT(reduce_msgs, 0.0);
}

/// evaluate() with default options sends only FMM traffic: no bytes
/// outside the eval.* phases, and the same bytes on every call with
/// fresh densities — no per-call observability traffic that grows
/// with the spans recorded so far.
TEST(Integration, EvaluateSendsOnlyFmmTraffic) {
  kernels::LaplaceKernel kernel;
  const core::Tables tables(kernel, core::FmmOptions{});

  constexpr int kP = 4;
  constexpr int kCalls = 3;
  // [rank][call]: phase -> bytes sent during that evaluate().
  std::vector<std::vector<std::map<std::string, std::uint64_t>>> sent(
      kP, std::vector<std::map<std::string, std::uint64_t>>(kCalls));
  comm::Runtime::run(kP, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(octree::Distribution::kUniform,
                                       4000, ctx.rank(), ctx.size(), 1, 7);
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    const auto& cost = ctx.comm.cost();
    for (int call = 0; call < kCalls; ++call) {
      if (call > 0) {
        std::vector<std::uint64_t> gids;
        std::vector<double> den;
        for (const auto& node : fmm.let().nodes) {
          if (!node.owned) continue;
          for (const auto& pt : fmm.let().points_of(node)) {
            gids.push_back(pt.gid);
            den.push_back(pt.den[0] + 1.0);
          }
        }
        fmm.set_densities(gids, den);
      }
      const auto before = cost.phases();
      (void)fmm.evaluate();
      auto& mine = sent[static_cast<std::size_t>(ctx.rank())]
                       [static_cast<std::size_t>(call)];
      for (const auto& [phase, c] : cost.phases()) {
        const auto it = before.find(phase);
        const std::uint64_t b0 = it == before.end() ? 0 : it->second.bytes_sent;
        if (c.bytes_sent > b0) mine[phase] = c.bytes_sent - b0;
      }
    }
  });

  for (int r = 0; r < kP; ++r) {
    const auto& calls = sent[static_cast<std::size_t>(r)];
    for (int call = 0; call < kCalls; ++call)
      for (const auto& [phase, bytes] : calls[static_cast<std::size_t>(call)])
        EXPECT_TRUE(phase.starts_with("eval."))
            << "rank " << r << " call " << call << " sent " << bytes
            << " bytes in phase " << phase;
    EXPECT_EQ(calls[1], calls[2]) << "rank " << r;
  }
  EXPECT_FALSE(sent[0][1].empty());  // the refresh + reduce moved data
}

}  // namespace
}  // namespace pkifmm::obs
