/// Resource-observability tests: JSON string-escaping edge cases and
/// the non-finite-number policy, HwCounters perf-denial fallback
/// (injected EACCES/ENOSYS openers), Recorder hw/mem span folding,
/// run.v1 record round-trips, and trend_analyze regression/warning
/// semantics against synthetic bench trajectories.

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "obs/aggregate.hpp"
#include "obs/hw.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trend.hpp"
#include "util/check.hpp"

namespace pkifmm::obs {
namespace {

// ---------------------------------------------------------------- JSON

TEST(JsonEscaping, ControlCharactersRoundTrip) {
  std::string raw;
  for (char c = 1; c < 0x20; ++c) raw.push_back(c);  // 0x01 .. 0x1f
  Json obj = Json::object();
  obj.set("ctl", raw);
  const std::string text = obj.dump();
  // Everything below 0x20 must be escaped — either the short forms or
  // \u00xx — so the emitted document contains no raw control bytes.
  for (char c : text) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(text.find("\\u0001"), std::string::npos);
  EXPECT_NE(text.find("\\u001f"), std::string::npos);
  EXPECT_EQ(Json::parse(text).at("ctl").as_string(), raw);
}

TEST(JsonEscaping, ShortEscapesRoundTrip) {
  const std::string raw = "b\b f\f n\n r\r t\t q\" s\\";
  Json obj = Json::object();
  obj.set("esc", raw);
  EXPECT_EQ(Json::parse(obj.dump()).at("esc").as_string(), raw);
  EXPECT_EQ(Json::parse(obj.dump(2)).at("esc").as_string(), raw);
}

TEST(JsonEscaping, NonAsciiUtf8PassesThrough) {
  // Multi-byte UTF-8 (2-, 3- and 4-byte sequences) is not escaped —
  // the bytes travel verbatim and survive a dump/parse round-trip.
  const std::string raw = "caf\xc3\xa9 \xe2\x88\x91 \xf0\x9f\x8c\x8d";
  Json obj = Json::object();
  obj.set("text", raw);
  const std::string text = obj.dump();
  EXPECT_NE(text.find(raw), std::string::npos);
  EXPECT_EQ(Json::parse(text).at("text").as_string(), raw);
}

TEST(JsonEscaping, NonFiniteNumbersAreRejected) {
  // JSON has no NaN/Inf literal; the policy is fail-fast at dump()
  // time rather than emitting an unparseable document.
  Json obj = Json::object();
  obj.set("nan", std::nan(""));
  EXPECT_THROW(obj.dump(), CheckFailure);
  obj = Json::object();
  obj.set("inf", std::numeric_limits<double>::infinity());
  EXPECT_THROW(obj.dump(), CheckFailure);
  EXPECT_THROW(obj.dump(2), CheckFailure);
  // Finite values still dump fine.
  obj = Json::object();
  obj.set("ok", 1.5);
  EXPECT_DOUBLE_EQ(Json::parse(obj.dump()).at("ok").as_double(), 1.5);
}

// ---------------------------------------------------------- HwCounters

int open_eacces(std::uint32_t, std::uint64_t) {
  errno = EACCES;
  return -1;
}

int open_enosys(std::uint32_t, std::uint64_t) {
  errno = ENOSYS;
  return -1;
}

TEST(HwCounters, FallsBackOnEacces) {
  // perf_event_paranoid >= 2 without CAP_PERFMON: every open fails
  // with EACCES. The object must degrade, remember why, and still
  // deliver the rusage fields.
  HwCounters hw(true, &open_eacces);
  EXPECT_EQ(hw.source(), HwCounters::Source::kFallback);
  EXPECT_STREQ(hw.source_name(), "fallback");
  EXPECT_EQ(hw.perf_errno(), EACCES);
  EXPECT_EQ(hw.fields() & kHwCycles, 0u);
  EXPECT_NE(hw.fields() & kHwFaults, 0u);

  const HwSample a = hw.read();
  // Touch fresh pages so the fault totals move between reads.
  std::vector<char> pages(1 << 22);
  for (std::size_t i = 0; i < pages.size(); i += 4096) pages[i] = 1;
  const HwSample b = hw.read();
  EXPECT_GE(b.minor_faults, a.minor_faults);
  EXPECT_EQ(b.cycles, 0u);  // unavailable, not measured-zero
}

TEST(HwCounters, FallsBackOnEnosys) {
  // seccomp sandboxes reject the syscall outright.
  HwCounters hw(true, &open_enosys);
  EXPECT_EQ(hw.source(), HwCounters::Source::kFallback);
  EXPECT_EQ(hw.perf_errno(), ENOSYS);
  const HwSample s = hw.read();
  EXPECT_EQ(s.instructions, 0u);
}

TEST(HwCounters, ForcedFallbackNeverAttemptsPerf) {
  HwCounters hw(false);
  EXPECT_EQ(hw.source(), HwCounters::Source::kFallback);
  EXPECT_EQ(hw.perf_errno(), 0);  // never attempted, so no errno
  EXPECT_NE(hw.fields() & kHwFaults, 0u);
}

TEST(HwCounters, RecorderFoldsFallbackSpans) {
  Recorder rec(0);
  HwCounters hw(true, &open_eacces);
  rec.bind_hw(&hw);
  {
    auto s = rec.span("eval");
    std::vector<char> pages(1 << 21);
    for (std::size_t i = 0; i < pages.size(); i += 4096) pages[i] = 1;
  }
  rec.bind_hw(nullptr);

  const RankMetrics m = rec.snapshot();
  // Source bookkeeping reaches the counters/gauges.
  EXPECT_DOUBLE_EQ(rec.counter("hw.ranks_fallback"), 1.0);
  EXPECT_DOUBLE_EQ(rec.counter("hw.ranks_perf"), 0.0);
  EXPECT_DOUBLE_EQ(m.gauges.at("hw.perf_errno"), EACCES);
  // Fault/RSS counters materialize for the span (possibly zero, but
  // present); perf-only counters must NOT appear under fallback.
  EXPECT_NE(m.counters.find("hw.eval.minor_faults"), m.counters.end());
  EXPECT_NE(m.counters.find("hw.eval.ctx_switches"), m.counters.end());
  EXPECT_NE(m.counters.find("mem.eval.peak_rss_delta_bytes"),
            m.counters.end());
  EXPECT_EQ(m.counters.find("hw.eval.cycles"), m.counters.end());
}

TEST(HwCounters, RssReadsAreSane) {
  const std::uint64_t cur = current_rss_bytes();
  const std::uint64_t peak = peak_rss_bytes();
  ASSERT_GT(peak, 0u);
  if (cur > 0) {
    EXPECT_LE(cur, peak + (64u << 20));  // peak is a HWM
  }
  EXPECT_GE(peak_rss_bytes(), peak);  // monotone
}

// ---------------------------------------------------------- run.v1

/// A minimal-but-valid run record with one "eval" phase.
Json make_record(const std::string& sha, double wall, double faults) {
  Json phase = Json::object();
  phase.set("wall", wall);
  phase.set("cpu", wall * 0.9);
  phase.set("flops", 2e8);
  phase.set("msgs_sent", 128.0);
  phase.set("bytes_sent", 1e6);
  phase.set("minor_faults", faults);
  phase.set("peak_rss_delta_bytes", 3e6);
  Json phases = Json::object();
  phases.set("eval", phase);
  Json mem = Json::object();
  mem.set("peak_rss_bytes", 5e8);
  Json rec = Json::object();
  rec.set("schema", kRunSchema);
  rec.set("bench", "synthetic");
  rec.set("git_sha", sha);
  rec.set("nranks", 4);
  rec.set("nruns", 1);
  rec.set("hw_source", "fallback");
  rec.set("config", Json::object());
  rec.set("phases", phases);
  rec.set("mem", mem);
  return rec;
}

TEST(RunRecord, AppendReadRoundTrip) {
  const std::string path = ::testing::TempDir() + "pkifmm_history.jsonl";
  std::remove(path.c_str());
  append_run_record(path, make_record("aaa", 1.0, 2e6));
  append_run_record(path, make_record("bbb", 1.1, 2e6));
  const std::vector<Json> back = read_run_history(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].at("git_sha").as_string(), "aaa");
  EXPECT_EQ(back[1].at("git_sha").as_string(), "bbb");
  EXPECT_EQ(back[1], make_record("bbb", 1.1, 2e6));
  std::remove(path.c_str());
}

TEST(RunRecord, ValidateRejectsBadDocuments) {
  Json wrong = make_record("aaa", 1.0, 2e6);
  wrong.set("schema", "pkifmm.metrics.v1");
  EXPECT_THROW(validate_run_json(wrong), CheckFailure);
  EXPECT_THROW(validate_run_json(Json::parse("{}")), CheckFailure);
  Json no_phases = make_record("aaa", 1.0, 2e6);
  no_phases.set("phases", Json::array());
  EXPECT_THROW(validate_run_json(no_phases), CheckFailure);
}

TEST(RunRecord, FromRealSummaryUnderFallback) {
  // Drive a Recorder the way comm::Runtime does (hw bound, spans
  // closed), summarize, and condense into a run record.
  Recorder rec(0);
  HwCounters hw(false);
  rec.bind_hw(&hw);
  {
    auto eval = rec.span("eval");
    rec.add_flops(1000000);
    rec.add_sent(10, 4096);
  }
  rec.bind_hw(nullptr);
  const Json summary = summarize_runs("mini", {{rec.snapshot()}});

  Json config = Json::object();
  config.set("p", 1);
  const Json record = run_record_from_summary(summary, "mini", "sha1", config);
  validate_run_json(record);
  EXPECT_EQ(record.at("hw_source").as_string(), "fallback");
  EXPECT_EQ(record.at("config").at("p").as_int(), 1);
  const Json& eval = record.at("phases").at("eval");
  EXPECT_DOUBLE_EQ(eval.at("flops").as_double(), 1000000.0);
  EXPECT_TRUE(eval.contains("minor_faults"));
  EXPECT_TRUE(eval.contains("peak_rss_delta_bytes"));
  EXPECT_FALSE(eval.contains("cycles"));  // fallback: absent, not zero
}

// ------------------------------------------------------------- trend

TEST(Trend, TooShortHistoryIsOk) {
  const Json r = trend_analyze({make_record("a", 1.0, 2e6)});
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("checked").as_int(), 0);
  EXPECT_EQ(r.at("window").as_int(), 0);
}

TEST(Trend, EmptyHistoryIsOkWithNoWindow) {
  const Json r = trend_analyze({});
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("checked").as_int(), 0);
  EXPECT_EQ(r.at("window").as_int(), 0);
  EXPECT_EQ(r.at("newest_sha").as_string(), "");
  EXPECT_EQ(r.at("regressions").size(), 0u);
}

TEST(Trend, StableTrajectoryPasses) {
  std::vector<Json> hist;
  for (int i = 0; i < 5; ++i)
    hist.push_back(
        make_record(std::string("s").append(std::to_string(i)), 1.0 + 0.01 * i,
                    2e6));
  const Json r = trend_analyze(hist);
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("regressions").size(), 0u);
  EXPECT_EQ(r.at("newest_sha").as_string(), "s4");
}

TEST(Trend, DetectsInjectedWallRegression) {
  // Four steady records, then the newest at 3x the median wall time —
  // well past the 1.6x gate — and 2x the flops, messages and bytes,
  // past the 1.25x work gate. This is the synthetic-regression
  // acceptance check for tools/pkifmm_trend.
  std::vector<Json> hist;
  for (int i = 0; i < 4; ++i)
    hist.push_back(make_record("base", 1.0, 2e6));
  Json bad = make_record("bad", 3.0, 2e6);
  Json phases = bad.at("phases");
  Json eval = phases.at("eval");
  for (const char* work : {"flops", "msgs_sent", "bytes_sent"})
    eval.set(work, 2.0 * eval.at(work).as_double());
  phases.set("eval", eval);
  bad.set("phases", phases);
  hist.push_back(bad);
  const Json r = trend_analyze(hist);
  EXPECT_FALSE(r.at("ok").as_bool());
  ASSERT_GE(r.at("regressions").size(), 1u);
  bool found = false;
  std::set<std::string> work;
  for (const Json& f : r.at("regressions").items()) {
    if (f.at("phase").as_string() != "eval") continue;
    const std::string metric = f.at("metric").as_string();
    if (metric == "wall") {
      found = true;
      EXPECT_NEAR(f.at("ratio").as_double(), 3.0, 0.2);
      EXPECT_DOUBLE_EQ(f.at("limit").as_double(), 1.6);
    } else if (metric != "cpu") {
      work.insert(metric);
      EXPECT_DOUBLE_EQ(f.at("ratio").as_double(), 2.0) << metric;
      EXPECT_DOUBLE_EQ(f.at("limit").as_double(), 1.25) << metric;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(work,
            (std::set<std::string>{"flops", "msgs_sent", "bytes_sent"}));
}

TEST(Trend, OnlySameRankCountAndConfigAreReferences) {
  // The newest record runs at 3x the wall time of every earlier one,
  // but a run at another rank count or config does other work: with
  // only such records before it there is nothing to compare against.
  Json other_config = Json::object();
  other_config.set("n_points", 8000);
  std::vector<Json> hist;
  for (int i = 0; i < 3; ++i) {
    Json at_p2 = make_record("p2", 1.0, 2e6);
    at_p2.set("nranks", 2);
    hist.push_back(at_p2);
    Json resized = make_record("n8000", 1.0, 2e6);
    resized.set("config", other_config);
    hist.push_back(resized);
  }
  hist.push_back(make_record("slow", 3.0, 2e6));
  const Json alone = trend_analyze(hist);
  EXPECT_TRUE(alone.at("ok").as_bool());
  EXPECT_EQ(alone.at("window").as_int(), 0);
  EXPECT_EQ(alone.at("checked").as_int(), 0);

  // One matching reference is enough to flag it.
  hist.insert(hist.begin(), make_record("base", 1.0, 2e6));
  const Json flagged = trend_analyze(hist);
  EXPECT_FALSE(flagged.at("ok").as_bool());
  EXPECT_EQ(flagged.at("window").as_int(), 1);
}

TEST(Trend, HwDriftOnlyWarns) {
  // Minor-fault counts triple, wall stays flat: machine-dependent hw
  // metrics must never hard-fail the trend gate.
  std::vector<Json> hist;
  for (int i = 0; i < 4; ++i)
    hist.push_back(make_record("base", 1.0, 2e6));
  hist.push_back(make_record("drift", 1.0, 6e6));
  const Json r = trend_analyze(hist);
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("regressions").size(), 0u);
  ASSERT_GE(r.at("warnings").size(), 1u);
  EXPECT_EQ(r.at("warnings").items()[0].at("metric").as_string(),
            "minor_faults");
}

TEST(Trend, MissingPhaseIsARegression) {
  std::vector<Json> hist;
  for (int i = 0; i < 3; ++i) hist.push_back(make_record("base", 1.0, 2e6));
  Json gutted = make_record("bad", 1.0, 2e6);
  gutted.set("phases", Json::object());  // "eval" vanished
  hist.push_back(gutted);
  const Json r = trend_analyze(hist);
  EXPECT_FALSE(r.at("ok").as_bool());
  ASSERT_EQ(r.at("regressions").size(), 1u);
  EXPECT_EQ(r.at("regressions").items()[0].at("metric").as_string(),
            "missing");
}

TEST(Trend, FloorsSuppressNoiseOnTinyPhases) {
  // Below min_seconds the wall ratio is ignored, however large.
  std::vector<Json> hist;
  for (int i = 0; i < 3; ++i) hist.push_back(make_record("base", 1e-3, 2e6));
  Json fresh = make_record("fresh", 1e-3, 2e6);
  Json phases = fresh.at("phases");
  Json eval = phases.at("eval");
  eval.set("wall", 4e-2);  // 40x, but still under the 5e-2 s floor
  eval.set("flops", 2e8);
  phases.set("eval", eval);
  fresh.set("phases", phases);
  hist.push_back(fresh);
  const Json r = trend_analyze(hist);
  EXPECT_TRUE(r.at("ok").as_bool());
}

}  // namespace
}  // namespace pkifmm::obs
