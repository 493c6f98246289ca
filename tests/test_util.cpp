#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <thread>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/flops.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace pkifmm {
namespace {

TEST(Check, PassingCheckIsSilent) { EXPECT_NO_THROW(PKIFMM_CHECK(1 + 1 == 2)); }

TEST(Check, FailingCheckThrowsWithLocation) {
  try {
    PKIFMM_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_util.cpp"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, RankStreamsAreIndependent) {
  Rng a(7, 0), b(7, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

/// Regression for the weak (seed, rank) derivation: the old
/// `seed ^ (c * (rank+1))` mix was linear, so adjacent ranks could
/// produce correlated or colliding streams for adversarial seeds. With
/// the SplitMix64 avalanche, adjacent-rank streams must differ in every
/// one of the first 64 draws, for a spread of seeds including the ones
/// the benches use.
TEST(Rng, AdjacentRankStreamsFullyDiverge) {
  for (std::uint64_t seed : {0ull, 1ull, 7ull, 42ull, 61ull,
                             0x9e3779b97f4a7c15ull, ~0ull}) {
    for (int rank = 0; rank < 8; ++rank) {
      Rng a(seed, rank), b(seed, rank + 1);
      for (int i = 0; i < 64; ++i)
        ASSERT_NE(a.next_u64(), b.next_u64())
            << "seed=" << seed << " rank=" << rank << " draw=" << i;
    }
  }
}

/// (seed, rank) must also not collide with plain seeds or other pairs
/// in trivial ways: spot-check a small grid for distinct first draws.
TEST(Rng, SeedRankPairsAreDistinct) {
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t seed = 0; seed < 16; ++seed)
    for (int rank = 0; rank < 16; ++rank)
      first_draws.insert(Rng(seed, rank).next_u64());
  EXPECT_EQ(first_draws.size(), 256u);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng r(5);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(r.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, BoundedIntegerIsInRange) {
  Rng r(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.uniform_u64(37), 37u);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
}

TEST(PhaseTimer, AccumulatesNamedPhases) {
  obs::Recorder rec;
  PhaseTimer pt(rec);
  for (const char* name : {"a", "b", "a"}) {
    auto s = pt.scope(name);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  double a = 0.0, b = 0.0;
  for (const obs::SpanEvent& e : rec.metrics().spans)
    (e.name == "a" ? a : b) += e.wall;
  EXPECT_DOUBLE_EQ(pt.get("a"), a);
  EXPECT_DOUBLE_EQ(pt.get("b"), b);
  EXPECT_DOUBLE_EQ(pt.get("missing"), 0.0);
}

TEST(PhaseTimer, ScopeAddsOnDestruction) {
  obs::Recorder rec;
  PhaseTimer pt(rec);
  {
    auto s = pt.scope("x");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_DOUBLE_EQ(pt.get("x"), 0.0);
  }
  EXPECT_GT(pt.get("x"), 0.0);
}

TEST(FlopCounter, TracksPerPhaseAndTotal) {
  obs::Recorder rec;
  FlopCounter fc(rec);
  fc.add("uli", 100);
  fc.add("vli", 50);
  fc.add("uli", 10);
  EXPECT_EQ(fc.get("uli"), 110.0);
  EXPECT_EQ(fc.get("vli"), 50.0);
  EXPECT_EQ(rec.flops_total(), 160u);
}

TEST(Summary, ComputesMaxAvgMin) {
  const double xs[] = {1.0, 2.0, 3.0, 6.0};
  auto s = Summary::of(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_DOUBLE_EQ(s.avg, 3.0);
  EXPECT_DOUBLE_EQ(s.imbalance(), 2.0);
}

TEST(Summary, EmptyIsZero) {
  auto s = Summary::of({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

/// imbalance() is max/avg ONLY when the mean is finite and nonzero;
/// every degenerate case reports 1.0 ("balanced") instead of a
/// meaningless or infinite quotient.
TEST(Summary, ImbalanceEdgeCases) {
  // Empty sample set.
  EXPECT_DOUBLE_EQ(Summary::of({}).imbalance(), 1.0);
  // All-zero metric (phase nobody entered).
  const double zeros[] = {0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(Summary::of(zeros).imbalance(), 1.0);
  // Signed samples cancelling to a zero mean: max/avg would be inf.
  const double cancel[] = {-2.0, 2.0};
  EXPECT_DOUBLE_EQ(Summary::of(cancel).imbalance(), 1.0);
  // Non-finite mean (a sample overflowed): no information either.
  const double inf[] = {1.0, std::numeric_limits<double>::infinity()};
  EXPECT_DOUBLE_EQ(Summary::of(inf).imbalance(), 1.0);
  // Single sample is perfectly balanced by definition.
  const double one[] = {3.5};
  EXPECT_DOUBLE_EQ(Summary::of(one).imbalance(), 1.0);
  // Signed samples with a nonzero mean keep the raw quotient.
  const double skew[] = {-1.0, 3.0};  // avg 1.0, max 3.0
  EXPECT_DOUBLE_EQ(Summary::of(skew).imbalance(), 3.0);
}

/// Accumulator::merge (Chan et al.) must agree with a single
/// accumulator that saw the concatenated stream — this is what lets
/// cross-rank aggregation fold per-run accumulators without revisiting
/// samples.
TEST(Accumulator, MergeMatchesSingleStream) {
  Rng r(17);
  Accumulator whole, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform() * 10.0 - 3.0;
    whole.add(x);
    (i < 640 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(Accumulator, MergeWithEmptySides) {
  Accumulator filled;
  filled.add(1.0);
  filled.add(5.0);

  Accumulator lhs_empty;
  lhs_empty.merge(filled);  // empty <- filled adopts the other side
  EXPECT_EQ(lhs_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(lhs_empty.mean(), 3.0);
  EXPECT_DOUBLE_EQ(lhs_empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(lhs_empty.max(), 5.0);

  Accumulator rhs_empty = filled;
  rhs_empty.merge(Accumulator{});  // filled <- empty is a no-op
  EXPECT_EQ(rhs_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(rhs_empty.mean(), 3.0);
  EXPECT_DOUBLE_EQ(rhs_empty.variance(), filled.variance());
}

TEST(Stats, RelL2ErrorOfIdenticalVectorsIsZero) {
  const double a[] = {1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(rel_l2_error(a, a), 0.0);
}

TEST(Stats, RelL2ErrorScales) {
  const double r[] = {3.0, 4.0};     // norm 5
  const double a[] = {3.0, 4.5};     // diff norm 0.5
  EXPECT_NEAR(rel_l2_error(a, r), 0.1, 1e-12);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"Event", "Max"});
  t.add_row({"Total", "1.37e+02"});
  const std::string s = t.str();
  EXPECT_NE(s.find("Event"), std::string::npos);
  EXPECT_NE(s.find("1.37e+02"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(Format, SciMatchesPaperStyle) {
  EXPECT_EQ(sci(137.0), "1.37e+02");
  EXPECT_EQ(sci(0.00883, 2), "8.83e-03");
}

TEST(Format, WithCommas) {
  EXPECT_EQ(with_commas(1048576), "1,048,576");
  EXPECT_EQ(with_commas(7), "7");
}

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--n=100", "--verbose", "--rate=2.5"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("n", 0), 100);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 2.5);
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, RejectsMalformedNumbers) {
  const char* argv[] = {"prog",         "--sci=2e3", "--frac=1.5",
                        "--tail=3000abc", "--word=abc", "--empty=",
                        "--neg=-5",     "--small=5e-2", "--flag"};
  Cli cli(9, const_cast<char**>(argv));
  for (const char* key : {"sci", "frac", "tail", "word", "empty", "flag"})
    EXPECT_THROW(cli.get_int(key, 0), CheckFailure) << key;
  for (const char* key : {"tail", "word", "empty", "flag"})
    EXPECT_THROW(cli.get_double(key, 0.0), CheckFailure) << key;
  try {
    cli.get_int("sci", 0);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("--sci expects an integer, got '2e3'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cli.get_int("neg", 0), -5);
  EXPECT_DOUBLE_EQ(cli.get_double("sci", 0.0), 2000.0);
  EXPECT_DOUBLE_EQ(cli.get_double("small", 0.0), 0.05);
  EXPECT_DOUBLE_EQ(cli.get_double("neg", 0.0), -5.0);
}

TEST(Cli, RejectsOutOfRangeIntegers) {
  // A value outside the target type (or the given bounds) fails instead
  // of wrapping when narrowed; the message names the range.
  const char* argv[] = {"prog",          "--ranks=4294967297", "--q=-1",
                        "--big=4294967295", "--per-rank=-1",   "--ok=7",
                        "--huge=99999999999999999999"};
  Cli cli(7, const_cast<char**>(argv));
  EXPECT_THROW(cli.get_int_as<int>("ranks", 4, 1), CheckFailure);
  EXPECT_THROW(cli.get_int_as<int>("q", 60, 1), CheckFailure);
  EXPECT_THROW(cli.get_int_as<int>("big", 0), CheckFailure);
  EXPECT_THROW(cli.get_int_as<std::uint64_t>("per-rank", 1), CheckFailure);
  EXPECT_THROW(cli.get_int_as<std::size_t>("huge", 1), CheckFailure);
  EXPECT_THROW(cli.get_int_as<int>("ok", 0, 8), CheckFailure);
  try {
    cli.get_int_as<int>("ranks", 4, 1);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "--ranks expects an integer in [1, 2147483647], got "
                  "'4294967297'"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cli.get_int_as<std::uint32_t>("big", 0), 4294967295u);
  EXPECT_EQ(cli.get_int_as<int>("q", 60), -1);
  EXPECT_EQ(cli.get_int_as<int>("ok", 0, 1, 7), 7);
  EXPECT_EQ(cli.get_int_as<std::uint64_t>("missing", 5), 5u);
  EXPECT_EQ(cli.get_int_as<int>("missing", -3, 1), -3);  // fallback as is
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "oops"};
  EXPECT_THROW(Cli(2, const_cast<char**>(argv)), CheckFailure);
}

}  // namespace
}  // namespace pkifmm
