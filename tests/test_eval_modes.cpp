/// Oracles for the evaluation engine (see DESIGN.md "Batched evaluation
/// engine"). Each checks the engine against its operators and the
/// LET's lists, not against a second engine:
///  - EvalOracle.TranslationsMatchPerBoxGemm runs each batched
///    translation phase through its public method from a seeded state
///    and checks every box's output against la::gemm of that box's
///    operators and inputs: uc2ue in S2U, the eight m2m in U2U, the
///    eight l2l and dc2de in the downward pass, and each dense M2L
///    offset in the dense V-list. The bound is elementwise,
///    2 k eps (|A| |x|), k the number of terms summed into the entry:
///    a worst-case rounding bound for any summation order. The
///    operators are pseudo-inverses whose cancellation makes any fixed
///    relative tolerance either loose or flaky.
///  - EvalOracle.FlopsMatchListCount checks every flops.eval.* phase
///    of a full evaluate() against the analytic count from the LET's
///    lists and point counts.
///  - VliFftOracle checks the FFT V-list against dense M2L and its
///    flop model.
///  - EvalSimdTierParity checks every SIMD tier against the scalar
///    tier end to end.
/// CI runs this binary under each PKIFMM_SIMD tier.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/fmm.hpp"
#include "kernels/kernel.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pkifmm::core {
namespace {

using octree::Distribution;
using octree::LetNode;

struct PipelineRun {
  std::map<std::uint64_t, std::vector<double>> pot;  // gid -> components
  std::vector<std::map<std::string, std::uint64_t>> eval_flops;  // per rank
};

struct Case {
  std::string kernel;
  Distribution dist;
  bool fft_vlist;
  int surface_n = 4;
};

/// gtest appends the printed parameter to each listed test name.
/// Without this it prints Case's raw bytes, the first eight of which
/// are the kernel string's heap address, so the names changed with the
/// heap layout of each build. Short, since every listed name carries
/// it.
void PrintTo(const Case& c, std::ostream* os) {
  *os << c.kernel << (c.dist == Distribution::kUniform ? " U " : " E ")
      << (c.fft_vlist ? "fft" : "dense") << " n" << c.surface_n;
}

FmmOptions case_options(const Case& c) {
  FmmOptions opts;
  opts.surface_n = c.surface_n;
  opts.max_points_per_leaf = 20;
  opts.m2l = c.fft_vlist ? M2lMode::kFft : M2lMode::kDense;
  return opts;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  std::string name = c.kernel;
  name += c.dist == Distribution::kUniform ? "Uniform" : "Ellipsoid";
  name += c.fft_vlist ? "Fft" : "Dense";
  if (c.surface_n != 4) name += "N" + std::to_string(c.surface_n);
  return name;
}

PipelineRun run_pipeline(const kernels::Kernel& kernel, const Case& c,
                         int p) {
  const Tables tables(kernel, case_options(c));

  PipelineRun out;
  out.eval_flops.resize(p);
  std::mutex mu;
  auto reports = comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(c.dist, 900, ctx.rank(), p,
                                       tables.sdim(), 91);
    ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    auto res = fmm.evaluate();
    const int td = tables.tdim();
    std::lock_guard<std::mutex> lock(mu);
    for (std::size_t i = 0; i < res.gids.size(); ++i)
      out.pot[res.gids[i]] =
          std::vector<double>(res.potentials.begin() + i * td,
                              res.potentials.begin() + (i + 1) * td);
  });
  for (int r = 0; r < p; ++r)
    for (const auto& [name, flops] : reports[r].counters)
      if (name.starts_with("flops.eval."))
        out.eval_flops[r][name.substr(6)] = static_cast<std::uint64_t>(flops);
  return out;
}

/// The kernel and options of the case, and a p = 2 run that hands each
/// rank its set-up ParallelFmm.
class OracleTest : public ::testing::TestWithParam<Case> {
 protected:
  template <class Body>
  static void on_ranks(const Tables& tables, Body body) {
    const Case c = GetParam();
    comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
      ParallelFmm fmm(ctx, tables);
      fmm.setup(octree::generate_points(c.dist, 900, ctx.rank(), 2,
                                        tables.sdim(), 91));
      body(ctx, fmm);
    });
  }

  static std::unique_ptr<kernels::Kernel> kernel() {
    return kernels::make_kernel(GetParam().kernel);
  }
  static FmmOptions options() { return case_options(GetParam()); }
};

// ---------------------------------------------------------------------
// Per-box translation oracle.

/// One box's expected output: its seed plus alpha A x for each operator
/// term, mag = |seed| + sum |alpha A| |x| per entry, and k the number of
/// terms summed into each entry (the seed counts as one).
struct BoxRef {
  std::vector<double> ref, mag;
  std::size_t k = 1;

  explicit BoxRef(std::span<const double> seed)
      : ref(seed.begin(), seed.end()), mag(seed.size()) {
    for (std::size_t r = 0; r < seed.size(); ++r) mag[r] = std::abs(seed[r]);
  }
};

/// Adds operator terms to BoxRefs through la::gemm, and measures an
/// output against its BoxRef.
class GemmOracle {
 public:
  void add(BoxRef& b, const la::Matrix& a, double alpha,
           std::span<const double> x) {
    la::Matrix xv(x.size(), 1), xa(x.size(), 1);
    for (std::size_t c = 0; c < x.size(); ++c) {
      xv(c, 0) = x[c];
      xa(c, 0) = std::abs(x[c]);
    }
    const la::Matrix y = la::gemm(a, xv);
    const la::Matrix ya = la::gemm(abs_of(a), xa);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      b.ref[r] += alpha * y(r, 0);
      b.mag[r] += std::abs(alpha) * ya(r, 0);
    }
    b.k += a.cols();
  }

  /// Worst |out - ref| / (2 k eps mag) over the box's entries: 0 when
  /// they agree exactly, infinite when an entry of zero magnitude moved.
  static double ratio(std::span<const double> out, const BoxRef& b) {
    constexpr double kEps = std::numeric_limits<double>::epsilon();
    double worst = 0.0;
    for (std::size_t r = 0; r < out.size(); ++r) {
      const double diff = std::abs(out[r] - b.ref[r]);
      if (diff == 0.0) continue;
      const double bound = 2.0 * double(b.k) * kEps * b.mag[r];
      worst = std::max(worst, bound > 0.0
                                  ? diff / bound
                                  : std::numeric_limits<double>::infinity());
    }
    return worst;
  }

 private:
  const la::Matrix& abs_of(const la::Matrix& a) {
    auto [it, fresh] = abs_.try_emplace(&a);
    if (fresh) {
      it->second = a;
      double* v = it->second.data();
      for (std::size_t i = 0; i < a.rows() * a.cols(); ++i)
        v[i] = std::abs(v[i]);
    }
    return it->second;
  }

  std::map<const la::Matrix*, la::Matrix> abs_;
};

/// The worst ratio of one checked output over all boxes and ranks.
struct Worst {
  double ratio = 0.0;
  int rank = -1;
  std::size_t node = 0;
  std::size_t terms = 0;  ///< operator terms checked

  void update(std::span<const double> out, const BoxRef& b, int r,
              std::size_t i, std::size_t box_terms) {
    merge({GemmOracle::ratio(out, b), r, i, box_terms});
  }
  void merge(const Worst& o) {
    terms += o.terms;
    if (rank >= 0 && o.ratio <= ratio) return;
    ratio = o.ratio;
    rank = o.rank;
    node = o.node;
  }
};

template <class T>
std::span<T> box(std::span<T> v, std::size_t i, std::size_t len) {
  return v.subspan(i * len, len);
}

void seed(std::span<double> v, Rng& rng) {
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
}

/// offset_index of a same-level (target, source) pair, taken from the
/// box centres: their difference in box sides.
int pair_offset(const morton::Key& t, const morton::Key& s) {
  const auto gt = morton::box_geometry(t);
  const auto gs = morton::box_geometry(s);
  int d[3];
  for (int c = 0; c < 3; ++c)
    d[c] = static_cast<int>(
        std::lround((gt.center[c] - gs.center[c]) / (2.0 * gt.half_width)));
  return offset_index(d[0], d[1], d[2]);
}

/// Checks the four batched translation phases on one rank's LET, each
/// on a fresh Evaluator with seeded state, into worst[phase output].
void check_translations(const Tables& tables, const octree::Let& let,
                        comm::RankCtx& ctx,
                        std::map<std::string, Worst>& worst) {
  const FmmOptions& opts = tables.options();
  const std::size_t elen = tables.eq_len();
  const std::size_t clen = tables.check_len();
  const int sd = tables.sdim();
  const int r = ctx.rank();
  const std::size_t nn = let.nodes.size();
  Rng rng(0x0dac1e, r);
  GemmOracle oracle;

  {  // S2U: uc2ue of each owned leaf's upward check potential.
    Evaluator ev(tables, let, ctx);
    seed(ev.u_mutable(), rng);
    const std::vector<double> u0(ev.u().begin(), ev.u().end());
    ev.s2u();
    for (std::size_t i = 0; i < nn; ++i) {
      const LetNode& node = let.nodes[i];
      BoxRef b(box<const double>(u0, i, elen));
      std::vector<double> pos, den;
      for (const octree::PointRec& pt : let.points_of(node)) {
        if (!pt.is_source()) continue;
        pos.insert(pos.end(), pt.pos, pt.pos + 3);
        den.insert(den.end(), pt.den, pt.den + sd);
      }
      const bool s2u = node.owned && node.global_leaf && !pos.empty();
      if (s2u) {
        const auto g = morton::box_geometry(node.key);
        const std::vector<double> uc = surface_points(
            tables.n(), kUpwardCheckRadius, g.center, g.half_width);
        std::vector<double> check(clen, 0.0);
        tables.kernel().direct(uc, pos, den, check);
        const LevelOps ops = tables.at(node.key.level);
        oracle.add(b, *ops.uc2ue, ops.uc2ue_scale, check);
      }
      worst["s2u.uc2ue"].update(box(ev.u(), i, elen), b, r, i, s2u);
    }
  }

  {  // U2U: the eight m2m of each target parent's target children.
    Evaluator ev(tables, let, ctx);
    seed(ev.u_mutable(), rng);
    const std::vector<double> u0(ev.u().begin(), ev.u().end());
    ev.u2u();
    for (std::size_t i = 0; i < nn; ++i) {
      const LetNode& node = let.nodes[i];
      BoxRef b(box<const double>(u0, i, elen));
      std::size_t terms = 0;
      for (int ci = 0; ci < 8 && node.target; ++ci) {
        const std::int32_t c = node.child[ci];
        if (c < 0 || !let.nodes[c].target) continue;
        oracle.add(b, (*tables.at(node.key.level).m2m)[ci], 1.0,
                   box(ev.u(), c, elen));
        ++terms;
      }
      worst["u2u.m2m"].update(box(ev.u(), i, elen), b, r, i, terms);
    }
  }

  if (opts.m2l == M2lMode::kDense) {  // Dense V-list: one M2L per pair.
    Evaluator ev(tables, let, ctx);
    seed(ev.u_mutable(), rng);
    seed(ev.checkpot_mutable(), rng);
    const std::vector<double> c0(ev.checkpot().begin(),
                                 ev.checkpot().end());
    ev.vli();
    for (std::size_t i = 0; i < nn; ++i) {
      const LetNode& node = let.nodes[i];
      BoxRef b(box<const double>(c0, i, clen));
      const auto list = node.target ? let.v.of(i)
                                     : std::span<const std::int32_t>();
      const double scale = tables.at(node.key.level).m2l_scale;
      for (const std::int32_t s : list)
        oracle.add(b,
                   tables.m2l_dense(node.key.level,
                                    pair_offset(node.key, let.nodes[s].key)),
                   scale, box(ev.u(), s, elen));
      worst["vli.m2l_dense"].update(box(ev.checkpot(), i, clen), b, r, i,
                                    list.size());
    }
  }

  {  // Downward: l2l from the parent's density, then dc2de.
    Evaluator ev(tables, let, ctx);
    seed(ev.checkpot_mutable(), rng);
    const std::vector<double> c0(ev.checkpot().begin(),
                                 ev.checkpot().end());
    const std::vector<double> zero(elen, 0.0);
    ev.downward();
    for (std::size_t i = 0; i < nn; ++i) {
      const LetNode& node = let.nodes[i];
      BoxRef bc(box<const double>(c0, i, clen));
      const std::int32_t pi = node.parent;
      const bool l2l = node.target && pi >= 0 && let.nodes[pi].target;
      if (l2l) {
        const LevelOps po = tables.at(let.nodes[pi].key.level);
        oracle.add(bc, (*po.l2l)[morton::child_index(node.key)],
                   po.l2l_scale, box(ev.d(), pi, elen));
      }
      worst["down.l2l"].update(box(ev.checkpot(), i, clen), bc, r, i, l2l);

      BoxRef bd(zero);
      if (node.target) {
        const LevelOps ops = tables.at(node.key.level);
        oracle.add(bd, *ops.dc2de, ops.dc2de_scale,
                   box(ev.checkpot(), i, clen));
      }
      worst["down.dc2de"].update(box(ev.d(), i, elen), bd, r, i,
                                 node.target);
    }
  }
}

class EvalOracle : public OracleTest {};

TEST_P(EvalOracle, TranslationsMatchPerBoxGemm) {
  const auto kern = kernel();
  const Tables tables(*kern, options());
  std::mutex mu;
  std::map<std::string, Worst> worst;
  on_ranks(tables, [&](comm::RankCtx& ctx, ParallelFmm& fmm) {
    std::map<std::string, Worst> mine;
    check_translations(tables, fmm.let(), ctx, mine);
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [phase, w] : mine) worst[phase].merge(w);
  });

  EXPECT_EQ(worst.size(), GetParam().fft_vlist ? 4u : 5u);
  for (const auto& [phase, w] : worst) {
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.3g", w.ratio);
    RecordProperty(phase + ".worst_ratio", ratio);
    EXPECT_GT(w.terms, 0u) << phase;
    EXPECT_LE(w.ratio, 1.0) << phase << ": rank " << w.rank << " node "
                            << w.node;
  }
}

// ---------------------------------------------------------------------
// Flop oracle.

/// Each eval.* phase's model flops from the LET's lists and point
/// counts: gemv_flops per operator application, nt ns
/// flops_per_interaction per direct interaction, and Tables::vli_flops()
/// for the FFT V-list.
std::map<std::string, std::uint64_t> listed_flops(const Tables& t,
                                                  const octree::Let& let) {
  const std::uint64_t fpi = t.kernel().flops_per_interaction();
  const std::uint64_t m = t.m();
  const bool fft = t.options().m2l == M2lMode::kFft;
  std::vector<std::uint64_t> nsrc(let.nodes.size(), 0);
  for (std::size_t i = 0; i < let.nodes.size(); ++i)
    for (const octree::PointRec& pt : let.points_of(let.nodes[i]))
      nsrc[i] += pt.is_source();

  std::map<std::string, std::uint64_t> f;
  std::uint64_t vli_pairs = 0, vli_targets = 0;
  std::set<std::int32_t> vli_sources;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    const LetNode& node = let.nodes[i];
    if (node.owned && node.global_leaf) {
      if (nsrc[i] > 0)
        f["eval.s2u"] += m * nsrc[i] * fpi +
                         la::gemv_flops(*t.at(node.key.level).uc2ue);
      const std::uint64_t nt = node.target_count;
      if (nt > 0) {
        f["eval.d2t"] += nt * m * fpi;
        f["eval.wli"] += let.w.of(i).size() * nt * m * fpi;
        for (const std::int32_t s : let.u.of(i))
          f["eval.uli"] += nt * nsrc[s] * fpi;
      }
    }
    if (!node.target) continue;
    for (const std::int32_t s : let.x.of(i))
      f["eval.xli"] += m * nsrc[s] * fpi;
    f["eval.down"] += la::gemv_flops(*t.at(node.key.level).dc2de);
    const std::int32_t pi = node.parent;
    if (pi >= 0 && let.nodes[pi].target) {
      const LevelOps po = t.at(let.nodes[pi].key.level);
      const int ci = morton::child_index(node.key);
      f["eval.u2u"] += la::gemv_flops((*po.m2m)[ci]);
      f["eval.down"] += la::gemv_flops((*po.l2l)[ci]);
    }
    const auto list = let.v.of(i);
    if (!fft) {
      for (const std::int32_t s : list)
        f["eval.vli"] += la::gemv_flops(t.m2l_dense(
            node.key.level, pair_offset(node.key, let.nodes[s].key)));
    } else if (!list.empty()) {
      ++vli_targets;
      vli_pairs += list.size();
      vli_sources.insert(list.begin(), list.end());
    }
  }
  if (fft) {
    const Tables::VliFlops& fl = t.vli_flops();
    f["eval.vli"] = vli_pairs * fl.mac_per_pair +
                    vli_sources.size() * fl.fwd_per_source +
                    vli_targets * fl.inv_per_target;
  }
  return f;
}

std::map<std::string, std::uint64_t> eval_flops(comm::RankCtx& ctx) {
  std::map<std::string, std::uint64_t> m;
  for (const auto& [name, fl] : ctx.rec.metrics().counters)
    if (name.starts_with("flops.eval."))
      m[name.substr(6)] = static_cast<std::uint64_t>(fl);
  return m;
}

TEST_P(EvalOracle, FlopsMatchListCount) {
  const auto kern = kernel();
  const Tables tables(*kern, options());
  on_ranks(tables, [&](comm::RankCtx& ctx, ParallelFmm& fmm) {
    const auto before = eval_flops(ctx);
    (void)fmm.evaluate();
    std::map<std::string, std::uint64_t> counted = eval_flops(ctx);
    for (auto& [phase, fl] : counted)
      if (before.count(phase)) fl -= before.at(phase);
    std::map<std::string, std::uint64_t> listed =
        listed_flops(tables, fmm.let());
    for (const char* phase : {"eval.s2u", "eval.u2u", "eval.vli",
                              "eval.down", "eval.d2t", "eval.uli"})
      EXPECT_GT(listed[phase], 0u) << phase << " rank " << ctx.rank();
    // A phase counted as zero may be absent from either side.
    std::erase_if(counted, [](const auto& e) { return e.second == 0; });
    std::erase_if(listed, [](const auto& e) { return e.second == 0; });
    EXPECT_EQ(counted, listed) << "rank " << ctx.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndDistributions, EvalOracle,
    ::testing::Values(Case{"laplace", Distribution::kUniform, true},
                      Case{"laplace", Distribution::kEllipsoid, true},
                      Case{"stokes", Distribution::kUniform, true},
                      Case{"stokes", Distribution::kEllipsoid, true},
                      Case{"yukawa", Distribution::kUniform, true},
                      Case{"yukawa", Distribution::kEllipsoid, true},
                      Case{"laplace", Distribution::kUniform, false},
                      Case{"laplace", Distribution::kEllipsoid, false},
                      Case{"stokes", Distribution::kUniform, false},
                      Case{"stokes", Distribution::kEllipsoid, false},
                      Case{"yukawa", Distribution::kUniform, false},
                      Case{"yukawa", Distribution::kEllipsoid, false},
                      // Order 3: FFT grid 6.
                      Case{"laplace", Distribution::kUniform, true, 3},
                      Case{"stokes", Distribution::kEllipsoid, true, 3}),
    case_name);

/// Forced-tier sweep of the full pipeline: every available SIMD tier
/// must reproduce the scalar tier's potentials with EXACTLY equal
/// per-phase model flops (tiers change instruction selection, never
/// the flop model). The per-operation cross-tier contract is 1e-12
/// (asserted in test_simd); end-to-end the translation chain amplifies
/// those last-bit FMA differences by a small condition factor (observed
/// ~1.1e-12 for Stokes), so the pipeline bound carries a 4x allowance.
TEST(EvalSimdTierParity, AllTiersMatchScalarTier) {
  struct TierGuard {
    ~TierGuard() { simd::clear_forced_tier(); }
  } guard;

  const int p = 2;
  for (const Case& c : {Case{"stokes", Distribution::kUniform, true},
                        Case{"laplace", Distribution::kEllipsoid, true}}) {
    auto kernel = kernels::make_kernel(c.kernel);
    simd::force_tier(simd::Tier::kScalar);
    const PipelineRun ref = run_pipeline(*kernel, c, p);
    ASSERT_GT(ref.pot.size(), 0u);

    for (const simd::Tier t : simd::available_tiers()) {
      simd::force_tier(t);
      const PipelineRun run = run_pipeline(*kernel, c, p);

      ASSERT_EQ(ref.pot.size(), run.pot.size()) << simd::tier_name(t);
      std::vector<double> a, b;
      for (const auto& [gid, comps] : ref.pot) {
        const auto it = run.pot.find(gid);
        ASSERT_NE(it, run.pot.end()) << "gid " << gid;
        a.insert(a.end(), comps.begin(), comps.end());
        b.insert(b.end(), it->second.begin(), it->second.end());
      }
      EXPECT_LT(rel_l2_error(b, a), 4e-12)
          << c.kernel << " tier " << simd::tier_name(t);

      for (int r = 0; r < p; ++r)
        EXPECT_EQ(ref.eval_flops[r], run.eval_flops[r])
            << c.kernel << " rank " << r << " tier " << simd::tier_name(t);
    }
  }
}

/// The FFT V-list's oracles, V-list only, from identical upward
/// densities, at orders 3, 5 and 7 (grids 6, 9 and 16; n = 5 has 405
/// half-spectrum frequencies, padded to 416).
///  - FFT against dense M2L: the same translation, once diagonalized by
///    FFT and once as the paper's dense baseline, so the check
///    potentials agree to rounding. Measured <= 2.4e-15 on all six
///    cases under every SIMD tier; the bound keeps a 40x margin.
///  - The counted flops equal the analytic count from the LET's lists:
///    Tables::vli_flops() per V-list pair, per source and per target.
class VliFftOracle : public OracleTest {
 protected:
  /// Runs `body(ctx, let, u)` on every rank, u the reduced upward
  /// densities of the setup's LET.
  template <class Body>
  static void run(const Tables& tables, Body body) {
    on_ranks(tables, [&](comm::RankCtx& ctx, ParallelFmm& fmm) {
      Evaluator up(tables, fmm.let(), ctx);
      up.s2u();
      up.u2u();
      up.comm_reduce();
      body(ctx, fmm.let(), up.u());
    });
  }
};

/// checkpot after vli() alone on fresh state with upward densities u.
std::vector<double> vli_checkpot(const Tables& tables, const octree::Let& let,
                                 comm::RankCtx& ctx,
                                 std::span<const double> u) {
  Evaluator ev(tables, let, ctx);
  std::copy(u.begin(), u.end(), ev.u_mutable().begin());
  ev.vli();
  return {ev.checkpot().begin(), ev.checkpot().end()};
}

TEST_P(VliFftOracle, FftMatchesDenseM2l) {
  const auto kern = kernel();
  FmmOptions opts = options();
  const Tables fft(*kern, opts);
  opts.m2l = M2lMode::kDense;
  const Tables dense = fft.with_options(opts);
  run(fft, [&](comm::RankCtx& ctx, const octree::Let& let,
               std::span<const double> u) {
    const std::vector<double> a = vli_checkpot(fft, let, ctx, u);
    const std::vector<double> b = vli_checkpot(dense, let, ctx, u);
    ASSERT_GT(std::count_if(b.begin(), b.end(),
                            [](double x) { return x != 0.0; }),
              0)
        << "rank " << ctx.rank();
    EXPECT_LT(rel_l2_error(a, b), 1e-13) << "rank " << ctx.rank();
  });
}

TEST_P(VliFftOracle, FlopsMatchListCount) {
  const auto kern = kernel();
  const Tables tables(*kern, options());
  run(tables, [&](comm::RankCtx& ctx, const octree::Let& let,
                  std::span<const double> u) {
    const std::uint64_t f0 = ctx.flops.get("eval.vli");
    vli_checkpot(tables, let, ctx, u);
    const std::uint64_t counted = ctx.flops.get("eval.vli") - f0;
    const std::uint64_t listed = listed_flops(tables, let).at("eval.vli");
    EXPECT_GT(listed, 0u) << "rank " << ctx.rank();
    EXPECT_EQ(counted, listed) << "rank " << ctx.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndOrders, VliFftOracle,
    ::testing::Values(Case{"laplace", Distribution::kUniform, true, 3},
                      Case{"laplace", Distribution::kUniform, true, 5},
                      Case{"laplace", Distribution::kEllipsoid, true, 7},
                      Case{"stokes", Distribution::kEllipsoid, true, 3},
                      Case{"stokes", Distribution::kUniform, true, 5},
                      Case{"yukawa", Distribution::kEllipsoid, true, 5}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const Case& c = info.param;
      std::string name = c.kernel;
      name += c.dist == Distribution::kUniform ? "Uniform" : "Ellipsoid";
      return name + "N" + std::to_string(c.surface_n);
    });

}  // namespace
}  // namespace pkifmm::core
