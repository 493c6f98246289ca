/// \file micro.cpp
/// \brief google-benchmark micro-benchmarks of the pkifmm substrates:
/// Morton algebra, FFTs, the operator precompute (core::Tables), kernel
/// inner loops (the paper's "500 MFlop/s single-core" context), and
/// the in-process communication fabric.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "comm/comm.hpp"
#include "comm/sort.hpp"
#include "core/tables.hpp"
#include "fft/fft.hpp"
#include "kernels/kernel.hpp"
#include "la/matrix.hpp"
#include "morton/key.hpp"
#include "obs/json.hpp"
#include "obs/trend.hpp"
#include "octree/build.hpp"
#include "simd/simd.hpp"
#include "util/rng.hpp"
#include "util/task_pool.hpp"

namespace {

using namespace pkifmm;

void BM_MortonCellOfPoint(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> xs(3000);
  for (auto& x : xs) x = rng.uniform();
  for (auto _ : state) {
    morton::Bits acc = 0;
    for (std::size_t i = 0; i + 2 < xs.size(); i += 3)
      acc ^= morton::cell_of_point(xs[i], xs[i + 1], xs[i + 2]).bits;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MortonCellOfPoint);

void BM_MortonColleagues(benchmark::State& state) {
  const auto k = morton::ancestor_at(morton::cell_of_point(0.37, 0.52, 0.81),
                                     static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto c = morton::colleagues(k);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MortonColleagues)->Arg(3)->Arg(10)->Arg(20);

void BM_MortonAdjacent(benchmark::State& state) {
  Rng rng(2);
  std::vector<morton::Key> keys;
  for (int i = 0; i < 256; ++i)
    keys.push_back(morton::ancestor_at(
        morton::cell_of_point(rng.uniform(), rng.uniform(), rng.uniform()),
        2 + static_cast<int>(rng.uniform_u64(8))));
  for (auto _ : state) {
    int count = 0;
    for (std::size_t i = 0; i + 1 < keys.size(); ++i)
      count += morton::adjacent(keys[i], keys[i + 1]);
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 255);
}
BENCHMARK(BM_MortonAdjacent);

void BM_Fft3d(benchmark::State& state) {
  // Args (N, s). s = 0: complex forward + inverse on the N^3 grid.
  // s > 0: the V-list's pair, forward_r2c of an s^3 corner cube and
  // inverse_c2r back to it (N = 12, s = 6 is the surface n = 6 grid).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t s = static_cast<std::size_t>(state.range(1));
  fft::Fft3d plan(n);
  Rng rng(3);
  if (s == 0) {
    std::vector<fft::Complex> vol(plan.volume());
    for (auto& v : vol) v = fft::Complex(rng.uniform(), rng.uniform());
    for (auto _ : state) {
      plan.forward(vol);
      plan.inverse(vol);
      benchmark::DoNotOptimize(vol.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * plan.transform_flops());
    return;
  }
  std::vector<double> cube(s * s * s), out(s * s * s);
  for (auto& v : cube) v = rng.uniform();
  std::vector<fft::Complex> half(plan.half_volume());
  for (auto _ : state) {
    plan.forward_r2c(cube, s, half);
    plan.inverse_c2r(half, s, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 *
                          plan.real_transform_flops(s));
}
BENCHMARK(BM_Fft3d)
    ->Args({8, 0})
    ->Args({12, 0})
    ->Args({16, 0})
    ->Args({8, 4})
    ->Args({12, 6})
    ->Args({16, 8});

void BM_LaGemmAcc(benchmark::State& state) {
  // One surface-operator application batched over nb octant columns
  // (n=6 surfaces have m=152 points; Laplace operators are 152x152).
  const std::size_t nb = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  la::Matrix a(152, 152);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = rng.uniform(-1, 1);
  std::vector<double> b(a.cols() * nb), acc(a.rows() * nb);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    std::fill(acc.begin(), acc.end(), 0.0);
    la::gemm_acc(a, b, acc, nb, 0.5);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(la::gemm_flops(a, nb)));
}
BENCHMARK(BM_LaGemmAcc)->Arg(32)->Arg(256);

void BM_FftPointwiseMacChunked(benchmark::State& state) {
  // One frequency chunk of a chunk-major MAC (fft::pointwise_mac_chunked,
  // the call wallbench's fft.mac_gflops times): nentries (source,
  // accumulator) slot pairs under one operator slice.
  const std::size_t nentries = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kChunk = 16;
  const std::size_t nslots = 256;
  Rng rng(9);
  std::vector<fft::Complex> g(kChunk), f(nslots * kChunk),
      acc(nslots * kChunk);
  for (auto& v : g) v = fft::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto& v : f) v = fft::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  std::vector<std::int32_t> fidx(nentries), aidx(nentries);
  for (std::size_t e = 0; e < nentries; ++e) {
    fidx[e] = static_cast<std::int32_t>(rng.uniform_u64(nslots));
    aidx[e] = static_cast<std::int32_t>(rng.uniform_u64(nslots));
  }
  for (auto _ : state) {
    fft::pointwise_mac_chunked(g.data(), kChunk, f.data(), acc.data(), fidx,
                               aidx);
    benchmark::DoNotOptimize(acc.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * kChunk * nentries));
}
BENCHMARK(BM_FftPointwiseMacChunked)->Arg(64)->Arg(1024);

void BM_FftMacLevel(benchmark::State& state) {
  // The V-list MAC that core::Evaluator::vli_mac runs, at a real level
  // shape: targets are the first 1,022 octants of a uniform level-4
  // grid in Morton order (one rank's share of the uniform_farfield
  // workload), sources the union of their V-lists, n = 6 (126 blocks of
  // 8 frequencies). The plan holds the targets' parents and their
  // colleague entries, built as Evaluator::vli_plan builds it, and each
  // block is one simd::Ops::vli_mac_block call. Items are flops: 8 per
  // frequency per V-list pair (Tables::vli_flops). Set PKIFMM_SIMD to
  // time a lower tier.
  constexpr int kLevel = 4;
  constexpr std::size_t kTargets = 1022, kB = simd::kVliBlockDoubles;
  const std::size_t len = fft::Fft3d(12).half_volume();  // 1,008 at n = 6
  const std::size_t nblk = len / simd::kVliBlock;
  const morton::Coord side = morton::kGridSize >> kLevel;
  std::vector<morton::Key> grid;
  for (morton::Coord x = 0; x < morton::kGridSize; x += side)
    for (morton::Coord y = 0; y < morton::kGridSize; y += side)
      for (morton::Coord z = 0; z < morton::kGridSize; z += side)
        grid.push_back(morton::make_key(x, y, z, kLevel));
  std::sort(grid.begin(), grid.end());

  std::map<morton::Key, std::int32_t> tgt_slot, src_slot;
  for (std::size_t t = 0; t < kTargets; ++t)
    tgt_slot[grid[t]] = static_cast<std::int32_t>(t);
  const auto& pair_slots = core::vli_pair_slots();
  std::vector<simd::VliParent> parents;
  std::vector<simd::VliColleague> colleagues;
  std::size_t pairs = 0;
  for (std::size_t t = 0; t < kTargets; ++t) {
    const morton::Key par = morton::parent(grid[t]);
    if (t > 0 && morton::parent(grid[t - 1]) == par) continue;
    simd::VliParent vp{};
    std::uint64_t targets = 0;
    const auto kids = morton::children(par);
    for (int ci = 0; ci < 8; ++ci) {
      const auto it = tgt_slot.find(kids[ci]);
      vp.tgt[ci] = it == tgt_slot.end() ? -1 : it->second;
      if (vp.tgt[ci] >= 0) targets |= 0x0101010101010101ull << ci;
    }
    vp.c0 = static_cast<std::uint32_t>(colleagues.size());
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dz = -1; dz <= 1; ++dz) {
          const auto nb = morton::neighbor(par, dx, dy, dz);
          if ((dx == 0 && dy == 0 && dz == 0) || !nb) continue;
          simd::VliColleague vc{};
          vc.dir = (dx + 1) * 9 + (dy + 1) * 3 + (dz + 1);
          const auto src = morton::children(*nb);
          for (int cs = 0; cs < 8; ++cs) {
            std::uint64_t bits = 0;
            for (int ct = 0; ct < 8; ++ct)
              if (pair_slots[64 * vc.dir + 8 * cs + ct] >= 0)
                bits |= std::uint64_t{1} << (8 * cs + ct);
            bits &= targets;
            vc.src[cs] =
                bits == 0 ? -1
                          : src_slot.try_emplace(src[cs], src_slot.size())
                                .first->second;
            vc.pairs |= bits;
          }
          if (vc.pairs == 0) continue;
          pairs += static_cast<std::size_t>(std::popcount(vc.pairs));
          colleagues.push_back(vc);
        }
    vp.c1 = static_cast<std::uint32_t>(colleagues.size());
    parents.push_back(vp);
  }

  Rng rng(12);
  auto random_blocks = [&](std::size_t n) {
    core::AlignedBuffer v;
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) v.data()[i] = rng.uniform(-1, 1);
    return v;
  };
  const std::size_t nsrc = src_slot.size();
  const std::size_t gblk = core::kNumVlistOffsets * kB;
  const auto g = random_blocks(nblk * gblk);
  const auto s = random_blocks(nblk * nsrc * kB);
  core::AlignedBuffer acc;
  acc.resize(nblk * kTargets * kB);
  const simd::Ops& ops = simd::ops();
  for (auto _ : state) {
    for (std::size_t b = 0; b < nblk; ++b)
      ops.vli_mac_block(g.data() + b * gblk, pair_slots.data(),
                        s.data() + b * nsrc * kB, acc.data() + b * kTargets * kB,
                        1, 1, parents.data(), parents.size(),
                        colleagues.data());
    benchmark::DoNotOptimize(acc.data());
    benchmark::ClobberMemory();
  }
  state.counters["sources"] = static_cast<double>(nsrc);
  state.counters["pairs"] = static_cast<double>(pairs);
  state.counters["colleagues"] = static_cast<double>(colleagues.size());
  state.SetLabel(ops.name);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(8 * len * pairs));
}
BENCHMARK(BM_FftMacLevel)->Unit(benchmark::kMillisecond);

void BM_TablesBuild(benchmark::State& state) {
  // The whole core::Tables constructor (pseudo-inverse, M2M products,
  // L2L matrices) at the three wallbench shapes: (laplace, 6),
  // (stokes, 4) and (laplace, 4). A micro reproduction of wallbench's
  // core.tables_s.
  static const char* const kNames[] = {"laplace", "stokes"};
  const auto kern = kernels::make_kernel(kNames[state.range(0)]);
  core::FmmOptions opts;
  opts.surface_n = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const core::Tables t(*kern, opts);
    benchmark::DoNotOptimize(t.at(0).uc2ue->data());
  }
  state.SetLabel(kNames[state.range(0)]);
}
BENCHMARK(BM_TablesBuild)
    ->ArgNames({"kernel", "n"})
    ->Args({0, 6})
    ->Args({1, 4})
    ->Args({0, 4})
    ->Unit(benchmark::kMillisecond);

void BM_KernelDirect(benchmark::State& state) {
  // One q x q leaf pair of the four SIMD-routed kernels, as wallbench's
  // direct micro-call sets it up: targets in the unit box, sources in
  // the adjacent box (x + 1). q = 100 and 600 are the leaf sizes of
  // timestep_churn and ellipsoid_nearfield. Items are pairs; the
  // model_flops counter is the kernel's flop model per second. Set
  // PKIFMM_SIMD to time a lower tier.
  static const char* const kNames[] = {"laplace", "laplace-grad", "stokes",
                                       "stokes-reg"};
  const std::string name = kNames[state.range(0)];
  const auto kern = name == "laplace-grad"
                        ? kernels::make_kernel("laplace")->gradient()
                        : kernels::make_kernel(name);
  const std::size_t q = static_cast<std::size_t>(state.range(1));
  Rng rng(4);
  std::vector<double> tgt(3 * q), src(3 * q), den(q * kern->source_dim());
  for (auto& v : tgt) v = rng.uniform();
  for (std::size_t i = 0; i < q; ++i) {
    src[3 * i] = 1.0 + rng.uniform();
    src[3 * i + 1] = rng.uniform();
    src[3 * i + 2] = rng.uniform();
  }
  for (auto& v : den) v = rng.uniform(-1, 1);
  std::vector<double> pot(q * kern->target_dim());
  std::uint64_t flops = 0;
  for (auto _ : state) {
    std::fill(pot.begin(), pot.end(), 0.0);
    flops += kern->direct(tgt, src, den, pot);
    benchmark::DoNotOptimize(pot.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(name);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(q * q));
  state.counters["model_flops"] =
      benchmark::Counter(static_cast<double>(flops),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelDirect)
    ->ArgNames({"kernel", "q"})
    ->ArgsProduct({{0, 1, 2, 3}, {100, 600}});

void BM_SampleSort(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  for (auto _ : state) {
    comm::Runtime::run(p, [](comm::RankCtx& ctx) {
      Rng rng(5, ctx.rank());
      std::vector<std::uint64_t> data(20000);
      for (auto& v : data) v = rng.next_u64();
      comm::sample_sort(ctx.comm, data, std::less<>{});
      benchmark::DoNotOptimize(data.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * 20000 * p);
}
BENCHMARK(BM_SampleSort)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_TreeConstruction(benchmark::State& state) {
  const auto dist = state.range(0) == 0 ? octree::Distribution::kUniform
                                        : octree::Distribution::kEllipsoid;
  auto pts = octree::generate_points(dist, 20000, 0, 1, 1, 6);
  for (auto _ : state) {
    comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
      octree::BuildParams bp;
      bp.max_points_per_leaf = 100;
      auto copy = pts;
      auto tree = octree::build_distributed_tree(ctx.comm, std::move(copy), bp);
      benchmark::DoNotOptimize(tree.leaves.data());
    });
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_TreeConstruction)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_TaskPoolParallelFor(benchmark::State& state) {
  // Scaling of the evaluator's workhorse primitive over worker counts
  // (arg 0 = pool workers; the caller lane always participates, so
  // "0 workers" is the inline serial baseline). Registered for the
  // worker counts implied by --threads=K: {0, 1, K-1}.
  const int workers = static_cast<int>(state.range(0));
  util::TaskPool pool(workers);
  const std::size_t n = 1 << 16;
  std::vector<double> out(n, 0.0);
  for (auto _ : state) {
    pool.parallel_for(n, 1024,
                      [&](std::size_t b, std::size_t e, int) {
                        for (std::size_t i = b; i < e; ++i)
                          out[i] = std::sqrt(static_cast<double>(i) + 1.5);
                      });
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["workers"] = workers;
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void BM_GemmBatchParallel(benchmark::State& state) {
  // The evaluator's gemm_batched shape: one surface operator applied to
  // a column batch, the columns split across pool lanes exactly as
  // core::Evaluator splits them (gemm_acc_cols windows of 64 columns).
  // Bitwise identical to the serial gemm_acc for every worker count.
  const int workers = static_cast<int>(state.range(0));
  const std::size_t nb = 256;
  util::TaskPool pool(workers);
  Rng rng(11);
  la::Matrix a(152, 152);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = rng.uniform(-1, 1);
  std::vector<double> b(a.cols() * nb), acc(a.rows() * nb);
  for (auto& v : b) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    std::fill(acc.begin(), acc.end(), 0.0);
    pool.parallel_for(nb, 64, [&](std::size_t c0, std::size_t c1, int) {
      la::gemm_acc_cols(a, b, acc, nb, c0, c1, 0.5);
    });
    benchmark::DoNotOptimize(acc.data());
  }
  state.counters["workers"] = workers;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(la::gemm_flops(a, nb)));
}

/// Console reporting plus machine-readable capture for the perf-gate
/// artifacts (the other benches' --metrics-out analog; google-benchmark
/// owns the timing loop here, so the capture rides on the reporter).
class MetricsReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      obs::Json o = obs::Json::object();
      o.set("name", r.benchmark_name());
      o.set("time_unit", benchmark::GetTimeUnitString(r.time_unit));
      o.set("real_time", r.GetAdjustedRealTime());
      o.set("cpu_time", r.GetAdjustedCPUTime());
      o.set("iterations", static_cast<std::int64_t>(r.iterations));
      for (const auto& [name, counter] : r.counters)
        o.set(name, static_cast<double>(counter));
      runs_.push_back(std::move(o));
    }
  }
  obs::Json take_runs() { return std::move(runs_); }

 private:
  obs::Json runs_ = obs::Json::array();
};

}  // namespace

int bench_main(int argc, char** argv) {
  // google-benchmark rejects flags it does not know, so peel off
  // --metrics-out / --history-out / --git-sha / --threads before
  // handing argv over, and parse them with Cli like every other bench
  // ("--threads=4x" is an error, not 4).
  constexpr std::array<std::string_view, 4> kOwn = {
      "--metrics-out=", "--history-out=", "--git-sha=", "--threads="};
  std::vector<char*> own = {argv[0]}, args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool mine = std::ranges::any_of(
        kOwn, [&](std::string_view f) { return a.starts_with(f); });
    (mine ? own : args).push_back(argv[i]);
  }
  const Cli cli(static_cast<int>(own.size()), own.data());
  const std::string metrics_path = cli.get("metrics-out", "");
  const std::string history_path = cli.get("history-out", "");
  std::string git_sha = cli.get("git-sha", "");
  const int threads = cli.get_int_as<int>("threads", 4, 1);
  for (const char* env : {"PKIFMM_GIT_SHA", "GITHUB_SHA"}) {
    if (!git_sha.empty()) break;
    if (const char* v = std::getenv(env)) git_sha = v;
  }
  if (git_sha.empty()) git_sha = "unknown";

  // The pool-scaling benches sweep worker counts up to --threads=K
  // (K threads per rank means K-1 pool workers next to the caller),
  // with K clamped to the host's hardware threads as Runtime::run
  // clamps threads_per_rank.
  std::vector<int> workers = {0, 1,
                              util::recommended_workers(threads, 1) - 1};
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  for (const int w : workers) {
    benchmark::RegisterBenchmark("BM_TaskPoolParallelFor",
                                 BM_TaskPoolParallelFor)
        ->Arg(w);
    benchmark::RegisterBenchmark("BM_GemmBatchParallel", BM_GemmBatchParallel)
        ->Arg(w);
  }

  int nargs = static_cast<int>(args.size());
  benchmark::Initialize(&nargs, args.data());
  if (benchmark::ReportUnrecognizedArguments(nargs, args.data())) return 1;

  MetricsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  const obs::Json runs = reporter.take_runs();
  if (!metrics_path.empty()) {
    obs::Json doc = obs::Json::object();
    doc.set("schema", "pkifmm.micro-metrics.v1");
    doc.set("bench", "micro");
    doc.set("runs", runs);
    obs::write_json_file(metrics_path, doc);
    std::printf("[metrics] wrote %s\n", metrics_path.c_str());
  }
  if (!history_path.empty()) {
    // One compact "pkifmm.run.v1" line for tools/pkifmm_trend: each
    // google-benchmark run becomes a phase whose wall/cpu are the
    // per-iteration adjusted times in seconds. Flops are 0 — the flop
    // gate's floor ignores them; the longitudinal signal here is the
    // per-item time of the scheduling/kernel substrates (e.g. the
    // BM_TaskPoolParallelFor dispatch cost drifting up).
    auto unit_seconds = [](const std::string& u) {
      if (u == "ns") return 1e-9;
      if (u == "us") return 1e-6;
      if (u == "ms") return 1e-3;
      return 1.0;
    };
    obs::Json rec = obs::Json::object();
    rec.set("schema", obs::kRunSchema);
    rec.set("bench", "micro");
    rec.set("git_sha", git_sha);
    rec.set("nranks", std::int64_t{1});
    rec.set("nruns", static_cast<std::int64_t>(runs.size()));
    rec.set("hw_source", "none");  // no per-phase hw counters here
    obs::Json config = obs::Json::object();
    config.set("threads", std::int64_t{threads});
    rec.set("config", std::move(config));
    obs::Json phases = obs::Json::object();
    for (const obs::Json& r : runs.items()) {
      const double scale = unit_seconds(r.at("time_unit").as_string());
      obs::Json ph = obs::Json::object();
      ph.set("wall", r.at("real_time").as_double() * scale);
      ph.set("cpu", r.at("cpu_time").as_double() * scale);
      ph.set("flops", 0.0);
      phases.set(r.at("name").as_string(), std::move(ph));
    }
    rec.set("phases", std::move(phases));
    obs::append_run_record(history_path, rec);
    std::printf("[metrics] appended run record to %s (sha %s)\n",
                history_path.c_str(), git_sha.c_str());
  }
  return 0;
}

int main(int argc, char** argv) {
  return pkifmm::util::guarded_main(argc, argv, bench_main);
}
