/// \file micro.cpp
/// \brief google-benchmark micro-benchmarks of the pkifmm substrates:
/// Morton algebra, FFTs, the pseudo-inverse precomputation, kernel
/// inner loops (the paper's "500 MFlop/s single-core" context), and
/// the in-process communication fabric.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "comm/comm.hpp"
#include "comm/sort.hpp"
#include "core/surface.hpp"
#include "core/tables.hpp"
#include "fft/fft.hpp"
#include "kernels/kernel.hpp"
#include "la/matrix.hpp"
#include "la/svd.hpp"
#include "morton/key.hpp"
#include "obs/json.hpp"
#include "obs/trend.hpp"
#include "octree/build.hpp"
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
  // One frequency chunk of the chunk-major V-list sweep: nentries
  // (source, accumulator) slot pairs under one operator slice.
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

void BM_PinvPrecompute(benchmark::State& state) {
  // The S2U/D2D conversion operator build for surface order n.
  const int n = static_cast<int>(state.range(0));
  kernels::LaplaceKernel kern;
  const std::array<double, 3> c = {0, 0, 0};
  const auto ue = core::surface_points(n, 1.05, c, 0.5);
  const auto uc = core::surface_points(n, 2.95, c, 0.5);
  for (auto _ : state) {
    auto p = la::pinv(kern.assemble(uc, ue));
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_PinvPrecompute)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_KernelDirect(benchmark::State& state) {
  auto kern = kernels::make_kernel(state.range(0) == 0 ? "laplace" : "stokes");
  Rng rng(4);
  const int n = 512;
  std::vector<double> tgt(3 * n), src(3 * n),
      den(n * kern->source_dim());
  for (auto& v : tgt) v = rng.uniform();
  for (auto& v : src) v = rng.uniform();
  for (auto& v : den) v = rng.uniform(-1, 1);
  std::vector<double> pot(n * kern->target_dim());
  for (auto _ : state) {
    std::fill(pot.begin(), pot.end(), 0.0);
    kern->direct(tgt, src, den, pot);
    benchmark::DoNotOptimize(pot.data());
  }
  // Report sustained model-flops (compare with the paper's 500 MFlop/s).
  state.SetItemsProcessed(state.iterations() * n * n *
                          kern->flops_per_interaction());
}
BENCHMARK(BM_KernelDirect)->Arg(0)->Arg(1);

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

void BM_DagGraphThroughput(benchmark::State& state) {
  // Pure scheduling overhead of the DAG executor: a layered graph of
  // EMPTY nodes (kLayers x kWidth, fan-in 2 per node), rebuilt and
  // drained every iteration. Per-node cost = graph construction +
  // dependency counting + ready-enqueue + pool dispatch, with zero
  // useful work to hide behind — the upper bound on what kDag can cost
  // over kBulkSync per scheduled chunk.
  const int workers = static_cast<int>(state.range(0));
  util::TaskPool pool(workers);
  constexpr int kLayers = 32;
  constexpr int kWidth = 16;
  for (auto _ : state) {
    util::TaskGraph g(pool, "micro.dag");
    std::array<util::TaskGraph::NodeId, kWidth> prev;
    for (int i = 0; i < kWidth; ++i) prev[i] = g.node("layer", [](int) {});
    for (int l = 1; l < kLayers; ++l) {
      std::array<util::TaskGraph::NodeId, kWidth> cur;
      for (int i = 0; i < kWidth; ++i) {
        cur[i] = g.node("layer", [](int) {});
        g.edge(prev[i], cur[i]);
        g.edge(prev[(i + 1) % kWidth], cur[i]);
      }
      prev = cur;
    }
    g.launch();
    g.wait();
  }
  state.counters["workers"] = workers;
  state.SetItemsProcessed(state.iterations() * kLayers * kWidth);
}

void BM_DagReleaseLatency(benchmark::State& state) {
  // Dependency-release latency: a strict chain of empty nodes, so each
  // hop is complete() -> successor counter hits zero -> enqueue ->
  // dequeue -> run, with no available parallelism. Per-item time IS
  // the release handoff (on workers > 0 it includes the cross-thread
  // wake; at 0 workers it is the inline help-drain path).
  const int workers = static_cast<int>(state.range(0));
  util::TaskPool pool(workers);
  constexpr int kChain = 256;
  for (auto _ : state) {
    util::TaskGraph g(pool, "micro.dag");
    util::TaskGraph::NodeId prev = g.node("chain", [](int) {});
    for (int i = 1; i < kChain; ++i) {
      const util::TaskGraph::NodeId n = g.node("chain", [](int) {});
      g.edge(prev, n);
      prev = n;
    }
    g.launch();
    g.wait();
  }
  state.counters["workers"] = workers;
  state.SetItemsProcessed(state.iterations() * kChain);
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

int main(int argc, char** argv) {
  // google-benchmark rejects flags it does not know, so peel off
  // --metrics-out / --history-out / --git-sha / --threads before
  // handing argv over.
  std::string metrics_path, history_path, git_sha;
  int threads = 4;
  std::vector<char*> args;
  constexpr std::string_view kFlag = "--metrics-out=";
  constexpr std::string_view kHistory = "--history-out=";
  constexpr std::string_view kSha = "--git-sha=";
  constexpr std::string_view kThreads = "--threads=";
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind(kFlag, 0) == 0) {
      metrics_path = std::string(a.substr(kFlag.size()));
      continue;
    }
    if (a.rfind(kHistory, 0) == 0) {
      history_path = std::string(a.substr(kHistory.size()));
      continue;
    }
    if (a.rfind(kSha, 0) == 0) {
      git_sha = std::string(a.substr(kSha.size()));
      continue;
    }
    if (a.rfind(kThreads, 0) == 0) {
      threads = std::max(1, std::atoi(std::string(a.substr(kThreads.size()))
                                          .c_str()));
      continue;
    }
    args.push_back(argv[i]);
  }
  for (const char* env : {"PKIFMM_GIT_SHA", "GITHUB_SHA"}) {
    if (!git_sha.empty()) break;
    if (const char* v = std::getenv(env)) git_sha = v;
  }
  if (git_sha.empty()) git_sha = "unknown";

  // The pool-scaling benches sweep worker counts up to --threads=K
  // (K threads per rank means K-1 pool workers next to the caller).
  std::vector<int> workers = {0, 1, threads - 1};
  std::sort(workers.begin(), workers.end());
  workers.erase(std::unique(workers.begin(), workers.end()), workers.end());
  for (const int w : workers) {
    if (w < 0) continue;
    benchmark::RegisterBenchmark("BM_TaskPoolParallelFor",
                                 BM_TaskPoolParallelFor)
        ->Arg(w);
    benchmark::RegisterBenchmark("BM_GemmBatchParallel", BM_GemmBatchParallel)
        ->Arg(w);
    benchmark::RegisterBenchmark("BM_DagGraphThroughput",
                                 BM_DagGraphThroughput)
        ->Arg(w);
    benchmark::RegisterBenchmark("BM_DagReleaseLatency", BM_DagReleaseLatency)
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
    // BM_Dag* overhead benches drifting up).
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
