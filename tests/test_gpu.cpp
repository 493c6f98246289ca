#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>

#include "core/direct.hpp"
#include "core/fmm.hpp"
#include "gpu/evaluator.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace pkifmm::gpu {
namespace {

using octree::Distribution;

// ---------------------------------------------------------------------
// Device emulator
// ---------------------------------------------------------------------

TEST(Device, TransfersAreChargedBothWays) {
  StreamDevice dev;
  std::vector<float> host(1000, 1.0f);
  auto buf = dev.to_device(std::span<const float>(host));
  EXPECT_EQ(dev.transfer_bytes(), 4000u);
  auto back = dev.to_host(buf);
  EXPECT_EQ(dev.transfer_bytes(), 8000u);
  EXPECT_EQ(back, host);
  EXPECT_GT(dev.transfer_seconds(), 0.0);
}

TEST(Device, LaunchRecordsRooflineTime) {
  DeviceSpec spec;
  spec.flop_rate = 1e9;
  spec.gmem_bandwidth = 1e9;
  spec.kernel_launch_s = 1e-6;
  StreamDevice dev(spec);
  dev.launch("k", 10, 32, [](BlockCtx& ctx) {
    ctx.flops(100);       // 1000 flops over 10 blocks
    ctx.load_global(10);  // 100 bytes
  });
  const auto& ks = dev.kernels().at("k");
  EXPECT_EQ(ks.launches, 1u);
  EXPECT_EQ(ks.flops, 1000u);
  EXPECT_EQ(ks.gmem_bytes, 100u);
  // compute-bound: 1e-6 launch + 1000/1e9.
  EXPECT_NEAR(ks.modeled_seconds, 1e-6 + 1e-6, 1e-12);
}

TEST(Device, UncoalescedAccessesArePenalized) {
  StreamDevice dev;
  dev.launch("k", 1, 32, [&](BlockCtx& ctx) {
    ctx.load_global(100, /*coalesced=*/false);
  });
  EXPECT_EQ(dev.kernels().at("k").gmem_bytes,
            static_cast<std::uint64_t>(100 * dev.spec().uncoalesced_penalty));
}

TEST(Device, SharedMemoryIsFreeInTheModel) {
  StreamDevice dev;
  dev.launch("k", 4, 16, [](BlockCtx& ctx) {
    auto s = ctx.shared(64);
    s[0] = 1.0f;
  });
  EXPECT_EQ(dev.kernels().at("k").gmem_bytes, 0u);
}

TEST(Device, ResetClearsStats) {
  StreamDevice dev;
  dev.launch("k", 1, 1, [](BlockCtx& ctx) { ctx.flops(5); });
  dev.reset_stats();
  EXPECT_TRUE(dev.kernels().empty());
  EXPECT_EQ(dev.transfer_bytes(), 0u);
}

TEST(Device, NanMaxTrickZeroesSelfInteraction) {
  // The exact float sequence from the paper: inf -> NaN -> max() -> 0.
  const float inv = 1.0f / std::sqrt(0.0f);
  EXPECT_TRUE(std::isinf(inv));
  const float cleaned = inv + (inv - inv);
  EXPECT_TRUE(std::isnan(cleaned));
  EXPECT_EQ(std::fmax(cleaned, 0.0f), 0.0f);
}

// ---------------------------------------------------------------------
// SoA translation
// ---------------------------------------------------------------------

struct SeqLet {
  octree::Let let;
  core::Tables* tables;
};

octree::Let make_let(comm::RankCtx& ctx, Distribution dist, std::uint64_t n,
                     int q) {
  octree::BuildParams bp;
  bp.max_points_per_leaf = q;
  auto tree = octree::build_distributed_tree(
      ctx.comm,
      octree::generate_points(dist, n, ctx.rank(), ctx.size(), 1, 11), bp);
  octree::Let let = octree::build_let(ctx.comm, tree);
  octree::build_interaction_lists(let);
  return let;
}

TEST(Soa, TargetsPaddedToBlockMultiples) {
  kernels::LaplaceKernel kern;
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 50;
  const core::Tables tables(kern, opts);
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto let = make_let(ctx, Distribution::kUniform, 2000, 50);
    const GpuLet g = build_gpu_let(tables, let, 64);
    EXPECT_EQ(g.padded_targets() % 64, 0u);
    EXPECT_EQ(g.chunks(), g.padded_targets() / 64);
    // Every real point appears exactly once as a source.
    EXPECT_EQ(g.sx.size(), let.points.size());
    std::size_t total_targets = 0;
    for (const auto& box : g.boxes) total_targets += box.count;
    std::size_t owned = 0;
    for (const auto& nd : let.nodes)
      if (nd.owned && nd.global_leaf) owned += nd.point_count;
    EXPECT_EQ(total_targets, owned);
    EXPECT_GT(g.footprint_bytes(), 0u);
  });
}

TEST(Soa, SegmentsMatchUlists) {
  kernels::LaplaceKernel kern;
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 30;
  const core::Tables tables(kern, opts);
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto let = make_let(ctx, Distribution::kEllipsoid, 1500, 30);
    const GpuLet g = build_gpu_let(tables, let, 32);
    for (const auto& box : g.boxes) {
      std::size_t seg_points = 0;
      for (auto s = box.seg_begin; s < box.seg_end; ++s)
        seg_points += g.seg_src_count[s];
      std::size_t list_points = 0;
      for (auto ui : let.u.of(box.let_node))
        list_points += let.nodes[ui].point_count;
      EXPECT_EQ(seg_points, list_points);
    }
  });
}

TEST(Soa, RejectsVectorKernels) {
  kernels::StokesKernel kern;
  core::FmmOptions opts;
  opts.surface_n = 4;
  const core::Tables tables(kern, opts);
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto let = make_let(ctx, Distribution::kUniform, 300, 30);
    EXPECT_THROW(build_gpu_let(tables, let, 64), CheckFailure);
  });
}

// ---------------------------------------------------------------------
// GPU vs CPU numerical agreement
// ---------------------------------------------------------------------

void run_gpu_vs_cpu(Distribution dist, int q, int p, int surface_n,
                    std::uint64_t n_points, int block) {
  kernels::LaplaceKernel kern;
  core::FmmOptions opts;
  opts.surface_n = surface_n;
  opts.max_points_per_leaf = q;
  const core::Tables tables(kern, opts);

  comm::Runtime::run(p, [&](comm::RankCtx& ctx) {
    auto let = make_let(ctx, dist, n_points, q);

    core::Evaluator cpu(tables, let, ctx);
    cpu.run();

    StreamDevice dev;
    GpuEvaluator gpu(tables, let, ctx, dev, block);
    gpu.run();

    // Compare potentials for owned points; single precision on the
    // device bounds the agreement to ~1e-5 relative.
    std::vector<double> pc, pg;
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      const auto& nd = let.nodes[i];
      if (!(nd.owned && nd.global_leaf)) continue;
      for (std::uint32_t k = 0; k < nd.point_count; ++k) {
        pc.push_back(cpu.potential()[nd.point_begin + k]);
        pg.push_back(gpu.potential()[nd.point_begin + k]);
      }
    }
    ASSERT_FALSE(pc.empty());
    EXPECT_LT(rel_l2_error(pg, pc), 2e-4);

    // Device stats exist for every offloaded kernel.
    EXPECT_GT(dev.kernels().at("uli").flops, 0u);
    EXPECT_GT(dev.kernels().at("s2u").flops, 0u);
    EXPECT_GT(dev.kernels().at("d2t").flops, 0u);
    EXPECT_GT(dev.kernels().at("vli").flops, 0u);
    EXPECT_GT(dev.modeled_seconds(), 0.0);
  });
}

TEST(GpuFmm, MatchesCpuUniformSequential) {
  run_gpu_vs_cpu(Distribution::kUniform, 60, 1, 4, 3000, 64);
}

TEST(GpuFmm, MatchesCpuNonuniform) {
  run_gpu_vs_cpu(Distribution::kEllipsoid, 30, 1, 4, 2000, 64);
}

TEST(GpuFmm, MatchesCpuParallel4) {
  run_gpu_vs_cpu(Distribution::kUniform, 40, 4, 4, 2500, 64);
}

TEST(GpuFmm, SmallBlockSize) {
  run_gpu_vs_cpu(Distribution::kUniform, 50, 1, 4, 1500, 16);
}

TEST(GpuFmm, HighAccuracySurfaces) {
  run_gpu_vs_cpu(Distribution::kUniform, 60, 1, 6, 2000, 64);
}

TEST(GpuFmm, AgreesWithDirectSummation) {
  // End-to-end: GPU-evaluated FMM against the O(N^2) reference.
  kernels::LaplaceKernel kern;
  core::FmmOptions opts;
  opts.surface_n = 6;
  opts.max_points_per_leaf = 50;
  const core::Tables tables(kern, opts);
  comm::Runtime::run(2, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(Distribution::kUniform, 2000,
                                       ctx.rank(), 2, 1, 13);
    octree::BuildParams bp;
    bp.max_points_per_leaf = 50;
    auto tree = octree::build_distributed_tree(ctx.comm, pts, bp);
    octree::Let let = octree::build_let(ctx.comm, tree);
    octree::build_interaction_lists(let);

    StreamDevice dev;
    GpuEvaluator gpu(tables, let, ctx, dev, 64);
    gpu.run();

    // Exact potentials for owned points.
    std::vector<octree::PointRec> owned;
    std::vector<double> approx;
    for (std::size_t i = 0; i < let.nodes.size(); ++i) {
      const auto& nd = let.nodes[i];
      if (!(nd.owned && nd.global_leaf)) continue;
      for (std::uint32_t k = 0; k < nd.point_count; ++k) {
        owned.push_back(let.points[nd.point_begin + k]);
        approx.push_back(gpu.potential()[nd.point_begin + k]);
      }
    }
    const auto exact = core::direct_reference(ctx.comm, kern, owned);
    EXPECT_LT(rel_l2_error(approx, exact), 1e-4);
  });
}

TEST(GpuFmm, UlistArithmeticIntensityBeatsVlist) {
  // The paper's tuning argument (Table III / Fig. 6): ULI performs
  // O(b^2) flops per O(b) loads while the diagonal VLI is ~1 flop/byte.
  kernels::LaplaceKernel kern;
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 100;
  const core::Tables tables(kern, opts);
  comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto let = make_let(ctx, Distribution::kUniform, 4000, 100);
    StreamDevice dev;
    GpuEvaluator gpu(tables, let, ctx, dev, 64);
    gpu.run();
    const auto& uli = dev.kernels().at("uli");
    const auto& vli = dev.kernels().at("vli");
    const double uli_intensity = double(uli.flops) / double(uli.gmem_bytes);
    const double vli_intensity = double(vli.flops) / double(vli.gmem_bytes);
    EXPECT_GT(uli_intensity, 4.0 * vli_intensity);
  });
}

TEST(GpuFmm, TranslationCostIsMinor) {
  // Paper abstract: the data-structure translation "can be accomplished
  // efficiently". Check it against evaluation wall time.
  kernels::LaplaceKernel kern;
  core::FmmOptions opts;
  opts.surface_n = 4;
  opts.max_points_per_leaf = 100;
  const core::Tables tables(kern, opts);
  auto reports = comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
    auto let = make_let(ctx, Distribution::kUniform, 20000, 100);
    StreamDevice dev;
    GpuEvaluator gpu(tables, let, ctx, dev, 64);
    gpu.run();
  });
  const double eval = reports[0].sum("time.eval.", ".wall");
  EXPECT_LT(reports[0].counters.at("time.gpu.translate.wall"), 0.5 * eval);
}

}  // namespace
}  // namespace pkifmm::gpu
