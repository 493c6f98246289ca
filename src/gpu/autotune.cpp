#include "gpu/autotune.hpp"

#include "comm/comm.hpp"
#include "core/fmm.hpp"
#include "gpu/evaluator.hpp"

namespace pkifmm::gpu {

AutotuneResult autotune_q(const core::Tables& base_tables,
                          std::span<const octree::PointRec> sample,
                          std::span<const int> candidates,
                          const DeviceSpec& spec,
                          const comm::CostModel& model) {
  PKIFMM_CHECK(!candidates.empty());
  PKIFMM_CHECK(!sample.empty());

  AutotuneResult result;
  double best = 0.0;
  for (int q : candidates) {
    PKIFMM_CHECK(q >= 1);
    core::FmmOptions opts = base_tables.options();
    opts.max_points_per_leaf = q;
    opts.load_balance = false;
    const core::Tables tables = base_tables.with_options(opts);

    double modeled = 0.0;
    std::vector<octree::PointRec> pts(sample.begin(), sample.end());
    comm::Runtime::run(1, [&](comm::RankCtx& ctx) {
      core::ParallelFmm fmm(ctx, tables);
      fmm.setup(std::move(pts));
      StreamDevice dev(spec);
      GpuEvaluator eval(tables, fmm.let(), ctx, dev, 64);
      eval.run();

      // Host-resident phases at the model CPU rate; device phases from
      // the roofline model.
      const obs::RankMetrics& m = ctx.rec.metrics();
      double host_flops = m.sum("flops.");
      for (const char* on_device : {"eval.uli", "eval.s2u", "eval.d2t",
                                    "eval.vli"})
        host_flops -= m.counter(std::string("flops.") + on_device);
      modeled =
          model.compute_time(static_cast<std::uint64_t>(host_flops)) +
          dev.modeled_seconds();
    });
    result.modeled_seconds[q] = modeled;
    if (result.best_q == 0 || modeled < best) {
      best = modeled;
      result.best_q = q;
    }
  }
  return result;
}

}  // namespace pkifmm::gpu
