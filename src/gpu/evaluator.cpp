#include "gpu/evaluator.hpp"

#include <unordered_map>

#include "core/surface.hpp"

namespace pkifmm::gpu {

using octree::LetNode;

GpuEvaluator::GpuEvaluator(const core::Tables& tables,
                           const octree::Let& let, comm::RankCtx& ctx,
                           StreamDevice& dev, int block, bool offload_wx)
    : tables_(tables), let_(let), ctx_(ctx), dev_(dev),
      cpu_(tables, let, ctx), offload_wx_(offload_wx) {
  PKIFMM_CHECK_MSG(tables.kernel().name() == "laplace",
                   "the GPU path implements the Laplace kernel (the "
                   "paper's GPU configuration)");
  auto t = ctx_.timer.scope("gpu.translate");
  gpu_let_ = build_gpu_let(tables_, let_, block);
  ws_ = make_workspace(dev_, gpu_let_);

  // Unit surface lattice, shared by all boxes ("constant memory").
  const int n = tables_.n();
  unit_.reserve(3 * tables_.m());
  for (const auto& ijk : core::surface_lattice(n))
    for (int d = 0; d < 3; ++d)
      unit_.push_back(
          static_cast<float>(-1.0 + 2.0 * ijk[d] / double(n - 1)));
}

void GpuEvaluator::run() {
  auto root = ctx_.rec.span("eval");
  {
    auto t = ctx_.timer.scope("eval.s2u");
    s2u_gpu();
  }
  {
    auto t = ctx_.timer.scope("eval.u2u");
    cpu_.u2u();
  }
  {
    auto t = ctx_.timer.scope("eval.comm");
    cpu_.comm_reduce();
  }
  {
    auto t = ctx_.timer.scope("eval.vli");
    vli_gpu();
  }
  {
    auto t = ctx_.timer.scope("eval.xli");
    if (offload_wx_)
      xli_gpu();
    else
      cpu_.xli();
  }
  {
    auto t = ctx_.timer.scope("eval.down");
    cpu_.downward();
  }
  {
    auto t = ctx_.timer.scope("eval.wli");
    if (offload_wx_)
      wli_gpu();
    else
      cpu_.wli();
  }
  {
    auto t = ctx_.timer.scope("eval.d2t");
    d2t_gpu();
  }
  {
    auto t = ctx_.timer.scope("eval.uli");
    uli_gpu();
  }
  {
    auto t = ctx_.timer.scope("gpu.translate");
    scatter_potentials(dev_, gpu_let_, ws_, cpu_.potential_mutable());
  }
}

void GpuEvaluator::s2u_gpu() {
  std::uint64_t kflops = 0;
  const auto check =
      run_s2u_check(dev_, gpu_let_, unit_,
                    static_cast<float>(core::kUpwardCheckRadius), &kflops);
  ctx_.flops.add("eval.s2u", kflops);

  // CPU: convert check potentials to equivalent densities (small gemv).
  const int m = tables_.m();
  std::vector<double> cp(m);
  auto u = cpu_.u_mutable();
  for (std::size_t bi = 0; bi < gpu_let_.boxes.size(); ++bi) {
    const GpuLet::Box& box = gpu_let_.boxes[bi];
    for (int k = 0; k < m; ++k) cp[k] = check[bi * m + k];
    const LetNode& node = let_.nodes[box.let_node];
    const core::LevelOps ops = tables_.at(node.key.level);
    la::gemv_acc(*ops.uc2ue, cp,
                 u.subspan(std::size_t(box.let_node) * tables_.eq_len(),
                           tables_.eq_len()),
                 ops.uc2ue_scale);
    // ".host" suffix separates CPU-side work from device flops so the
    // benches can model them at different rates.
    ctx_.flops.add("eval.s2u.host", la::gemv_flops(*ops.uc2ue));
  }
}

void GpuEvaluator::vli_gpu() {
  const std::size_t sn = static_cast<std::size_t>(tables_.n());
  const std::size_t len = tables_.spectrum_len();
  const std::size_t hv = tables_.fft().half_volume();
  const auto& embed = tables_.embed_index();
  const int m = tables_.m();
  const core::Tables::VliFlops& fl = tables_.vli_flops();
  const auto u = cpu_.u();
  auto checkpot = cpu_.checkpot_mutable();

  int min_level = morton::kMaxDepth + 1, max_level = -1;
  for (const LetNode& n : let_.nodes) {
    min_level = std::min(min_level, static_cast<int>(n.key.level));
    max_level = std::max(max_level, static_cast<int>(n.key.level));
  }

  std::vector<double> cube(sn * sn * sn);
  std::vector<double> re(hv), im(hv);  // one split half spectrum
  for (int level = min_level; level <= max_level; ++level) {
    // Collect targets and used sources at this level.
    std::vector<std::int32_t> targets;
    std::unordered_map<std::int32_t, std::int32_t> src_slot;
    std::unordered_map<int, std::int32_t> g_slot;
    VliBatch batch;
    batch.vol = len;
    batch.target_offset.push_back(0);

    for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
      const LetNode& node = let_.nodes[i];
      if (!node.target || node.key.level != level) continue;
      if (let_.v.of(i).empty()) continue;
      targets.push_back(static_cast<std::int32_t>(i));
    }
    if (targets.empty()) continue;

    for (auto ti : targets) {
      for (auto si : let_.v.of(ti)) {
        auto [sit, snew] = src_slot.try_emplace(
            si, static_cast<std::int32_t>(src_slot.size()));
        (void)snew;
        const int off = core::vlist_offset_index(let_.nodes[ti].key,
                                                 let_.nodes[si].key);
        auto [git, gnew] =
            g_slot.try_emplace(off, static_cast<std::int32_t>(g_slot.size()));
        (void)gnew;
        batch.pair_src.push_back(sit->second);
        batch.pair_g.push_back(git->second);
      }
      batch.target_offset.push_back(
          static_cast<std::int32_t>(batch.pair_src.size()));
    }

    // CPU: r2c transforms of the used sources (paper: per-octant FFTs
    // on the CPU), downconverted to single precision for the device.
    // The padded tail of every half spectrum stays zero.
    batch.src_spectra.assign(src_slot.size() * len, {0, 0});
    for (const auto& [si, slot] : src_slot) {
      std::fill(cube.begin(), cube.end(), 0.0);
      const double* usrc = u.data() + std::size_t(si) * tables_.eq_len();
      for (int k = 0; k < m; ++k) cube[embed[k]] = usrc[k];
      tables_.fft().forward_r2c(cube, sn, re.data(), im.data());
      ctx_.flops.add("eval.vli.host", fl.fwd_per_source);
      for (std::size_t i = 0; i < hv; ++i)
        batch.src_spectra[std::size_t(slot) * len + i] = std::complex<float>(
            static_cast<float>(re[i]), static_cast<float>(im[i]));
    }
    batch.g_spectra.assign(g_slot.size() * len, {0, 0});
    for (const auto& [off, slot] : g_slot) {
      const auto gd = tables_.m2l_spectra(level, off);
      for (std::size_t i = 0; i < len; ++i)
        batch.g_spectra[std::size_t(slot) * len + i] =
            std::complex<float>(static_cast<float>(gd[i].real()),
                                static_cast<float>(gd[i].imag()));
    }

    // The device MAC (8 flops per stored frequency and pair) is the
    // V-list flop model's per-pair term for this scalar kernel.
    std::uint64_t kflops = 0;
    const auto acc = run_vli_diag(dev_, batch, &kflops);
    PKIFMM_CHECK(kflops == batch.pair_src.size() * fl.mac_per_pair);
    ctx_.flops.add("eval.vli", kflops);

    // CPU: c2r transform per target and surface extraction.
    const core::LevelOps ops = tables_.at(level);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      for (std::size_t i = 0; i < hv; ++i) {
        re[i] = acc[t * len + i].real();
        im[i] = acc[t * len + i].imag();
      }
      tables_.fft().inverse_c2r(re.data(), im.data(), sn, cube);
      ctx_.flops.add("eval.vli.host", fl.inv_per_target);
      double* out =
          checkpot.data() + std::size_t(targets[t]) * tables_.check_len();
      for (int k = 0; k < m; ++k) out[k] += ops.m2l_scale * cube[embed[k]];
    }
  }
}

void GpuEvaluator::d2t_gpu() {
  // Gather each box's downward equivalent density into box order.
  const int m = tables_.m();
  std::vector<float> d_per_box(gpu_let_.boxes.size() * std::size_t(m));
  const auto d = cpu_.d();
  for (std::size_t bi = 0; bi < gpu_let_.boxes.size(); ++bi) {
    const GpuLet::Box& box = gpu_let_.boxes[bi];
    const double* src = d.data() + std::size_t(box.let_node) * tables_.eq_len();
    for (int k = 0; k < m; ++k)
      d_per_box[bi * m + k] = static_cast<float>(src[k]);
  }
  const std::uint64_t kflops =
      run_d2t(dev_, gpu_let_, unit_,
              static_cast<float>(core::kDownEquivRadius), d_per_box, ws_);
  ctx_.flops.add("eval.d2t", kflops);
}

void GpuEvaluator::uli_gpu() {
  ctx_.flops.add("eval.uli", run_uli(dev_, gpu_let_, ws_));
}

void GpuEvaluator::wli_gpu() {
  // Gather the upward equivalent densities of the W-source slots.
  const int m = tables_.m();
  const auto u = cpu_.u();
  std::vector<float> u_per_slot(gpu_let_.wsrc_node.size() * std::size_t(m));
  for (std::size_t slot = 0; slot < gpu_let_.wsrc_node.size(); ++slot) {
    const double* src =
        u.data() + std::size_t(gpu_let_.wsrc_node[slot]) * tables_.eq_len();
    for (int k = 0; k < m; ++k)
      u_per_slot[slot * m + k] = static_cast<float>(src[k]);
  }
  ctx_.flops.add(
      "eval.wli",
      run_wli(dev_, gpu_let_, unit_,
              static_cast<float>(core::kUpwardEquivRadius), u_per_slot, ws_));
}

void GpuEvaluator::xli_gpu() {
  // Leaf targets on the device; non-leaf targets (no padded target
  // array on the device) stay on the CPU.
  cpu_.xli(/*include_leaves=*/false);
  std::uint64_t kflops = 0;
  const auto check =
      run_xli(dev_, gpu_let_, unit_,
              static_cast<float>(core::kDownCheckRadius), &kflops);
  ctx_.flops.add("eval.xli", kflops);

  // Accumulate into the (double) check potentials before the downward
  // pass converts them.
  const int m = tables_.m();
  auto checkpot = cpu_.checkpot_mutable();
  for (std::size_t bi = 0; bi < gpu_let_.boxes.size(); ++bi) {
    const GpuLet::Box& box = gpu_let_.boxes[bi];
    if (box.xseg_begin == box.xseg_end) continue;
    double* out =
        checkpot.data() + std::size_t(box.let_node) * tables_.check_len();
    for (int k = 0; k < m; ++k) out[k] += check[bi * m + k];
  }
}

}  // namespace pkifmm::gpu
