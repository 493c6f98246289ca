#include "gpu/kernels.hpp"

#include <cmath>
#include <numbers>

namespace pkifmm::gpu {

namespace {
constexpr float kOneOver4Pi = static_cast<float>(1.0 / (4.0 * std::numbers::pi));

/// The paper's self-interaction trick (§IV): for r = 0 the reciprocal
/// square root is +inf; x + (x - x) turns inf into NaN, and IEEE
/// max(NaN, 0) = 0 removes the contribution without a branch.
inline float laplace_kernel_value(float r2) {
  const float inv = 1.0f / std::sqrt(r2);
  const float cleaned = inv + (inv - inv);
  return std::fmax(cleaned, 0.0f);
}
}  // namespace

Workspace make_workspace(StreamDevice& dev, const GpuLet& g) {
  Workspace ws;
  ws.sx = dev.to_device(std::span<const float>(g.sx));
  ws.sy = dev.to_device(std::span<const float>(g.sy));
  ws.sz = dev.to_device(std::span<const float>(g.sz));
  ws.sq = dev.to_device(std::span<const float>(g.sq));
  ws.tx = dev.to_device(std::span<const float>(g.tx));
  ws.ty = dev.to_device(std::span<const float>(g.ty));
  ws.tz = dev.to_device(std::span<const float>(g.tz));
  ws.f = dev.alloc<float>(g.padded_targets(), 0.0f);
  return ws;
}

std::uint64_t run_uli(StreamDevice& dev, const GpuLet& g, Workspace& ws) {
  const int b = g.block;
  std::uint64_t recorded = 0;
  std::vector<float> acc(b);

  dev.launch("uli", g.chunks(), b, [&](BlockCtx& ctx) {
    const std::size_t blk = ctx.block_index();
    const GpuLet::Box& box = g.boxes[g.chunk_box[blk]];
    const std::int32_t t0 = g.chunk_trg[blk];

    // Each thread loads its target point (coalesced).
    ctx.load_global(3 * sizeof(float) * b);
    std::fill(acc.begin(), acc.end(), 0.0f);

    auto tile = ctx.shared(4 * static_cast<std::size_t>(b));
    for (std::int32_t seg = box.seg_begin; seg < box.seg_end; ++seg) {
      const std::int32_t sb = g.seg_src_begin[seg];
      const std::int32_t sc = g.seg_src_count[seg];
      for (std::int32_t base = 0; base < sc; base += b) {
        const int tn = std::min<std::int32_t>(b, sc - base);
        // Cooperative tile load into shared memory; the U-list is
        // sparse so tiles may be partial (the paper's coalescing
        // caveat) — model short tiles as uncoalesced.
        for (int j = 0; j < tn; ++j) {
          tile[4 * j + 0] = ws.sx.data()[sb + base + j];
          tile[4 * j + 1] = ws.sy.data()[sb + base + j];
          tile[4 * j + 2] = ws.sz.data()[sb + base + j];
          tile[4 * j + 3] = ws.sq.data()[sb + base + j];
        }
        ctx.load_global(4 * sizeof(float) * tn, /*coalesced=*/tn == b);
        // __syncthreads();
        for (int tid = 0; tid < b; ++tid) {
          const float px = ws.tx.data()[t0 + tid];
          const float py = ws.ty.data()[t0 + tid];
          const float pz = ws.tz.data()[t0 + tid];
          float a = acc[tid];
          for (int j = 0; j < tn; ++j) {
            const float dx = px - tile[4 * j + 0];
            const float dy = py - tile[4 * j + 1];
            const float dz = pz - tile[4 * j + 2];
            const float r2 = dx * dx + dy * dy + dz * dz;
            a += tile[4 * j + 3] * laplace_kernel_value(r2);
          }
          acc[tid] = a;
        }
        ctx.flops(10ull * b * tn);
        // __syncthreads();
      }
    }
    // Write back only the valid targets of this chunk.
    const int valid =
        std::min<std::int32_t>(b, box.count - (t0 - box.trg_begin));
    for (int tid = 0; tid < valid; ++tid)
      ws.f.data()[t0 + tid] += kOneOver4Pi * acc[tid];
    ctx.store_global(sizeof(float) * std::max(valid, 0));
    recorded = ctx.recorded_flops();
  });
  return recorded;
}

std::vector<float> run_s2u_check(StreamDevice& dev, const GpuLet& g,
                                 const std::vector<float>& unit,
                                 float radius, std::uint64_t* flops) {
  const int b = g.block;
  const int m = g.m;
  PKIFMM_CHECK(static_cast<int>(unit.size()) == 3 * m);
  auto check = dev.alloc<float>(g.boxes.size() * static_cast<std::size_t>(m),
                                0.0f);
  std::vector<float> acc(m);

  dev.launch("s2u", g.boxes.size(), b, [&](BlockCtx& ctx) {
    const GpuLet::Box& box = g.boxes[ctx.block_index()];
    const float r = radius * box.hw;
    std::fill(acc.begin(), acc.end(), 0.0f);
    auto tile = ctx.shared(4 * static_cast<std::size_t>(b));

    for (std::int32_t base = 0; base < box.src_count; base += b) {
      const int tn = std::min<std::int32_t>(b, box.src_count - base);
      for (int j = 0; j < tn; ++j) {
        tile[4 * j + 0] = g.sx[box.src_begin + base + j];
        tile[4 * j + 1] = g.sy[box.src_begin + base + j];
        tile[4 * j + 2] = g.sz[box.src_begin + base + j];
        tile[4 * j + 3] = g.sq[box.src_begin + base + j];
      }
      ctx.load_global(4 * sizeof(float) * tn, tn == b);
      // Check-point coordinates come from the constant unit lattice
      // (paper: "permanently resident in the shared memory of the
      // blocks... minimizes memory fetches").
      for (int k = 0; k < m; ++k) {
        const float px = box.cx + r * unit[3 * k + 0];
        const float py = box.cy + r * unit[3 * k + 1];
        const float pz = box.cz + r * unit[3 * k + 2];
        float a = acc[k];
        for (int j = 0; j < tn; ++j) {
          const float dx = px - tile[4 * j + 0];
          const float dy = py - tile[4 * j + 1];
          const float dz = pz - tile[4 * j + 2];
          a += tile[4 * j + 3] *
               laplace_kernel_value(dx * dx + dy * dy + dz * dz);
        }
        acc[k] = a;
      }
      ctx.flops(10ull * m * tn);
    }
    float* out = check.data() + ctx.block_index() * m;
    for (int k = 0; k < m; ++k) out[k] = kOneOver4Pi * acc[k];
    ctx.store_global(sizeof(float) * m);
    if (flops) *flops = ctx.recorded_flops();
  });
  return dev.to_host(check);
}

std::uint64_t run_d2t(StreamDevice& dev, const GpuLet& g,
                      const std::vector<float>& unit, float radius,
                      const std::vector<float>& d_per_box, Workspace& ws) {
  const int b = g.block;
  const int m = g.m;
  PKIFMM_CHECK(d_per_box.size() == g.boxes.size() * static_cast<std::size_t>(m));
  auto dd = dev.to_device(std::span<const float>(d_per_box));
  std::uint64_t recorded = 0;

  dev.launch("d2t", g.chunks(), b, [&](BlockCtx& ctx) {
    const std::size_t blk = ctx.block_index();
    const std::int32_t bi = g.chunk_box[blk];
    const GpuLet::Box& box = g.boxes[bi];
    const std::int32_t t0 = g.chunk_trg[blk];
    const float r = radius * box.hw;

    // Densities of this box into shared memory.
    auto dsh = ctx.shared(m);
    for (int k = 0; k < m; ++k) dsh[k] = dd.data()[bi * m + k];
    ctx.load_global(sizeof(float) * m);
    ctx.load_global(3 * sizeof(float) * b);  // targets

    const int valid =
        std::min<std::int32_t>(b, box.count - (t0 - box.trg_begin));
    for (int tid = 0; tid < valid; ++tid) {
      const float px = ws.tx.data()[t0 + tid];
      const float py = ws.ty.data()[t0 + tid];
      const float pz = ws.tz.data()[t0 + tid];
      float a = 0.0f;
      for (int k = 0; k < m; ++k) {
        const float dx = px - (box.cx + r * unit[3 * k + 0]);
        const float dy = py - (box.cy + r * unit[3 * k + 1]);
        const float dz = pz - (box.cz + r * unit[3 * k + 2]);
        a += dsh[k] * laplace_kernel_value(dx * dx + dy * dy + dz * dz);
      }
      ws.f.data()[t0 + tid] += kOneOver4Pi * a;
    }
    ctx.flops(10ull * std::max(valid, 0) * m);
    ctx.store_global(sizeof(float) * std::max(valid, 0));
    recorded = ctx.recorded_flops();
  });
  return recorded;
}

std::vector<std::complex<float>> run_vli_diag(StreamDevice& dev,
                                              const VliBatch& batch,
                                              std::uint64_t* flops) {
  const std::size_t vol = batch.vol;
  const std::size_t ntargets = batch.target_offset.size() - 1;
  auto src = dev.to_device(std::span<const std::complex<float>>(
      batch.src_spectra));
  auto gsp = dev.to_device(std::span<const std::complex<float>>(
      batch.g_spectra));
  auto out = dev.alloc<std::complex<float>>(ntargets * vol,
                                            std::complex<float>(0, 0));

  dev.launch("vli", ntargets, 128, [&](BlockCtx& ctx) {
    const std::size_t t = ctx.block_index();
    std::complex<float>* acc = out.data() + t * vol;
    for (std::int32_t p = batch.target_offset[t];
         p < batch.target_offset[t + 1]; ++p) {
      const std::complex<float>* s =
          src.data() + static_cast<std::size_t>(batch.pair_src[p]) * vol;
      const std::complex<float>* gg =
          gsp.data() + static_cast<std::size_t>(batch.pair_g[p]) * vol;
      for (std::size_t i = 0; i < vol; ++i) acc[i] += gg[i] * s[i];
      // Low arithmetic intensity: 8 flops per 16 loaded bytes — this is
      // why the paper calls VLI "the least efficient in the GPU".
      ctx.load_global(2 * vol * sizeof(std::complex<float>));
      ctx.flops(8ull * vol);
    }
    ctx.store_global(vol * sizeof(std::complex<float>));
    if (flops) *flops = ctx.recorded_flops();
  });
  return dev.to_host(out);
}

std::uint64_t run_wli(StreamDevice& dev, const GpuLet& g,
                      const std::vector<float>& unit, float radius,
                      const std::vector<float>& u_per_slot, Workspace& ws) {
  const int b = g.block;
  const int m = g.m;
  PKIFMM_CHECK(u_per_slot.size() == g.wsrc_node.size() * std::size_t(m));
  auto uu = dev.to_device(std::span<const float>(u_per_slot));
  std::uint64_t recorded = 0;

  dev.launch("wli", g.chunks(), b, [&](BlockCtx& ctx) {
    const std::size_t blk = ctx.block_index();
    const GpuLet::Box& box = g.boxes[g.chunk_box[blk]];
    if (box.wseg_begin == box.wseg_end) return;
    const std::int32_t t0 = g.chunk_trg[blk];
    ctx.load_global(3 * sizeof(float) * b);  // targets

    const int valid =
        std::min<std::int32_t>(b, box.count - (t0 - box.trg_begin));
    auto dsh = ctx.shared(m);
    for (std::int32_t s = box.wseg_begin; s < box.wseg_end; ++s) {
      const std::int32_t slot = g.wseg_slot[s];
      // Source equivalent densities into shared memory; positions come
      // from the constant unit lattice scaled by the W-member geometry.
      for (int k = 0; k < m; ++k) dsh[k] = uu.data()[slot * m + k];
      ctx.load_global(sizeof(float) * m);
      const float r = radius * g.wsrc_hw[slot];
      const float cx = g.wsrc_cx[slot], cy = g.wsrc_cy[slot],
                  cz = g.wsrc_cz[slot];
      for (int tid = 0; tid < valid; ++tid) {
        const float px = ws.tx.data()[t0 + tid];
        const float py = ws.ty.data()[t0 + tid];
        const float pz = ws.tz.data()[t0 + tid];
        float a = 0.0f;
        for (int k = 0; k < m; ++k) {
          const float dx = px - (cx + r * unit[3 * k + 0]);
          const float dy = py - (cy + r * unit[3 * k + 1]);
          const float dz = pz - (cz + r * unit[3 * k + 2]);
          a += dsh[k] * laplace_kernel_value(dx * dx + dy * dy + dz * dz);
        }
        ws.f.data()[t0 + tid] += kOneOver4Pi * a;
      }
      ctx.flops(10ull * std::max(valid, 0) * m);
    }
    ctx.store_global(sizeof(float) * std::max(valid, 0));
    recorded = ctx.recorded_flops();
  });
  return recorded;
}

std::vector<float> run_xli(StreamDevice& dev, const GpuLet& g,
                           const std::vector<float>& unit, float radius,
                           std::uint64_t* flops) {
  const int b = g.block;
  const int m = g.m;
  auto check = dev.alloc<float>(g.boxes.size() * static_cast<std::size_t>(m),
                                0.0f);
  std::vector<float> acc(m);

  dev.launch("xli", g.boxes.size(), b, [&](BlockCtx& ctx) {
    const GpuLet::Box& box = g.boxes[ctx.block_index()];
    if (box.xseg_begin == box.xseg_end) {
      if (flops) *flops = ctx.recorded_flops();
      return;
    }
    const float r = radius * box.hw;
    std::fill(acc.begin(), acc.end(), 0.0f);
    auto tile = ctx.shared(4 * static_cast<std::size_t>(b));

    for (std::int32_t seg = box.xseg_begin; seg < box.xseg_end; ++seg) {
      const std::int32_t sb = g.xseg_src_begin[seg];
      const std::int32_t sc = g.xseg_src_count[seg];
      for (std::int32_t base = 0; base < sc; base += b) {
        const int tn = std::min<std::int32_t>(b, sc - base);
        for (int j = 0; j < tn; ++j) {
          tile[4 * j + 0] = g.sx[sb + base + j];
          tile[4 * j + 1] = g.sy[sb + base + j];
          tile[4 * j + 2] = g.sz[sb + base + j];
          tile[4 * j + 3] = g.sq[sb + base + j];
        }
        ctx.load_global(4 * sizeof(float) * tn, tn == b);
        for (int k = 0; k < m; ++k) {
          const float px = box.cx + r * unit[3 * k + 0];
          const float py = box.cy + r * unit[3 * k + 1];
          const float pz = box.cz + r * unit[3 * k + 2];
          float a = acc[k];
          for (int j = 0; j < tn; ++j) {
            const float dx = px - tile[4 * j + 0];
            const float dy = py - tile[4 * j + 1];
            const float dz = pz - tile[4 * j + 2];
            a += tile[4 * j + 3] *
                 laplace_kernel_value(dx * dx + dy * dy + dz * dz);
          }
          acc[k] = a;
        }
        ctx.flops(10ull * m * tn);
      }
    }
    float* out = check.data() + ctx.block_index() * m;
    for (int k = 0; k < m; ++k) out[k] = kOneOver4Pi * acc[k];
    ctx.store_global(sizeof(float) * m);
    if (flops) *flops = ctx.recorded_flops();
  });
  return dev.to_host(check);
}

void scatter_potentials(StreamDevice& dev, const GpuLet& g,
                        const Workspace& ws, std::span<double> f_out) {
  const auto f = dev.to_host(ws.f);
  for (const GpuLet::Box& box : g.boxes) {
    for (std::int32_t k = 0; k < box.count; ++k)
      f_out[box.let_point_begin + k] +=
          static_cast<double>(f[box.trg_begin + k]);
  }
}

}  // namespace pkifmm::gpu
