#include "core/evaluator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>

#include "obs/health.hpp"

namespace pkifmm::core {

using morton::Key;
using octree::LetNode;

Evaluator::Evaluator(const Tables& tables, const octree::Let& let,
                     comm::RankCtx& ctx)
    : tables_(tables), let_(let), ctx_(ctx), surf_(tables.n()) {
  const std::size_t nn = let_.nodes.size();
  u_.assign(nn * tables_.eq_len(), 0.0);
  checkpot_.assign(nn * tables_.check_len(), 0.0);
  d_.assign(nn * tables_.eq_len(), 0.0);

  const int sd = tables_.sdim();
  const int td = tables_.tdim();
  f_.assign(let_.points.size() * td, 0.0);
  pos_.resize(let_.points.size() * 3);
  for (std::size_t i = 0; i < let_.points.size(); ++i)
    for (int c = 0; c < 3; ++c) pos_[3 * i + c] = let_.points[i].pos[c];

  // Per-node source extraction (targets and sources may be disjoint
  // subsets of a leaf's points; see octree::PointRec::kind).
  src_offset_.assign(let_.nodes.size() + 1, 0);
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    src_offset_[i] = src_pos_.size() / 3;
    for (const octree::PointRec& pt : let_.points_of(let_.nodes[i])) {
      if (!pt.is_source()) continue;
      src_pos_.insert(src_pos_.end(), pt.pos, pt.pos + 3);
      src_den_.insert(src_den_.end(), pt.den, pt.den + sd);
    }
  }
  src_offset_[let_.nodes.size()] = src_pos_.size() / 3;

  // Level index for the batched phases (node order within a level).
  if (!let_.nodes.empty()) {
    min_level_ = morton::kMaxDepth + 1;
    max_level_ = -1;
    for (const LetNode& n : let_.nodes) {
      min_level_ = std::min(min_level_, static_cast<int>(n.key.level));
      max_level_ = std::max(max_level_, static_cast<int>(n.key.level));
    }
    level_nodes_.resize(max_level_ + 1);
    for (std::size_t i = 0; i < nn; ++i)
      level_nodes_[let_.nodes[i].key.level].push_back(
          static_cast<std::int32_t>(i));
  }

  // U2U's and L2L's batches: one pass per level buckets its (child,
  // parent) pairs by child index.
  child_off_.assign(8 * level_nodes_.size() + 1, 0);
  std::array<std::vector<std::int32_t>, 8> bucket;
  for (std::size_t level = 0; level < level_nodes_.size(); ++level) {
    for (auto& b : bucket) b.clear();
    for (auto i : level_nodes_[level]) {
      const LetNode& node = let_.nodes[i];
      if (!node.target || node.parent < 0) continue;
      if (!let_.nodes[node.parent].target) continue;
      bucket[morton::child_index(node.key)].push_back(i);
    }
    for (int ci = 0; ci < 8; ++ci) {
      child_off_[8 * level + ci] = child_.size();
      for (auto i : bucket[ci]) {
        child_.push_back(i);
        parent_.push_back(let_.nodes[i].parent);
      }
    }
  }
  child_off_.back() = child_.size();

  // Worker pool: prefer the Runtime-provided per-rank pool; otherwise
  // own one sized from the options (0 workers when threads_per_rank is
  // 1 — an inline executor with no thread or synchronization cost).
  if (ctx.pool != nullptr) {
    pool_ = ctx.pool;
  } else {
    const FmmOptions& opts = tables_.options();
    owned_pool_ = std::make_unique<util::TaskPool>(
        util::recommended_workers(opts.threads_per_rank, ctx.size(),
                                  opts.clamp_threads) -
        1);
    pool_ = owned_pool_.get();
  }
  lane_surf_.resize(std::size_t(pool_->lanes()) * 3 * surf_.count());
}

Evaluator::~Evaluator() {
  if (uli_started_) {
    try {
      pool_->wait(uli_group_);
    } catch (...) {
      // Unwinding already; the wait only exists so no task outlives us.
    }
  }
}

std::span<const double> Evaluator::leaf_source_positions(
    std::size_t node) const {
  return {src_pos_.data() + src_offset_[node] * 3,
          (src_offset_[node + 1] - src_offset_[node]) * 3};
}

std::span<const double> Evaluator::leaf_source_densities(
    std::size_t node) const {
  const std::size_t sd = tables_.sdim();
  return {src_den_.data() + src_offset_[node] * sd,
          (src_offset_[node + 1] - src_offset_[node]) * sd};
}

std::span<const double> Evaluator::leaf_target_positions(
    const LetNode& n) const {
  return {pos_.data() + std::size_t(n.point_begin) * 3,
          std::size_t(n.target_count) * 3};
}

std::span<double> Evaluator::leaf_target_potential(const LetNode& n) {
  const int td = tables_.tdim();
  return {f_.data() + std::size_t(n.point_begin) * td,
          std::size_t(n.target_count) * td};
}

std::span<const double> Evaluator::box_surf(double radius_scale, const Key& k,
                                            int lane) {
  const auto g = morton::box_geometry(k);
  const std::size_t len = std::size_t(3) * surf_.count();
  std::span<double> out(lane_surf_.data() + std::size_t(lane) * len, len);
  surf_.materialize(radius_scale, g.center, g.half_width, out);
  return out;
}

namespace {

/// gemm_batched's row contract: the out rows are distinct and, when
/// src and dst are one array (`same`), disjoint from the in rows.
[[maybe_unused]] bool rows_contract_holds(std::span<const std::int32_t> in,
                                          std::span<const std::int32_t> out,
                                          bool same) {
  std::vector<std::int32_t> o(out.begin(), out.end());
  std::sort(o.begin(), o.end());
  if (std::adjacent_find(o.begin(), o.end()) != o.end()) return false;
  return !same || std::none_of(in.begin(), in.end(), [&](std::int32_t r) {
    return std::binary_search(o.begin(), o.end(), r);
  });
}

}  // namespace

void Evaluator::gemm_batched(const la::Matrix& at, double scale,
                             std::span<const double> src,
                             std::span<const std::int32_t> in,
                             std::span<double> dst,
                             std::span<const std::int32_t> out,
                             const char* phase) {
  PKIFMM_DCHECK(rows_contract_holds(in, out, src.data() == dst.data()));
  pool_->parallel_for(
      in.size(), kColGrain,
      [&](std::size_t b, std::size_t e, int) {
        la::gemm_rows(at, scale, src, in.subspan(b, e - b), dst,
                      out.subspan(b, e - b));
      },
      phase);
  ctx_.flops.add(phase, la::gemm_flops(at, in.size()));
}

Evaluator::ChildBatch Evaluator::child_batch(int level, int ci) const {
  const std::size_t b = child_off_[8 * std::size_t(level) + ci];
  const std::size_t e = child_off_[8 * std::size_t(level) + ci + 1];
  return {{child_.data() + b, e - b}, {parent_.data() + b, e - b}};
}

void Evaluator::run() {
  // ULI ‖ {S2U, U2U, comm, VLI, XLI, down, WLI, D2T}: the direct
  // interactions depend on nothing upstream, so they start now and the
  // workers execute them whenever no far-field chunk is runnable —
  // including while the rank thread blocks in the reduce-scatter.
  {
    auto t = ctx_.timer.scope("eval.uli");
    uli_start();
  }
  {
    auto t = ctx_.timer.scope("eval.s2u");
    s2u();
  }
  health_post_s2u();
  {
    auto t = ctx_.timer.scope("eval.u2u");
    u2u();
  }
  {
    auto t = ctx_.timer.scope("eval.comm");
    comm_reduce();
  }
  health_post_reduce();
  {
    auto t = ctx_.timer.scope("eval.vli");
    vli();
  }
  {
    auto t = ctx_.timer.scope("eval.xli");
    xli();
  }
  {
    auto t = ctx_.timer.scope("eval.down");
    downward();
  }
  {
    auto t = ctx_.timer.scope("eval.wli");
    wli();
  }
  {
    auto t = ctx_.timer.scope("eval.d2t");
    d2t();
  }
  {
    auto t = ctx_.timer.scope("eval.uli");
    uli_join();
  }
  health_post_run();
  pool_->fold_stats(ctx_.rec);
  publish_mem_gauges();
}

/// Publishes the evaluator's scratch footprint as `mem.eval.*` byte
/// gauges. Capacities only grow across phases, so sampling once after
/// the pipeline captures each buffer's high-water mark for this run.
void Evaluator::publish_mem_gauges() {
  auto cap = [](const auto& v) {
    return static_cast<double>(
        v.capacity() *
        sizeof(typename std::decay_t<decltype(v)>::value_type));
  };
  obs::Recorder& rec = ctx_.rec;
  rec.gauge_set("mem.eval.state_bytes",
                cap(u_) + cap(checkpot_) + cap(d_) + cap(f_) + cap(f_uli_) +
                    cap(uli_far_) + cap(pos_) + cap(src_pos_) +
                    cap(src_den_) + cap(src_offset_));
  rec.gauge_set("mem.eval.surface_bytes", static_cast<double>(surf_.bytes()));
  rec.gauge_set("mem.eval.lane_scratch_bytes",
                cap(lane_surf_) + cap(lane_cube_) + cap(lane_spec_));
  rec.gauge_set("mem.eval.batch_bytes",
                cap(batch_tmp_) + cap(child_) + cap(parent_) +
                    cap(child_off_) + cap(slots_a_) + cap(slots_b_) +
                    cap(slot_of_) +
                    cap(tgt_slot_of_) + cap(vli_.tgt) + cap(vli_.src) +
                    cap(vli_.parents) + cap(vli_.colleagues) +
                    cap(uli_act_) + cap(uli_fold_));
  rec.gauge_set("mem.eval.fft_chunk_bytes",
                static_cast<double>((vli_.spectra.capacity() +
                                     vli_.acc.capacity()) *
                                    sizeof(double)));
}

namespace {

/// Moment-invariant tolerance: the upward equivalent density's total
/// "charge" matches the leaf's summed source densities only to the
/// surface discretization accuracy, which is loose at surface_n = 3-4
/// (the invariant is a corruption tripwire, not an accuracy bound —
/// corruption flips sign bits or exponents and misses by orders of
/// magnitude). Clean-run sweeps across kernels x distributions pin
/// this headroom in tests/test_health.cpp.
constexpr double kMomentTol = 0.05;

}  // namespace

void Evaluator::health_post_s2u() {
  const FmmOptions& opts = tables_.options();
  if (!opts.health) return;
  auto t = ctx_.timer.scope("health.check");
  obs::Recorder& rec = ctx_.rec;
  const std::size_t elen = tables_.eq_len();
  const int sd = tables_.sdim();
  const auto& kern = tables_.kernel();
  // The monopole term of a 1/r-class kernel is the total source
  // density, so the equivalent density must conserve it per component.
  const bool moment =
      kern.homogeneous() && kern.homogeneity_degree() == -1.0;

  double digest = 0.0;
  double moment_max = 0.0;
  std::size_t bad = 0, violations = 0;
  bool injected = false;
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!(node.owned && node.global_leaf)) continue;
    std::span<double> chunk(u_.data() + i * elen, elen);
    // Corrupt the FIRST owned leaf (not the root: a top-level chunk can
    // have no V/W consumers, leaving outputs untouched) so the fault
    // both lands in this digest and propagates downstream.
    if (!injected &&
        obs::maybe_inject(obs::InjectPhase::kS2u, ctx_.rank(), chunk)) {
      injected = true;
      rec.counter_add("health.injected");
    }
    digest += obs::chunk_digest(chunk, morton::KeyHash{}(node.key));
    bad += obs::nonfinite_count(chunk);
    if (moment && !leaf_source_densities(i).empty()) {
      const std::span<const double> den = leaf_source_densities(i);
      double diff = 0.0, ref = 0.0;
      const std::size_t npts = elen / sd;
      const std::size_t nsrc = den.size() / sd;
      for (int c = 0; c < sd; ++c) {
        double su = 0.0, sq = 0.0;
        for (std::size_t pt = 0; pt < npts; ++pt) su += chunk[pt * sd + c];
        for (std::size_t s = 0; s < nsrc; ++s) sq += den[s * sd + c];
        diff += std::abs(su - sq);
        ref += std::abs(sq);
      }
      const double rel = diff / std::max(ref, 1e-300);
      moment_max = std::max(moment_max, rel);
      if (rel > kMomentTol) ++violations;
    }
  }
  rec.counter_add("health.digest.u", digest);
  if (bad > 0)
    rec.counter_add("health.s2u.nonfinite", static_cast<double>(bad));
  if (violations > 0)
    rec.counter_add("health.moment.violations",
                    static_cast<double>(violations));
  // Running max as a counter (only counters cross the summary).
  rec.counter_add("health.moment.max_rel",
                  std::max(0.0, moment_max - rec.counter("health.moment.max_rel")));
  PKIFMM_CHECK_MSG(!opts.health_fatal || bad == 0,
                   "health: non-finite upward densities after S2U");
  PKIFMM_CHECK_MSG(!opts.health_fatal || violations == 0,
                   "health: moment invariant violated after S2U");
}

void Evaluator::health_post_reduce() {
  const FmmOptions& opts = tables_.options();
  if (!opts.health) return;
  auto t = ctx_.timer.scope("health.check");
  obs::Recorder& rec = ctx_.rec;
  const std::size_t elen = tables_.eq_len();

  double digest = 0.0;
  std::size_t bad = 0;
  bool injected = false;
  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!node.owned) continue;
    std::span<double> chunk(u_.data() + i * elen, elen);
    if (!injected && node.global_leaf &&
        obs::maybe_inject(obs::InjectPhase::kReduce, ctx_.rank(), chunk)) {
      injected = true;
      rec.counter_add("health.injected");
    }
    digest += obs::chunk_digest(chunk, morton::KeyHash{}(node.key));
    bad += obs::nonfinite_count(chunk);
  }
  rec.counter_add("health.digest.reduce", digest);
  if (bad > 0)
    rec.counter_add("health.reduce.nonfinite", static_cast<double>(bad));
  PKIFMM_CHECK_MSG(!opts.health_fatal || bad == 0,
                   "health: non-finite upward densities after reduce");
}

void Evaluator::health_post_run() {
  const FmmOptions& opts = tables_.options();
  if (!opts.health) return;
  auto t = ctx_.timer.scope("health.check");
  obs::Recorder& rec = ctx_.rec;

  double digest = 0.0;
  std::size_t bad = 0;
  bool injected = false;
  for (const LetNode& node : let_.nodes) {
    if (!(node.owned && node.global_leaf) || node.target_count == 0) continue;
    std::span<double> chunk = leaf_target_potential(node);
    if (!injected &&
        obs::maybe_inject(obs::InjectPhase::kD2t, ctx_.rank(), chunk)) {
      injected = true;
      rec.counter_add("health.injected");
    }
    digest += obs::chunk_digest(chunk, morton::KeyHash{}(node.key));
    bad += obs::nonfinite_count(chunk);
  }
  rec.counter_add("health.digest.pot", digest);
  if (bad > 0)
    rec.counter_add("health.d2t.nonfinite", static_cast<double>(bad));
  PKIFMM_CHECK_MSG(!opts.health_fatal || bad == 0,
                   "health: non-finite potentials after D2T");
}

void Evaluator::s2u() {
  const auto& kern = tables_.kernel();
  const std::size_t clen = tables_.check_len();
  for (int level = min_level_; level <= max_level_; ++level) {
    // Contributing leaves at this level.
    slots_a_.clear();
    for (auto i : level_nodes_[level]) {
      const LetNode& node = let_.nodes[i];
      if (!(node.owned && node.global_leaf)) continue;
      if (leaf_source_positions(i).empty()) continue;
      slots_a_.push_back(i);
    }
    if (slots_a_.empty()) continue;
    const std::size_t nb = slots_a_.size();

    // Per-leaf upward-check potentials into node-major scratch, chunks
    // writing disjoint rows...
    batch_tmp_.assign(nb * clen, 0.0);
    std::atomic<std::uint64_t> flops{0};
    pool_->parallel_for(
        nb, kNodeGrain,
        [&](std::size_t b, std::size_t e, int lane) {
          std::uint64_t local = 0;
          for (std::size_t j = b; j < e; ++j) {
            const std::int32_t i = slots_a_[j];
            const auto uc =
                box_surf(kUpwardCheckRadius, let_.nodes[i].key, lane);
            local += kern.direct(
                uc, leaf_source_positions(i), leaf_source_densities(i),
                std::span<double>(batch_tmp_.data() + j * clen, clen));
          }
          flops.fetch_add(local, std::memory_order_relaxed);
        },
        "eval.s2u");
    ctx_.flops.add("eval.s2u", flops.load(std::memory_order_relaxed));

    // ...then ONE uc2ue application for the whole level, from scratch
    // row j into leaf slots_a_[j]'s row of u_.
    slots_b_.resize(nb);
    std::iota(slots_b_.begin(), slots_b_.end(), 0);
    const LevelOps ops = tables_.at(level);
    gemm_batched(*ops.uc2ue_t, ops.uc2ue_scale, batch_tmp_, slots_b_, u_,
                 slots_a_, "eval.s2u");
  }
}

void Evaluator::u2u() {
  // Deepest level first so every child's density is final before it is
  // lifted; within a level, one batch per child index (the eight M2M
  // operators of the paper's Table I). Child indices run high-to-low,
  // so each parent adds its children in reverse preorder; the order
  // fixes the last bits of every potential. A batch has one child per
  // parent, and reads level `level` while it writes level - 1, so it
  // keeps gemm_batched's row contract.
  for (int level = max_level_; level > min_level_; --level) {
    if (level_nodes_[level].empty()) continue;
    const LevelOps ops = tables_.at(level - 1);
    for (int ci = 7; ci >= 0; --ci) {
      const ChildBatch batch = child_batch(level, ci);
      if (batch.child.empty()) continue;
      gemm_batched((*ops.m2m_t)[ci], 1.0, u_, batch.child, u_, batch.parent,
                   "eval.u2u");
    }
  }
}

void Evaluator::comm_reduce() {
  ctx_.comm.cost().set_phase("eval.comm");
  reduce_upward_densities(ctx_.comm, let_, tables_.eq_len(), u_,
                          tables_.options().reduce);
}

void Evaluator::vli() {
  if (tables_.options().m2l == M2lMode::kFft) {
    vli_fft();
    return;
  }
  // Dense M2L (ablation baseline): pairs sorted by translation offset,
  // one GEMM per (level, offset).
  std::vector<std::tuple<int, std::int32_t, std::int32_t>> pairs;
  for (int level = min_level_; level <= max_level_; ++level) {
    pairs.clear();
    for (auto i : level_nodes_[level]) {
      const LetNode& node = let_.nodes[i];
      if (!node.target) continue;
      for (auto si : let_.v.of(i))
        pairs.emplace_back(vlist_offset_index(node.key, let_.nodes[si].key),
                           i, si);
    }
    if (pairs.empty()) continue;
    std::sort(pairs.begin(), pairs.end());
    const LevelOps ops = tables_.at(level);
    for (std::size_t r0 = 0; r0 < pairs.size();) {
      const int off = std::get<0>(pairs[r0]);
      std::size_t r1 = r0;
      slots_a_.clear();  // sources
      slots_b_.clear();  // targets
      for (; r1 < pairs.size() && std::get<0>(pairs[r1]) == off; ++r1) {
        slots_b_.push_back(std::get<1>(pairs[r1]));
        slots_a_.push_back(std::get<2>(pairs[r1]));
      }
      gemm_batched(tables_.m2l_dense_t(level, off), ops.m2l_scale, u_,
                   slots_a_, checkpot_, slots_b_, "eval.vli");
      r0 = r1;
    }
  }
}

// The FFT V-list (vli_fft and the steps it runs). V-list pairs are
// exactly the non-adjacent child pairs of (target parent, parent
// colleague) pairs, so the MAC loops over parent pairs: for each
// 8-frequency block, a target parent keeps its children's accumulators
// in registers while its colleagues' child spectra stream past
// (simd::Ops::vli_mac_block). Source spectra, target accumulators and
// operators are stored in split re/im blocks, block-major: value
// (slot, component c, frequency q) lives at
//   buf[((q / 8) nslots ncomp + slot ncomp + c) 16 + q % 8]
// (+ 8 for the imaginary part), ncomp = sd for sources, td for targets.
// A block of one level's sources, accumulators and operators is a few
// hundred KB, so the MAC runs out of L2. Flops follow Tables::vli_flops().

std::uint64_t Evaluator::vli_plan(int level, VliLevel& V) {
  const int sd = tables_.sdim();
  const int td = tables_.tdim();
  const std::size_t nblk = tables_.spectrum_len() / simd::kVliBlock;
  const auto& pair_slots = vli_pair_slots();

  // Targets with a V-list, in node order.
  V.tgt.clear();
  V.src.clear();
  V.parents.clear();
  V.colleagues.clear();
  std::size_t list_pairs = 0;
  for (auto i : level_nodes_[level]) {
    const LetNode& node = let_.nodes[i];
    if (!node.target) continue;
    const std::size_t nv = let_.v.of(i).size();
    if (nv == 0) continue;
    list_pairs += nv;
    tgt_slot_of_[i] = static_cast<std::int32_t>(V.tgt.size());
    V.tgt.push_back(i);
  }

  // The V-list pairs of each colleague direction (the bits of
  // VliColleague::pairs), before the children present are known.
  std::array<std::uint64_t, 27> dir_pairs{};
  for (int k = 0; k < 27 * 64; ++k)
    if (pair_slots[k] >= 0) dir_pairs[k / 64] |= std::uint64_t{1} << (k % 64);

  // Their parents in first-target order (siblings are contiguous in
  // node order), each with its colleagues in morton::colleagues order:
  // every target then adds its sources in (colleague, child index)
  // order, the order lists_for_node builds let_.v in.
  std::size_t pairs = 0;
  std::int32_t prev = -1;
  for (auto t : V.tgt) {
    const std::int32_t pi = let_.nodes[t].parent;
    if (pi == prev) continue;
    prev = pi;
    PKIFMM_CHECK(pi >= 0);
    const LetNode& par = let_.nodes[pi];
    simd::VliParent vp{};
    std::uint64_t targets = 0;  // pair bits whose ct is a V-list target
    for (int ci = 0; ci < 8; ++ci) {
      const std::int32_t c = par.child[ci];
      vp.tgt[ci] = c >= 0 ? tgt_slot_of_[c] : -1;
      if (vp.tgt[ci] >= 0) targets |= 0x0101010101010101ull << ci;
    }
    vp.c0 = static_cast<std::uint32_t>(V.colleagues.size());
    for (int dx = -1; dx <= 1; ++dx)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dz = -1; dz <= 1; ++dz) {
          if (dx == 0 && dy == 0 && dz == 0) continue;
          const auto nb = morton::neighbor(par.key, dx, dy, dz);
          if (!nb) continue;
          const std::int32_t ki = let_.find(*nb);
          if (ki < 0) continue;
          simd::VliColleague vc{};
          vc.dir = (dx + 1) * 9 + (dy + 1) * 3 + (dz + 1);
          for (int cs = 0; cs < 8; ++cs) {
            vc.src[cs] = -1;
            const std::int32_t c = let_.nodes[ki].child[cs];
            if (c < 0) continue;
            const std::uint64_t bits =
                dir_pairs[vc.dir] & targets & (0xFFull << (8 * cs));
            if (bits == 0) continue;
            vc.pairs |= bits;
            if (slot_of_[c] < 0) {
              slot_of_[c] = static_cast<std::int32_t>(V.src.size());
              V.src.push_back(c);
            }
            vc.src[cs] = slot_of_[c];
          }
          if (vc.pairs == 0) continue;
          pairs += static_cast<std::size_t>(std::popcount(vc.pairs));
          V.colleagues.push_back(vc);
        }
    vp.c1 = static_cast<std::uint32_t>(V.colleagues.size());
    V.parents.push_back(vp);
  }
  PKIFMM_CHECK_MSG(pairs == list_pairs,
                   "V-list plan has " << pairs << " pairs, the lists "
                                      << list_pairs);
  for (auto si : V.src) slot_of_[si] = -1;  // reset for the next level
  for (auto t : V.tgt) tgt_slot_of_[t] = -1;

  // vli_forward writes every spectra value; every target's parent
  // stores its accumulators once per block.
  V.spectra.resize(nblk * V.src.size() * sd * simd::kVliBlockDoubles);
  V.acc.resize(nblk * V.tgt.size() * td * simd::kVliBlockDoubles);
  const Tables::VliFlops& fl = tables_.vli_flops();
  return V.src.size() * fl.fwd_per_source + pairs * fl.mac_per_pair +
         V.tgt.size() * fl.inv_per_target;
}

void Evaluator::vli_forward(VliLevel& V, std::size_t b, std::size_t e,
                            int lane) {
  constexpr std::size_t kB = simd::kVliBlock;
  const int sd = tables_.sdim();
  const int m = tables_.m();
  const auto& embed = tables_.embed_index();
  const std::size_t n = static_cast<std::size_t>(tables_.n());
  const std::size_t len = tables_.spectrum_len();
  const std::size_t hv = tables_.fft().half_volume();
  const std::span<double> cube(lane_cube_.data() + lane * n * n * n,
                               n * n * n);
  double* spec = lane_spec_.data() + lane * vli_lane_spec_len();
  for (std::size_t sl = b; sl < e; ++sl) {
    const double* usrc = u_.data() + std::size_t(V.src[sl]) * tables_.eq_len();
    for (int c = 0; c < sd; ++c) {
      std::fill(cube.begin(), cube.end(), 0.0);
      for (int k = 0; k < m; ++k) cube[embed[k]] = usrc[k * sd + c];
      double* re = spec + ((sl - b) * sd + c) * 2 * len;
      tables_.fft().forward_r2c(cube, n, re, re + len);
      std::fill(re + hv, re + len, 0.0);
      std::fill(re + len + hv, re + 2 * len, 0.0);
    }
  }
  // Block q0 of the chunk's (slot, component) spectra is one contiguous
  // run of V.spectra.
  const std::size_t rows = (e - b) * sd;
  const std::size_t stride = V.src.size() * sd * simd::kVliBlockDoubles;
  double* out = V.spectra.data() + b * sd * simd::kVliBlockDoubles;
  for (std::size_t q0 = 0; q0 < len; q0 += kB, out += stride)
    for (std::size_t r = 0; r < rows; ++r) {
      const double* re = spec + r * 2 * len + q0;
      std::copy_n(re, kB, out + r * simd::kVliBlockDoubles);
      std::copy_n(re + len, kB, out + r * simd::kVliBlockDoubles + kB);
    }
}

void Evaluator::vli_mac(VliLevel& V, const std::vector<AlignedBuffer>& g,
                        std::size_t b, std::size_t e) {
  const int sd = tables_.sdim();
  const int td = tables_.tdim();
  const std::size_t sstride = V.src.size() * sd * simd::kVliBlockDoubles;
  const std::size_t astride = V.tgt.size() * td * simd::kVliBlockDoubles;
  const simd::Ops& ops = simd::ops();
  for (std::size_t blk = b; blk < e; ++blk)
    ops.vli_mac_block(g[blk].data(), vli_pair_slots().data(),
                      V.spectra.data() + blk * sstride,
                      V.acc.data() + blk * astride, td, sd, V.parents.data(),
                      V.parents.size(), V.colleagues.data());
}

void Evaluator::vli_inverse(VliLevel& V, std::size_t b, std::size_t e,
                            double scale, int lane) {
  constexpr std::size_t kB = simd::kVliBlock;
  const int td = tables_.tdim();
  const int m = tables_.m();
  const auto& embed = tables_.embed_index();
  const std::size_t n = static_cast<std::size_t>(tables_.n());
  const std::size_t len = tables_.spectrum_len();
  const std::size_t clen = tables_.check_len();
  const std::span<double> cube(lane_cube_.data() + lane * n * n * n,
                               n * n * n);
  double* spec = lane_spec_.data() + lane * vli_lane_spec_len();
  // The chunk's (target, component) accumulators of block q0 are one
  // contiguous run of V.acc.
  const std::size_t rows = (e - b) * td;
  const std::size_t stride = V.tgt.size() * td * simd::kVliBlockDoubles;
  const double* in = V.acc.data() + b * td * simd::kVliBlockDoubles;
  for (std::size_t q0 = 0; q0 < len; q0 += kB, in += stride)
    for (std::size_t r = 0; r < rows; ++r) {
      double* re = spec + r * 2 * len + q0;
      std::copy_n(in + r * simd::kVliBlockDoubles, kB, re);
      std::copy_n(in + r * simd::kVliBlockDoubles + kB, kB, re + len);
    }
  for (std::size_t bj = b; bj < e; ++bj) {
    double* out = checkpot_.data() + std::size_t(V.tgt[bj]) * clen;
    for (int ti = 0; ti < td; ++ti) {
      const double* re = spec + ((bj - b) * td + ti) * 2 * len;
      tables_.fft().inverse_c2r(re, re + len, n, cube);
      for (int k = 0; k < m; ++k) out[k * td + ti] += scale * cube[embed[k]];
    }
  }
}

std::size_t Evaluator::vli_lane_spec_len() const {
  const std::size_t comps = std::max(tables_.sdim(), tables_.tdim());
  return kFftSlotGrain * comps * 2 * tables_.spectrum_len();
}

void Evaluator::vli_fft() {
  const std::size_t nblk = tables_.spectrum_len() / simd::kVliBlock;
  const std::size_t n = static_cast<std::size_t>(tables_.n());
  const std::size_t lanes = static_cast<std::size_t>(pool_->lanes());
  lane_cube_.assign(lanes * n * n * n, 0.0);
  lane_spec_.resize(lanes * vli_lane_spec_len());
  slot_of_.assign(let_.nodes.size(), -1);
  tgt_slot_of_.assign(let_.nodes.size(), -1);
  for (int level = min_level_; level <= max_level_; ++level) {
    const std::uint64_t flops = vli_plan(level, vli_);
    if (vli_.tgt.empty()) continue;
    ctx_.flops.add("eval.vli", flops);
    const std::vector<AlignedBuffer>& g = tables_.vli_operator_blocks(level);

    // Each chunk of source slots owns disjoint spectra components,
    // each frequency block disjoint accumulator blocks, each chunk of
    // targets disjoint checkpot_ rows.
    pool_->parallel_for(
        vli_.src.size(), kFftSlotGrain,
        [&](std::size_t b, std::size_t e, int lane) {
          vli_forward(vli_, b, e, lane);
        },
        "eval.vli");
    pool_->parallel_for(
        nblk, kFreqBlockGrain,
        [&](std::size_t b, std::size_t e, int) { vli_mac(vli_, g, b, e); },
        "eval.vli");
    const double scale = tables_.at(level).m2l_scale;
    pool_->parallel_for(
        vli_.tgt.size(), kFftSlotGrain,
        [&](std::size_t b, std::size_t e, int lane) {
          vli_inverse(vli_, b, e, scale, lane);
        },
        "eval.vli");
  }
}

void Evaluator::xli(bool include_leaves) {
  const auto& kern = tables_.kernel();
  const std::size_t clen = tables_.check_len();
  std::atomic<std::uint64_t> flops{0};
  pool_->parallel_for(
      let_.nodes.size(), kNodeGrain,
      [&](std::size_t b, std::size_t e, int lane) {
        std::uint64_t local = 0;
        for (std::size_t i = b; i < e; ++i) {
          const LetNode& node = let_.nodes[i];
          if (!node.target) continue;
          if (!include_leaves && node.global_leaf) continue;
          const auto list = let_.x.of(i);
          if (list.empty()) continue;
          const auto dc = box_surf(kDownCheckRadius, node.key, lane);
          std::span<double> out(checkpot_.data() + i * clen, clen);
          for (auto si : list)
            local += kern.direct(dc, leaf_source_positions(si),
                                 leaf_source_densities(si), out);
        }
        flops.fetch_add(local, std::memory_order_relaxed);
      },
      "eval.xli");
  ctx_.flops.add("eval.xli", flops.load(std::memory_order_relaxed));
}

void Evaluator::downward() {
  // Coarsest level first: a level's check potentials receive L2L from
  // already-finalized parent densities (one batch per child index), then
  // ONE dc2de conversion finalizes the level's own densities.
  for (int level = min_level_; level <= max_level_; ++level) {
    if (level_nodes_[level].empty()) continue;
    if (level > min_level_) {
      const LevelOps pair_ops = tables_.at(level - 1);
      for (int ci = 0; ci < 8; ++ci) {
        const ChildBatch batch = child_batch(level, ci);
        if (batch.child.empty()) continue;
        gemm_batched((*pair_ops.l2l_t)[ci], pair_ops.l2l_scale, d_,
                     batch.parent, checkpot_, batch.child, "eval.down");
      }
    }

    slots_a_.clear();
    for (auto i : level_nodes_[level])
      if (let_.nodes[i].target) slots_a_.push_back(i);
    if (slots_a_.empty()) continue;
    const LevelOps ops = tables_.at(level);
    gemm_batched(*ops.dc2de_t, ops.dc2de_scale, checkpot_, slots_a_, d_,
                 slots_a_, "eval.down");
  }
}

void Evaluator::wli() {
  const auto& kern = tables_.kernel();
  const std::size_t elen = tables_.eq_len();
  std::atomic<std::uint64_t> flops{0};
  pool_->parallel_for(
      let_.nodes.size(), kNodeGrain,
      [&](std::size_t b, std::size_t e, int lane) {
        std::uint64_t local = 0;
        for (std::size_t i = b; i < e; ++i) {
          const LetNode& node = let_.nodes[i];
          if (!(node.owned && node.global_leaf) || node.target_count == 0)
            continue;
          const auto list = let_.w.of(i);
          if (list.empty()) continue;
          const auto trg = leaf_target_positions(node);
          auto out = leaf_target_potential(node);
          for (auto si : list) {
            const auto ue =
                box_surf(kUpwardEquivRadius, let_.nodes[si].key, lane);
            local += kern.direct(
                trg, ue,
                std::span<const double>(u_.data() + std::size_t(si) * elen,
                                        elen),
                out);
          }
        }
        flops.fetch_add(local, std::memory_order_relaxed);
      },
      "eval.wli");
  ctx_.flops.add("eval.wli", flops.load(std::memory_order_relaxed));
}

void Evaluator::d2t() {
  const auto& kern = tables_.kernel();
  const std::size_t elen = tables_.eq_len();
  std::atomic<std::uint64_t> flops{0};
  pool_->parallel_for(
      let_.nodes.size(), kNodeGrain,
      [&](std::size_t b, std::size_t e, int lane) {
        std::uint64_t local = 0;
        for (std::size_t i = b; i < e; ++i) {
          const LetNode& node = let_.nodes[i];
          if (!(node.owned && node.global_leaf) || node.target_count == 0)
            continue;
          const auto de = box_surf(kDownEquivRadius, node.key, lane);
          local += kern.direct(
              leaf_target_positions(node), de,
              std::span<const double>(d_.data() + i * elen, elen),
              leaf_target_potential(node));
        }
        flops.fetch_add(local, std::memory_order_relaxed);
      },
      "eval.d2t");
  ctx_.flops.add("eval.d2t", flops.load(std::memory_order_relaxed));
}

void Evaluator::uli() {
  if (!uli_started_) uli_start();
  uli_join();
}

void Evaluator::uli_start() {
  PKIFMM_CHECK(!uli_started_);
  uli_started_ = true;
  f_uli_.assign(f_.size(), 0.0);
  uli_plan();
  uli_flops_.store(0, std::memory_order_relaxed);
  uli_w0_ = obs::wall_seconds();
  const std::size_t n = let_.nodes.size();
  for (std::size_t b = 0; b < n; b += kNodeGrain) {
    const std::size_t e = std::min(n, b + kNodeGrain);
    pool_->submit(uli_group_, "eval.uli",
                  [this, b, e](int lane) { uli_chunk(b, e, lane); });
  }
}

void Evaluator::uli_plan() {
  const std::size_t nn = let_.nodes.size();
  uli_act_.assign(let_.u.items.size(), kUliOneWay);
  uli_fold_.clear();
  // Leaves whose points are all both targets and sources: their target
  // and source spans hold the same points in the same order.
  auto mutual = [&](std::size_t i) {
    const LetNode& n = let_.nodes[i];
    return n.owned && n.global_leaf && n.point_count > 0 &&
           n.target_count == n.point_count &&
           src_offset_[i + 1] - src_offset_[i] == n.point_count;
  };
  std::vector<std::int32_t> far_chunk(nn, -1), far_row(nn, 0);
  std::size_t rows = 0;
  for (std::size_t a = 0; a < nn; ++a) {
    if (!mutual(a)) continue;
    const std::size_t chunk = a / kNodeGrain;
    const std::size_t chunk_end = std::min(nn, (chunk + 1) * kNodeGrain);
    const auto list = let_.u.of(a);
    std::int32_t* act = uli_act_.data() + let_.u.offset[a];
    for (std::size_t k = 0; k < list.size(); ++k) {
      const auto b = static_cast<std::size_t>(list[k]);
      // Self pairs stay one-way; lower partners have already marked
      // this entry kUliSkip if their tile covers it.
      if (b <= a || !mutual(b)) continue;
      const auto mirror = let_.u.of(b);
      const auto it = std::find(mirror.begin(), mirror.end(),
                                static_cast<std::int32_t>(a));
      if (it == mirror.end()) continue;  // no mirror entry: one-way
      uli_act_[let_.u.offset[b] + (it - mirror.begin())] = kUliSkip;
      if (b < chunk_end) {
        act[k] = kUliNear;
        continue;
      }
      if (far_chunk[b] != static_cast<std::int32_t>(chunk)) {
        PKIFMM_CHECK(rows <= std::size_t(INT32_MAX));
        far_chunk[b] = static_cast<std::int32_t>(chunk);
        far_row[b] = static_cast<std::int32_t>(rows);
        uli_fold_.emplace_back(static_cast<std::int32_t>(b), far_row[b]);
        rows += let_.nodes[b].target_count;
      }
      act[k] = far_row[b];
    }
  }
  uli_far_.assign(rows * tables_.tdim(), 0.0);
}

void Evaluator::uli_chunk(std::size_t b, std::size_t e, int /*lane*/) {
  const auto& kern = tables_.kernel();
  const std::size_t td = tables_.tdim();
  std::uint64_t local = 0;
  for (std::size_t i = b; i < e; ++i) {
    const LetNode& node = let_.nodes[i];
    if (!(node.owned && node.global_leaf) || node.target_count == 0) continue;
    const auto trg = leaf_target_positions(node);
    std::span<double> out(f_uli_.data() + node.point_begin * td,
                          node.target_count * td);
    const auto list = let_.u.of(i);
    const std::int32_t* act = uli_act_.data() + let_.u.offset[i];
    for (std::size_t k = 0; k < list.size(); ++k) {
      const std::int32_t si = list[k];
      if (act[k] == kUliSkip) continue;
      if (act[k] == kUliOneWay) {
        local += kern.direct(trg, leaf_source_positions(si),
                             leaf_source_densities(si), out);
        continue;
      }
      // A mutual tile: this leaf is A, si is B, a later node.
      const LetNode& sn = let_.nodes[si];
      double* fb = act[k] == kUliNear
                       ? f_uli_.data() + sn.point_begin * td
                       : uli_far_.data() + std::size_t(act[k]) * td;
      local += kern.direct_mutual(trg, leaf_source_densities(i), out,
                                  leaf_source_positions(si),
                                  leaf_source_densities(si),
                                  {fb, sn.target_count * td});
    }
  }
  uli_flops_.fetch_add(local, std::memory_order_relaxed);
}

void Evaluator::uli_join() {
  PKIFMM_CHECK(uli_started_);
  const double join0 = obs::wall_seconds();
  pool_->wait(uli_group_);
  uli_started_ = false;
  ctx_.flops.add("eval.uli", uli_flops_.load(std::memory_order_relaxed));
  // Deterministic merge: each chunk summed its targets in its serial
  // node order inside f_uli_ and its partners' sides in its own rows of
  // uli_far_, whichever lane ran it; the far rows fold in chunk order,
  // so f_ is identical for any worker count.
  const std::size_t td = tables_.tdim();
  for (const auto& [node, row] : uli_fold_) {
    const LetNode& n = let_.nodes[node];
    double* dst = f_uli_.data() + n.point_begin * td;
    const double* src = uli_far_.data() + std::size_t(row) * td;
    for (std::size_t k = 0; k < n.target_count * td; ++k) dst[k] += src[k];
  }
  for (std::size_t k = 0; k < f_.size(); ++k) f_[k] += f_uli_[k];
  // Overlap accounting: busy = total ULI execution time on any lane
  // since submission; overlap = the part that ran before the join
  // started, i.e. concurrently with the far-field pipeline.
  const double inf = std::numeric_limits<double>::infinity();
  const double busy = pool_->busy_overlap("eval.uli", uli_w0_, inf);
  const double overlap = pool_->busy_overlap("eval.uli", uli_w0_, join0);
  ctx_.rec.counter_add("sched.uli.busy_seconds", busy);
  ctx_.rec.counter_add("sched.uli.overlap_seconds", overlap);
}

std::vector<double> Evaluator::target_gradient() {
  const auto grad = tables_.kernel().gradient();
  PKIFMM_CHECK_MSG(grad != nullptr,
                   "kernel '" << tables_.kernel().name()
                              << "' has no gradient companion");
  const int gd = grad->target_dim();
  std::vector<double> g(let_.points.size() * gd, 0.0);

  for (std::size_t i = 0; i < let_.nodes.size(); ++i) {
    const LetNode& node = let_.nodes[i];
    if (!(node.owned && node.global_leaf) || node.target_count == 0) continue;
    const auto trg = leaf_target_positions(node);
    std::span<double> out(g.data() + std::size_t(node.point_begin) * gd,
                          std::size_t(node.target_count) * gd);

    // Direct (U-list) gradients.
    for (auto si : let_.u.of(i)) {
      ctx_.flops.add("grad.uli",
                     grad->direct(trg, leaf_source_positions(si),
                                  leaf_source_densities(si), out));
    }
    // W-list: gradients of the members' upward equivalent fields.
    for (auto si : let_.w.of(i)) {
      const auto ue = box_surf(kUpwardEquivRadius, let_.nodes[si].key, 0);
      ctx_.flops.add(
          "grad.wli",
          grad->direct(trg, ue,
                       std::span<const double>(
                           u_.data() + std::size_t(si) * tables_.eq_len(),
                           tables_.eq_len()),
                       out));
    }
    // Far field (V + X + coarser levels) through the box's downward
    // equivalent density.
    const auto de = box_surf(kDownEquivRadius, node.key, 0);
    ctx_.flops.add(
        "grad.d2t",
        grad->direct(trg, de,
                     std::span<const double>(d_.data() + i * tables_.eq_len(),
                                             tables_.eq_len()),
                     out));
  }
  return g;
}

std::vector<double> leaf_work_estimates(const Tables& tables,
                                        const octree::Let& let) {
  const std::uint64_t kflops = tables.kernel().flops_per_interaction();
  const int m = tables.m();
  const Tables::VliFlops& vf = tables.vli_flops();

  // Source counts per node (targets and sources may differ per point).
  std::vector<double> nsrc(let.nodes.size(), 0.0);
  for (std::size_t i = 0; i < let.nodes.size(); ++i)
    for (const octree::PointRec& pt : let.points_of(let.nodes[i]))
      if (pt.is_source()) nsrc[i] += 1.0;

  std::vector<double> weights;
  for (std::size_t i = 0; i < let.nodes.size(); ++i) {
    const octree::LetNode& node = let.nodes[i];
    if (!(node.owned && node.global_leaf)) continue;
    const double ntrg = node.target_count;
    double w = 0.0;
    for (auto si : let.u.of(i)) w += ntrg * nsrc[si] * kflops;
    // V (Tables::vli_flops): per-pair diagonal multiply over the half
    // spectrum, plus the target side's c2r and the source side's r2c
    // transforms. The forward charge is deliberately a function of the
    // leaf alone (not of how many targets consume its spectrum): the
    // weights must be identical no matter which rank currently owns
    // which leaf, so that the weighted partition is a pure function of
    // the global tree — the incremental setup path maintains that
    // partition step by step and relies on reproducing it exactly.
    const auto vlist = let.v.of(i);
    w += double(vlist.size()) * double(vf.mac_per_pair);
    if (!vlist.empty())
      w += double(vf.fwd_per_source) + double(vf.inv_per_target);
    w += double(let.w.of(i).size()) * ntrg * m * kflops;
    for (auto si : let.x.of(i)) w += nsrc[si] * m * kflops;
    // S2U + D2T per-leaf work.
    w += (nsrc[i] + ntrg) * m * kflops;
    weights.push_back(w);
  }
  return weights;
}

}  // namespace pkifmm::core
