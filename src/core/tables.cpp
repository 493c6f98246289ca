#include "core/tables.hpp"

#include <cmath>
#include <cstdint>

#include "core/surface.hpp"
#include "la/svd.hpp"
#include "util/check.hpp"

namespace pkifmm::core {

int offset_index(int dx, int dy, int dz) {
  PKIFMM_DCHECK(dx >= -3 && dx <= 3 && dy >= -3 && dy <= 3 && dz >= -3 &&
                dz <= 3);
  return ((dx + 3) * 7 + (dy + 3)) * 7 + (dz + 3);
}

int vlist_offset_index(const morton::Key& target,
                       const morton::Key& source) {
  PKIFMM_DCHECK(target.level == source.level);
  const auto ta = morton::anchor(target);
  const auto sa = morton::anchor(source);
  // Same-level anchors are multiples of the side 2^shift, so the
  // arithmetic shift divides exactly.
  const int shift = morton::kMaxDepth - target.level;
  const auto d = [&](int c) {
    return static_cast<int>(
        (static_cast<std::int64_t>(ta[c]) - static_cast<std::int64_t>(sa[c])) >>
        shift);
  };
  return offset_index(d(0), d(1), d(2));
}

bool is_vlist_offset(int dx, int dy, int dz) {
  const int c = std::max({std::abs(dx), std::abs(dy), std::abs(dz)});
  return c >= 2 && c <= 3;
}

void AlignedBuffer::resize(std::size_t n) {
  if (n <= capacity()) return;
  // Plain malloc, aligned by hand: std::aligned_alloc of the V-list's
  // buffers raised uniform_farfield's peak RSS by 30-60 MiB.
  const std::size_t bytes = n * sizeof(double) + kAlign;
  raw_.reset(static_cast<char*>(std::malloc(bytes)));
  PKIFMM_CHECK_MSG(raw_ != nullptr, "out of memory: " << bytes << " bytes");
  cap_ = n;
}

namespace {

/// Relative singular-value cutoff of the equivalent-density solves.
constexpr double kPinvCutoff = 1e-12;

/// Child-center displacement signs for Morton child index i
/// (bit 0 = x, bit 1 = y, bit 2 = z, matching morton::child).
std::array<double, 3> child_center(int i, double parent_half) {
  const double q = 0.5 * parent_half;
  return {(i & 1) ? q : -q, (i & 2) ? q : -q, (i & 4) ? q : -q};
}

/// True iff b is a's transpose, bit for bit.
bool is_transpose(const la::Matrix& a, const la::Matrix& b) {
  if (a.rows() != b.cols() || a.cols() != b.rows()) return false;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (a(i, j) != b(j, i)) return false;
  return true;
}

void decode_offset(int off, int& dx, int& dy, int& dz) {
  dz = off % 7 - 3;
  dy = (off / 7) % 7 - 3;
  dx = off / 49 - 3;
}

/// Non-geometry option validation, shared by the Tables ctor and
/// with_options so an invalid configuration is rejected wherever a
/// usable FmmOptions enters the system (mirrors the set_densities
/// rejection style).
void validate_options(const FmmOptions& opts) {
  PKIFMM_CHECK_MSG(std::isfinite(opts.health_sample_rate) &&
                       opts.health_sample_rate >= 0.0 &&
                       opts.health_sample_rate <= 1.0,
                   "health_sample_rate must be a finite fraction in [0, 1]");
  PKIFMM_CHECK_MSG(!opts.health_fatal || opts.health,
                   "health_fatal requires health");
  PKIFMM_CHECK_MSG(opts.flow_capacity >= 1,
                   "flow_capacity must be at least 1, got "
                       << opts.flow_capacity);
}

}  // namespace

int vlist_offset_slot(int off) {
  static const auto slots = [] {
    std::array<std::int32_t, kNumOffsets> s{};
    int next = 0;
    for (int o = 0; o < kNumOffsets; ++o) {
      int dx = 0, dy = 0, dz = 0;
      decode_offset(o, dx, dy, dz);
      s[o] = is_vlist_offset(dx, dy, dz) ? next++ : -1;
    }
    return s;
  }();
  PKIFMM_DCHECK(off >= 0 && off < kNumOffsets);
  return slots[off];
}

const std::array<std::int32_t, 27 * 64>& vli_pair_slots() {
  static const auto table = [] {
    std::array<std::int32_t, 27 * 64> t;
    t.fill(-1);
    for (int dir = 0; dir < 27; ++dir) {
      if (dir == 13) continue;
      const int d[3] = {dir / 9 - 1, dir / 3 % 3 - 1, dir % 3 - 1};
      for (int cs = 0; cs < 8; ++cs)
        for (int ct = 0; ct < 8; ++ct) {
          int o[3];
          for (int a = 0; a < 3; ++a)
            o[a] = -2 * d[a] + ((ct >> a) & 1) - ((cs >> a) & 1);
          if (is_vlist_offset(o[0], o[1], o[2]))
            t[64 * dir + 8 * cs + ct] =
                vlist_offset_slot(offset_index(o[0], o[1], o[2]));
        }
    }
    return t;
  }();
  return table;
}

Tables Tables::with_options(const FmmOptions& opts) const {
  PKIFMM_CHECK_MSG(opts.surface_n == opts_.surface_n,
                   "with_options may not change surface_n");
  validate_options(opts);
  Tables t = *this;
  t.opts_ = opts;
  return t;
}

Tables::Tables(const kernels::Kernel& kernel, const FmmOptions& opts)
    : kernel_(kernel), opts_(opts) {
  PKIFMM_CHECK(opts.surface_n >= 3);
  validate_options(opts);
  m_ = surface_point_count(opts.surface_n);
  sdim_ = kernel.source_dim();
  tdim_ = kernel.target_dim();
  cache_ = std::make_shared<Cache>();

  const std::size_t n = static_cast<std::size_t>(opts.surface_n);
  fft_ = std::make_shared<fft::Fft3d>(fft::smooth_size(2 * n - 1));
  spectrum_len_ = (fft_->half_volume() + kFreqChunk - 1) / kFreqChunk *
                  kFreqChunk;
  const std::uint64_t real_flops = fft_->real_transform_flops(n);
  vli_flops_ = {8ull * tdim_ * sdim_ * spectrum_len_, sdim_ * real_flops,
                tdim_ * real_flops};

  const auto& lattice = surface_lattice(opts.surface_n);
  embed_.reserve(lattice.size());
  for (const auto& ijk : lattice)
    embed_.push_back(static_cast<int>(
        (static_cast<std::size_t>(ijk[2]) * n + ijk[1]) * n + ijk[0]));

  // Eagerly build the reference level so concurrent ranks never race on
  // the most commonly used entry.
  level_tables(0);
}

std::unique_ptr<Tables::LevelTables> Tables::build_level(int level) const {
  const double half = 0.5 * std::pow(2.0, -level);
  const std::array<double, 3> origin = {0.0, 0.0, 0.0};
  const int n = opts_.surface_n;

  const auto ue = surface_points(n, kUpwardEquivRadius, origin, half);
  const auto uc = surface_points(n, kUpwardCheckRadius, origin, half);
  const auto de = surface_points(n, kDownEquivRadius, origin, half);
  const auto dc = surface_points(n, kDownCheckRadius, origin, half);

  const la::Matrix k_up = kernel_.assemble(uc, ue);
  PKIFMM_CHECK_MSG(is_transpose(kernel_.assemble(dc, de), k_up),
                   "K(dc, de) is not K(uc, ue)^T bit for bit: the kernel is "
                   "not symmetric, K(x, y) != K(y, x)^T");
  auto t = std::make_unique<LevelTables>();
  t->uc2ue = la::pinv(k_up, kPinvCutoff);
  t->dc2de = t->uc2ue.transposed();

  const double child_half = 0.5 * half;
  for (int i = 0; i < 8; ++i) {
    const auto cc = child_center(i, half);
    const auto ue_child =
        surface_points(n, kUpwardEquivRadius, cc, child_half);
    t->m2m[i] = la::gemm(t->uc2ue, kernel_.assemble(uc, ue_child));
    const auto dc_child =
        surface_points(n, kDownCheckRadius, cc, child_half);
    t->l2l[i] = kernel_.assemble(dc_child, de);
  }
  return t;
}

const Tables::LevelTables& Tables::level_tables(int level) const {
  const int key = kernel_.homogeneous() ? 0 : level;
  std::lock_guard<std::mutex> lock(cache_->mu);
  auto it = cache_->levels.find(key);
  if (it == cache_->levels.end())
    it = cache_->levels.emplace(key, build_level(key)).first;
  return *it->second;
}

LevelOps Tables::at(int level) const {
  const LevelTables& t = level_tables(level);
  LevelOps ops;
  ops.uc2ue = &t.uc2ue;
  ops.dc2de = &t.dc2de;
  ops.m2m = &t.m2m;
  ops.l2l = &t.l2l;
  if (kernel_.homogeneous()) {
    const double deg = kernel_.homogeneity_degree();
    ops.uc2ue_scale = std::pow(2.0, level * deg);
    ops.dc2de_scale = ops.uc2ue_scale;
    ops.m2l_scale = std::pow(2.0, -level * deg);
    ops.l2l_scale = ops.m2l_scale;
  } else {
    ops.uc2ue_scale = ops.dc2de_scale = 1.0;
    ops.m2l_scale = ops.l2l_scale = 1.0;
  }
  return ops;
}

std::vector<fft::Complex> Tables::build_spectra(int level,
                                                int off_index) const {
  int dx, dy, dz;
  decode_offset(off_index, dx, dy, dz);
  PKIFMM_CHECK_MSG(is_vlist_offset(dx, dy, dz),
                   "not a V-list offset: " << dx << "," << dy << "," << dz);

  const int n = opts_.surface_n;
  const double half = 0.5 * std::pow(2.0, -level);
  const double h = surface_spacing(n, kUpwardEquivRadius, half);
  const double box = 2.0 * half;

  const std::size_t grid = fft_n();
  const std::size_t vol = fft_volume();
  const std::size_t ncomp = static_cast<std::size_t>(tdim_) * sdim_;
  std::vector<double> kvol(ncomp * vol, 0.0);

  // K(t_phys + d*h) for lattice displacements d in [-(n-1), n-1]^3,
  // wrapped circularly into the N^3 grid (N >= 2n-1: no two collide).
  double blk[9];
  for (int ddz = -(n - 1); ddz <= n - 1; ++ddz)
    for (int ddy = -(n - 1); ddy <= n - 1; ++ddy)
      for (int ddx = -(n - 1); ddx <= n - 1; ++ddx) {
        const double d[3] = {dx * box + ddx * h, dy * box + ddy * h,
                             dz * box + ddz * h};
        kernel_.block(d, blk);
        const std::size_t ix = (ddx + grid) % grid;
        const std::size_t iy = (ddy + grid) % grid;
        const std::size_t iz = (ddz + grid) % grid;
        const std::size_t cell = (iz * grid + iy) * grid + ix;
        for (std::size_t c = 0; c < ncomp; ++c) kvol[c * vol + cell] = blk[c];
      }

  const std::size_t len = spectrum_len();
  std::vector<fft::Complex> out(ncomp * len, fft::Complex(0, 0));
  for (std::size_t c = 0; c < ncomp; ++c)
    fft_->forward_r2c(std::span<const double>(kvol.data() + c * vol, vol),
                      grid,
                      std::span<fft::Complex>(out.data() + c * len,
                                              fft_->half_volume()));
  return out;
}

std::span<const fft::Complex> Tables::m2l_spectra(int level,
                                                  int off_index) const {
  const int key = kernel_.homogeneous() ? 0 : level;
  std::lock_guard<std::mutex> lock(cache_->mu);
  auto it = cache_->spectra.find({key, off_index});
  if (it == cache_->spectra.end())
    it = cache_->spectra
             .emplace(std::make_pair(key, off_index),
                      build_spectra(key, off_index))
             .first;
  return it->second;
}

std::vector<AlignedBuffer> Tables::build_vli_blocks(int level) const {
  PKIFMM_CHECK_MSG(sdim_ <= 3, "the FFT V-list takes source_dim <= 3, got "
                                   << sdim_);
  constexpr std::size_t kB = simd::kVliBlock;
  const std::size_t ncomp = static_cast<std::size_t>(tdim_) * sdim_;
  const std::size_t len = spectrum_len();
  std::vector<AlignedBuffer> blocks(len / kB);
  for (AlignedBuffer& b : blocks)
    b.resize(kNumVlistOffsets * ncomp * simd::kVliBlockDoubles);
  for (int off = 0; off < kNumOffsets; ++off) {
    const int slot = vlist_offset_slot(off);
    if (slot < 0) continue;
    const std::vector<fft::Complex> spec = build_spectra(level, off);
    for (std::size_t c = 0; c < ncomp; ++c)
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const fft::Complex* z = spec.data() + c * len + b * kB;
        double* out = blocks[b].data() +
                      (slot * ncomp + c) * simd::kVliBlockDoubles;
        for (std::size_t k = 0; k < kB; ++k) {
          out[k] = z[k].real();
          out[kB + k] = z[k].imag();
        }
      }
  }
  return blocks;
}

const std::vector<AlignedBuffer>& Tables::vli_operator_blocks(
    int level) const {
  const int key = kernel_.homogeneous() ? 0 : level;
  std::lock_guard<std::mutex> lock(cache_->mu);
  auto it = cache_->vli_blocks.find(key);
  if (it == cache_->vli_blocks.end())
    it = cache_->vli_blocks.emplace(key, build_vli_blocks(key)).first;
  return it->second;
}

la::Matrix Tables::build_dense(int level, int off_index) const {
  int dx, dy, dz;
  decode_offset(off_index, dx, dy, dz);
  PKIFMM_CHECK(is_vlist_offset(dx, dy, dz));
  const int n = opts_.surface_n;
  const double half = 0.5 * std::pow(2.0, -level);
  const double box = 2.0 * half;
  const std::array<double, 3> src_center = {0, 0, 0};
  const std::array<double, 3> trg_center = {dx * box, dy * box, dz * box};
  const auto ue = surface_points(n, kUpwardEquivRadius, src_center, half);
  const auto dc = surface_points(n, kDownCheckRadius, trg_center, half);
  return kernel_.assemble(dc, ue);
}

const la::Matrix& Tables::m2l_dense(int level, int off_index) const {
  const int key = kernel_.homogeneous() ? 0 : level;
  std::lock_guard<std::mutex> lock(cache_->mu);
  auto it = cache_->dense.find({key, off_index});
  if (it == cache_->dense.end())
    it = cache_->dense
             .emplace(std::make_pair(key, off_index),
                      std::make_unique<la::Matrix>(build_dense(key, off_index)))
             .first;
  return *it->second;
}

}  // namespace pkifmm::core
