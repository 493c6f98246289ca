#include "core/tables.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>

#include "core/surface.hpp"
#include "la/svd.hpp"
#include "util/check.hpp"

namespace pkifmm::core {

int offset_index(int dx, int dy, int dz) {
  PKIFMM_DCHECK(dx >= -3 && dx <= 3 && dy >= -3 && dy <= 3 && dz >= -3 &&
                dz <= 3);
  return ((dx + 3) * 7 + (dy + 3)) * 7 + (dz + 3);
}

bool is_vlist_offset(int dx, int dy, int dz) {
  const int c = std::max({std::abs(dx), std::abs(dy), std::abs(dz)});
  return c >= 2 && c <= 3;
}

namespace {

/// Child-center displacement signs for Morton child index i
/// (bit 0 = x, bit 1 = y, bit 2 = z, matching morton::child).
std::array<double, 3> child_center(int i, double parent_half) {
  const double q = 0.5 * parent_half;
  return {(i & 1) ? q : -q, (i & 2) ? q : -q, (i & 4) ? q : -q};
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
  PKIFMM_CHECK_MSG(
      std::isfinite(opts.health_drift_ratio) && opts.health_drift_ratio > 1.0,
      "health_drift_ratio must be finite and > 1");
}

}  // namespace

Tables Tables::with_options(const FmmOptions& opts) const {
  PKIFMM_CHECK_MSG(
      opts.surface_n == opts_.surface_n &&
          opts.upward_equiv_radius == opts_.upward_equiv_radius &&
          opts.upward_check_radius == opts_.upward_check_radius &&
          opts.down_equiv_radius == opts_.down_equiv_radius &&
          opts.down_check_radius == opts_.down_check_radius &&
          opts.pinv_cutoff == opts_.pinv_cutoff,
      "with_options may not change geometry-affecting fields");
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

  const auto ue = surface_points(n, opts_.upward_equiv_radius, origin, half);
  const auto uc = surface_points(n, opts_.upward_check_radius, origin, half);
  const auto de = surface_points(n, opts_.down_equiv_radius, origin, half);
  const auto dc = surface_points(n, opts_.down_check_radius, origin, half);

  auto t = std::make_unique<LevelTables>();
  t->uc2ue = la::pinv(kernel_.assemble(uc, ue), opts_.pinv_cutoff);
  t->dc2de = la::pinv(kernel_.assemble(dc, de), opts_.pinv_cutoff);

  const double child_half = 0.5 * half;
  for (int i = 0; i < 8; ++i) {
    const auto cc = child_center(i, half);
    const auto ue_child =
        surface_points(n, opts_.upward_equiv_radius, cc, child_half);
    t->m2m[i] = la::gemm(t->uc2ue, kernel_.assemble(uc, ue_child));
    const auto dc_child =
        surface_points(n, opts_.down_check_radius, cc, child_half);
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
  const double h = surface_spacing(n, opts_.upward_equiv_radius, half);
  PKIFMM_CHECK(opts_.upward_equiv_radius == opts_.down_check_radius);
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

la::Matrix Tables::build_dense(int level, int off_index) const {
  int dx, dy, dz;
  decode_offset(off_index, dx, dy, dz);
  PKIFMM_CHECK(is_vlist_offset(dx, dy, dz));
  const int n = opts_.surface_n;
  const double half = 0.5 * std::pow(2.0, -level);
  const double box = 2.0 * half;
  const std::array<double, 3> src_center = {0, 0, 0};
  const std::array<double, 3> trg_center = {dx * box, dy * box, dz * box};
  const auto ue = surface_points(n, opts_.upward_equiv_radius, src_center, half);
  const auto dc = surface_points(n, opts_.down_check_radius, trg_center, half);
  return kernel_.assemble(dc, ue);
}

namespace {

// "pkifmmTC": half-spectrum layout. "pkifmmTB" files (full N^3 complex
// spectra on a power-of-two grid) are rejected by the magic check.
constexpr std::uint64_t kCacheMagic = 0x706b69666d6d5443ull;

template <typename T>
void put(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool get(std::istream& is, T& v) {
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  return bool(is);
}

void put_matrix(std::ostream& os, const la::Matrix& m) {
  put(os, static_cast<std::uint64_t>(m.rows()));
  put(os, static_cast<std::uint64_t>(m.cols()));
  os.write(reinterpret_cast<const char*>(m.data()),
           std::streamsize(m.rows() * m.cols() * sizeof(double)));
}

bool get_matrix(std::istream& is, la::Matrix& m) {
  std::uint64_t r = 0, c = 0;
  if (!get(is, r) || !get(is, c)) return false;
  if (r > (1u << 20) || c > (1u << 20)) return false;  // sanity bound
  m = la::Matrix(r, c);
  is.read(reinterpret_cast<char*>(m.data()),
          std::streamsize(r * c * sizeof(double)));
  return bool(is);
}

}  // namespace

std::size_t Tables::save_cache(const std::string& path) const {
  std::lock_guard<std::mutex> lock(cache_->mu);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  PKIFMM_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");

  put(os, kCacheMagic);
  const std::string kname = kernel_.name();
  put(os, static_cast<std::uint32_t>(kname.size()));
  os.write(kname.data(), std::streamsize(kname.size()));
  put(os, static_cast<std::int32_t>(opts_.surface_n));
  put(os, opts_.upward_equiv_radius);
  put(os, opts_.upward_check_radius);
  put(os, opts_.down_equiv_radius);
  put(os, opts_.down_check_radius);
  put(os, opts_.pinv_cutoff);

  put(os, static_cast<std::uint64_t>(cache_->levels.size()));
  for (const auto& [level, t] : cache_->levels) {
    put(os, static_cast<std::int32_t>(level));
    put_matrix(os, t->uc2ue);
    put_matrix(os, t->dc2de);
    for (const auto& m : t->m2m) put_matrix(os, m);
    for (const auto& m : t->l2l) put_matrix(os, m);
  }
  put(os, static_cast<std::uint64_t>(cache_->spectra.size()));
  for (const auto& [key, spec] : cache_->spectra) {
    put(os, static_cast<std::int32_t>(key.first));
    put(os, static_cast<std::int32_t>(key.second));
    put(os, static_cast<std::uint64_t>(spec.size()));
    os.write(reinterpret_cast<const char*>(spec.data()),
             std::streamsize(spec.size() * sizeof(fft::Complex)));
  }
  PKIFMM_CHECK_MSG(os.good(), "write to '" << path << "' failed");
  return static_cast<std::size_t>(os.tellp());
}

bool Tables::load_cache(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;

  std::uint64_t magic = 0;
  if (!get(is, magic) || magic != kCacheMagic) return false;
  std::uint32_t klen = 0;
  if (!get(is, klen) || klen > 64) return false;
  std::string kname(klen, '\0');
  is.read(kname.data(), klen);
  std::int32_t sn = 0;
  double r1, r2, r3, r4, cutoff;
  if (!get(is, sn) || !get(is, r1) || !get(is, r2) || !get(is, r3) ||
      !get(is, r4) || !get(is, cutoff))
    return false;
  if (kname != kernel_.name() || sn != opts_.surface_n ||
      r1 != opts_.upward_equiv_radius || r2 != opts_.upward_check_radius ||
      r3 != opts_.down_equiv_radius || r4 != opts_.down_check_radius ||
      cutoff != opts_.pinv_cutoff)
    return false;

  // Stage everything, then commit under the lock.
  std::map<int, std::unique_ptr<LevelTables>> levels;
  std::uint64_t nlevels = 0;
  if (!get(is, nlevels) || nlevels > 1024) return false;
  for (std::uint64_t i = 0; i < nlevels; ++i) {
    std::int32_t level = 0;
    if (!get(is, level)) return false;
    auto t = std::make_unique<LevelTables>();
    if (!get_matrix(is, t->uc2ue) || !get_matrix(is, t->dc2de)) return false;
    for (auto& m : t->m2m)
      if (!get_matrix(is, m)) return false;
    for (auto& m : t->l2l)
      if (!get_matrix(is, m)) return false;
    levels.emplace(level, std::move(t));
  }
  std::map<std::pair<int, int>, std::vector<fft::Complex>> spectra;
  std::uint64_t nspec = 0;
  if (!get(is, nspec) || nspec > (1u << 20)) return false;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(tdim_) * sdim_ * spectrum_len();
  for (std::uint64_t i = 0; i < nspec; ++i) {
    std::int32_t level = 0, off = 0;
    std::uint64_t count = 0;
    if (!get(is, level) || !get(is, off) || !get(is, count)) return false;
    // Every entry must be a full operator at a legal V-list offset: a
    // short one would make m2l_spectra return a truncated span that the
    // MAC sweep reads past.
    if (level < 0 || off < 0 || off >= 7 * 7 * 7 || count != expected)
      return false;
    int dx, dy, dz;
    decode_offset(off, dx, dy, dz);
    if (!is_vlist_offset(dx, dy, dz)) return false;
    std::vector<fft::Complex> spec(count);
    is.read(reinterpret_cast<char*>(spec.data()),
            std::streamsize(count * sizeof(fft::Complex)));
    if (!is) return false;
    spectra.emplace(std::make_pair(level, off), std::move(spec));
  }

  std::lock_guard<std::mutex> lock(cache_->mu);
  cache_->levels = std::move(levels);
  cache_->spectra = std::move(spectra);
  return true;
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
