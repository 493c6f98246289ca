#include "obs/health.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>

namespace pkifmm::obs {

double bytes_digest(const void* data, std::size_t n) {
  // FNV-1a over bytes, then the same 32-bits-as-double finalization as
  // ChunkDigest so per-message digests sum exactly as counters.
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ULL;
  }
  return static_cast<double>(splitmix64(h) >> 32);
}

std::size_t nonfinite_count(std::span<const double> v) {
  std::size_t n = 0;
  for (double x : v) {
    if (!std::isfinite(x)) ++n;
  }
  return n;
}

// ---------------------------------------------------- fault injection

std::optional<Injection> parse_injection(const std::string& spec) {
  const std::size_t c1 = spec.find(':');
  if (c1 == std::string::npos) return std::nullopt;
  const std::size_t c2 = spec.find(':', c1 + 1);
  if (c2 == std::string::npos) return std::nullopt;

  const std::string phase = spec.substr(0, c1);
  const std::string rank_s = spec.substr(c1 + 1, c2 - c1 - 1);
  const std::string what = spec.substr(c2 + 1);

  Injection inj;
  if (phase == "s2u") {
    inj.phase = InjectPhase::kS2u;
  } else if (phase == "reduce") {
    inj.phase = InjectPhase::kReduce;
  } else if (phase == "d2t") {
    inj.phase = InjectPhase::kD2t;
  } else if (phase == "ghost") {
    inj.phase = InjectPhase::kGhost;
  } else {
    return std::nullopt;
  }

  if (rank_s.empty()) return std::nullopt;
  int rank = 0;
  for (char ch : rank_s) {
    if (ch < '0' || ch > '9') return std::nullopt;
    rank = rank * 10 + (ch - '0');
  }
  inj.rank = rank;

  if (what == "nan") {
    inj.bit = -1;
  } else {
    if (what.empty()) return std::nullopt;
    int bit = 0;
    for (char ch : what) {
      if (ch < '0' || ch > '9') return std::nullopt;
      bit = bit * 10 + (ch - '0');
    }
    if (bit > 63) return std::nullopt;
    inj.bit = bit;
  }
  return inj;
}

namespace {

std::mutex g_inj_mutex;
bool g_inj_env_read = false;
std::optional<Injection> g_injection;

/// The active injection: the test override if set, else the parsed
/// PKIFMM_INJECT_CORRUPTION env var (read once), else nullopt.
std::optional<Injection> current_injection() {
  std::lock_guard<std::mutex> lk(g_inj_mutex);
  if (!g_inj_env_read) {
    g_inj_env_read = true;
    if (const char* env = std::getenv("PKIFMM_INJECT_CORRUPTION")) {
      g_injection = parse_injection(env);
    }
  }
  return g_injection;
}

}  // namespace

void set_injection(std::optional<Injection> inj) {
  std::lock_guard<std::mutex> lk(g_inj_mutex);
  g_injection = inj;
  g_inj_env_read = true;  // tests own the slot; skip the env from now on
}

bool maybe_inject(InjectPhase phase, int rank, std::span<double> chunk) {
  if (chunk.empty()) return false;
  const std::optional<Injection> inj = current_injection();
  if (!inj || inj->phase != phase || inj->rank != rank) return false;
  double& v = chunk[0];
  if (inj->bit < 0) {
    v = std::numeric_limits<double>::quiet_NaN();
  } else {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits ^= (1ULL << inj->bit);
    std::memcpy(&v, &bits, sizeof(v));
  }
  return true;
}

}  // namespace pkifmm::obs
