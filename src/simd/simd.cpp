#include "simd/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "util/check.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define PKIFMM_SIMD_X86 1
#endif

namespace pkifmm::simd {

namespace {

bool cpu_supports(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return true;
#ifdef PKIFMM_SIMD_X86
    case Tier::kAvx2:
      // __builtin_cpu_supports folds in the OS XSAVE state checks.
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case Tier::kAvx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512dq");
#endif
    default:
      return false;
  }
}

const Ops* table_for(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return &detail::scalar_ops();
#ifdef PKIFMM_SIMD_HAVE_AVX2_TU
    case Tier::kAvx2:
      return &detail::avx2_ops();
#endif
#ifdef PKIFMM_SIMD_HAVE_AVX512_TU
    case Tier::kAvx512:
      return &detail::avx512_ops();
#endif
    default:
      return nullptr;
  }
}

/// detect_tier() capped from above by PKIFMM_SIMD (warn-and-clamp on
/// unsupported requests, throw on unparseable values).
Tier resolve_initial_tier() {
  Tier t = detect_tier();
  if (const char* env = std::getenv("PKIFMM_SIMD")) {
    const Tier req = parse_tier(env);
    if (req < t) {
      t = req;
    } else if (req > t) {
      std::fprintf(stderr,
                   "pkifmm: PKIFMM_SIMD=%s not supported on this host/build; "
                   "using '%s'\n",
                   tier_name(req), tier_name(t));
    }
  }
  return t;
}

std::atomic<const Ops*> g_active{nullptr};

}  // namespace

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool tier_compiled(Tier t) { return table_for(t) != nullptr; }

bool tier_supported(Tier t) { return tier_compiled(t) && cpu_supports(t); }

Tier detect_tier() {
#ifdef PKIFMM_SIMD_X86
  __builtin_cpu_init();
#endif
  Tier best = Tier::kScalar;
  for (Tier t : {Tier::kAvx2, Tier::kAvx512})
    if (tier_supported(t)) best = t;
  return best;
}

std::vector<Tier> available_tiers() {
  std::vector<Tier> out;
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512})
    if (tier_supported(t)) out.push_back(t);
  return out;
}

Tier parse_tier(const std::string& name) {
  for (Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512})
    if (name == tier_name(t)) return t;
  PKIFMM_CHECK_MSG(false, "PKIFMM_SIMD: unknown tier '"
                              << name
                              << "' (expected scalar | avx2 | avx512)");
  return Tier::kScalar;
}

const Ops& ops() {
  const Ops* p = g_active.load(std::memory_order_acquire);
  if (!p) {
    // Benign race: concurrent first calls resolve to the same table.
    p = table_for(resolve_initial_tier());
    g_active.store(p, std::memory_order_release);
  }
  return *p;
}

Tier active_tier() { return ops().tier; }

const Ops& ops_for_tier(Tier t) {
  PKIFMM_CHECK_MSG(tier_supported(t), "SIMD tier '" << tier_name(t)
                                                    << "' is not supported "
                                                       "on this host/build");
  return *table_for(t);
}

void force_tier(Tier t) {
  const Ops& table = ops_for_tier(t);
  g_active.store(&table, std::memory_order_release);
}

void clear_forced_tier() { g_active.store(nullptr, std::memory_order_release); }

double* detail::mutual_scratch(std::size_t n) {
  thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

}  // namespace pkifmm::simd
