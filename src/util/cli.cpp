#include "util/cli.hpp"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string_view>

#include "util/check.hpp"

namespace pkifmm {

Cli::Cli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    PKIFMM_CHECK_MSG(arg.rfind("--", 0) == 0,
                     "expected --key=value argument, got '" << arg << "'");
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos) {
      kv_[std::string(arg)] = "true";
    } else {
      kv_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    }
  }
}

bool Cli::has(const std::string& key) const { return kv_.count(key) != 0; }

std::string Cli::get(const std::string& key, const std::string& fallback) const {
  auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::string& s = it->second;
  std::int64_t v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  PKIFMM_CHECK_MSG(ec == std::errc() && end == s.data() + s.size(),
                   "--" << key << " expects an integer, got '" << s << "'");
  return v;
}

std::int64_t Cli::get_int_in(const std::string& key, std::int64_t lo,
                             std::int64_t hi) const {
  const std::int64_t v = get_int(key, 0);
  PKIFMM_CHECK_MSG(v >= lo && v <= hi, "--" << key
                                            << " expects an integer in ["
                                            << lo << ", " << hi << "], got '"
                                            << get(key, "") << "'");
  return v;
}

double Cli::get_double(const std::string& key, double fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::string& s = it->second;
  double v = 0.0;
  PKIFMM_CHECK_MSG(util::parse_double(s, v),
                   "--" << key << " expects a number, got '" << s << "'");
  return v;
}

bool Cli::get_bool(const std::string& key, bool fallback) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

namespace util {

namespace {
std::atomic<bool> g_main_failed{false};
}  // namespace

bool main_failed() { return g_main_failed.load(std::memory_order_relaxed); }

bool parse_double(const std::string& s, double& out) {
  char* end = nullptr;
  out = std::strtod(s.c_str(), &end);
  return !s.empty() && end == s.c_str() + s.size();
}

int guarded_main(int argc, char** argv, int (*body)(int, char**),
                 int error_status) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    g_main_failed.store(true, std::memory_order_relaxed);
    const std::string_view path = argc > 0 ? argv[0] : "main";
    const std::string_view name = path.substr(path.find_last_of('/') + 1);
    std::fprintf(stderr, "%.*s: error: %s\n", static_cast<int>(name.size()),
                 name.data(), e.what());
    return error_status;
  }
}

}  // namespace util
}  // namespace pkifmm
