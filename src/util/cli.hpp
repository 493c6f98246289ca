#pragma once
/// \file cli.hpp
/// \brief Minimal --key=value command-line parsing for benches/examples,
/// and the error-reporting main wrapper they share.

#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>

namespace pkifmm {

/// Parses arguments of the form --key=value (or bare --flag, stored as
/// "true"). Unrecognized positional arguments raise a CheckFailure, and
/// so does a numeric getter whose value is not a number as a whole
/// ("--n=2e3" to get_int, "--x=1.5abc" to get_double).
class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// get_int narrowed to T once the value is known to lie in [lo, hi]
  /// (by default the part of T's range an int64 holds), so it never
  /// wraps: "--ranks expects an integer in [1, 2147483647], got
  /// '4294967297'". The fallback is returned as is.
  template <std::integral T>
  T get_int_as(const std::string& key, T fallback,
               T lo = std::numeric_limits<T>::min(),
               T hi = std::numeric_limits<T>::max()) const {
    if (!has(key)) return fallback;
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    return static_cast<T>(get_int_in(
        key, static_cast<std::int64_t>(lo),
        std::cmp_less(hi, kMax) ? static_cast<std::int64_t>(hi) : kMax));
  }

 private:
  std::int64_t get_int_in(const std::string& key, std::int64_t lo,
                          std::int64_t hi) const;

  std::map<std::string, std::string> kv_;
};

namespace util {

/// Parses s as one double, the whole of it ("1.5abc" and "" fail): the
/// rule of Cli::get_double.
bool parse_double(const std::string& s, double& out);

}  // namespace util

namespace util {

/// Runs `body` as a program's main. An exception escaping `body` (a
/// CheckFailure from bad input, say) is printed to stderr as
/// "<name>: error: <what>", <name> the basename of argv[0], and the
/// process exits with `error_status` instead of ending in
/// std::terminate.
int guarded_main(int argc, char** argv, int (*body)(int, char**),
                 int error_status = 1);

/// True once guarded_main has caught an exception, i.e. the program is
/// ending in "<name>: error:". Exit-time writers (the benches' metrics
/// flush) check it, so a rejected command line leaves no output file.
bool main_failed();

}  // namespace util
}  // namespace pkifmm
