#pragma once
/// \file cli.hpp
/// \brief Minimal --key=value command-line parsing for benches/examples,
/// and the error-reporting main wrapper they share.

#include <cstdint>
#include <map>
#include <string>

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

 private:
  std::map<std::string, std::string> kv_;
};

namespace util {

/// Runs `body` as a program's main. An exception escaping `body` (a
/// CheckFailure from bad input, say) is printed to stderr as
/// "<name>: error: <what>", <name> the basename of argv[0], and the
/// process exits with `error_status` instead of ending in
/// std::terminate.
int guarded_main(int argc, char** argv, int (*body)(int, char**),
                 int error_status = 1);

}  // namespace util
}  // namespace pkifmm
