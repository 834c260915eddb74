#pragma once

/// \file cli.hpp
/// Minimal command-line option parsing for the wlsms driver binary:
/// --key value pairs with typed lookups and unknown-flag detection.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace wlsms::cli {

/// Parsed command line: one subcommand plus --key value options.
class Options {
 public:
  /// Parses argv[1] as the subcommand, an optional bare token right after
  /// it as the positional argument (e.g. `wlsms status host:port`), and the
  /// rest as --key value pairs. Throws std::runtime_error on malformed
  /// input (missing value, bare token after the options started).
  static Options parse(int argc, char** argv);

  const std::string& command() const { return command_; }
  bool empty_command() const { return command_.empty(); }

  /// The bare token following the subcommand, or "" when none was given.
  const std::string& positional() const { return positional_; }

  /// Typed lookups with defaults; throw std::runtime_error on a present
  /// but unparseable value.
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  long get_long(const std::string& key, long fallback) const;
  /// Full-range unsigned parse for 64-bit values such as seeds, which
  /// routinely exceed INT64_MAX and would be rejected by get_long.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  bool has(const std::string& key) const;

  /// Keys that were provided but never queried; used to reject typos.
  std::vector<std::string> unused_keys() const;

 private:
  std::string command_;
  std::string positional_;
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace wlsms::cli
