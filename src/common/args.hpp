// Minimal command-line argument parser for the CLI and example binaries:
// positional words plus `--key value` options and `--flag` switches.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace anadex {

class ArgParser {
 public:
  /// Parses argv (argv[0] is skipped). A token starting with "--" is an
  /// option; if the next token exists and is not itself an option it becomes
  /// the value, otherwise the option is a boolean flag. Everything else is a
  /// positional argument. Throws PreconditionError on a repeated option.
  ArgParser(int argc, const char* const* argv);

  const std::vector<std::string>& positionals() const { return positionals_; }

  bool has(const std::string& key) const;

  /// Typed getters with defaults; throw PreconditionError, naming the
  /// option, when the stored value does not parse as the requested type.
  std::string get(const std::string& key, const std::string& fallback) const;
  /// A count or a seed: digits only, within 64 bits (textio::parse_u64), so
  /// a negative value is rejected instead of wrapped.
  std::uint64_t get_count(const std::string& key, std::uint64_t fallback) const;
  /// Decimal or the hex-float form of textio::exact (textio::parse_double).
  double get_double(const std::string& key, double fallback) const;
  bool get_flag(const std::string& key) const;

  /// Options that were provided but never queried — typo detection.
  std::vector<std::string> unused() const;

 private:
  /// The value given for `key` (marking it used), or null when absent.
  /// Throws PreconditionError when the option is a bare flag.
  const std::string* value_of(const std::string& key) const;

  std::map<std::string, std::string> options_;  // "" marks a bare flag
  std::vector<std::string> positionals_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace anadex
