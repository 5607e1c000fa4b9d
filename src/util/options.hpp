// Minimal command-line option parser for benches and examples.
//
// Supports "--key=value", "--key value", and boolean "--flag" forms. Every
// key is stored as given: there is no registry of known names, so a typo'd
// or unsupported option is silently ignored unless the consumer checks for
// it with has() (traversal_options::from_flags does for removed flags).
// Keys the caller names as flags never take the next token as their value
// ("--sem g.agt" leaves g.agt positional); they accept "--flag=value".
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace asyncgt {

class options {
 public:
  /// Parses argv. Throws std::invalid_argument on a malformed token.
  /// `flags` are the boolean options, which take no "--key value" form.
  options(int argc, const char* const* argv,
          std::initializer_list<std::string_view> flags = {});

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// Comma-separated integer list, e.g. --threads=1,2,4,8.
  std::vector<std::int64_t> get_int_list(
      const std::string& key, const std::vector<std::int64_t>& fallback) const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// All keys seen, for diagnostics.
  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace asyncgt
