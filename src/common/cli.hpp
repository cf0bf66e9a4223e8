// Minimal GNU-style command-line parser for the example/driver binaries.
//
// Supports boolean flags (--tile-shared), valued options (--episodes 300 or
// --episodes=300), and positional arguments. Unknown arguments are parse
// errors; --help renders a usage text built from the registered options.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace autohet::common {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Registers a boolean flag (present => true).
  void add_flag(const std::string& name, const std::string& help);
  /// Registers a valued option with a default.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);
  /// Registers a repeatable valued option (--plan-in a.json --plan-in
  /// b.json). option() returns the last occurrence; option_list() all of
  /// them in order.
  void add_multi_option(const std::string& name, const std::string& help);
  /// Registers a named positional argument (required, in order).
  void add_positional(const std::string& name, const std::string& help);
  /// Registers an optional positional argument with a default. Optional
  /// positionals must be registered after every required one and are
  /// filled left-to-right by the remaining arguments.
  void add_optional_positional(const std::string& name,
                               const std::string& default_value,
                               const std::string& help);

  /// Parses argv. Returns false and fills *error on malformed input or when
  /// --help was requested (error is then the help text).
  bool parse(int argc, const char* const* argv, std::string* error);

  bool flag(const std::string& name) const;
  /// True when the user supplied this flag, option or positional on the
  /// command line (one left at its default returns false).
  bool provided(const std::string& name) const;
  /// After parse(): if `gate` was provided together with any of `conflicts`,
  /// fills *error with "--gate cannot be combined with --other" and returns
  /// false. For mutually exclusive operating modes (e.g. replaying a saved
  /// plan vs. configuring a fresh search).
  bool reject_option_conflicts(const std::string& gate,
                               const std::vector<std::string>& conflicts,
                               std::string* error) const;
  const std::string& option(const std::string& name) const;
  /// Every occurrence of a repeatable option, in command-line order (empty
  /// when the option was never supplied).
  const std::vector<std::string>& option_list(const std::string& name) const;
  std::int64_t option_int(const std::string& name) const;
  double option_double(const std::string& name) const;
  const std::string& positional(const std::string& name) const;
  /// After parse(): option or positional `name` as a count — an int no
  /// smaller than `min`. Throws std::invalid_argument naming the argument
  /// on anything else (a sign, a suffix, an out-of-range value).
  int count(const std::string& name, int min = 0) const;

  std::string help_text() const;

 private:
  struct Option {
    std::string default_value;
    std::string value;
    std::vector<std::string> values;  ///< every occurrence (multi options)
    std::string help;
    bool is_flag = false;
    bool is_multi = false;
    bool seen = false;
  };
  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::vector<std::string> positional_names_;
  std::vector<std::string> positional_help_;
  std::size_t required_positionals_ = 0;
  std::size_t positionals_given_ = 0;  ///< leading positionals supplied
  std::map<std::string, std::string> positional_values_;
};

}  // namespace autohet::common
