#include "common/cli.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "common/error.hpp"

namespace autohet::common {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  AUTOHET_CHECK(!options_.contains(name), "duplicate option: " + name);
  Option opt;
  opt.is_flag = true;
  opt.default_value = "false";
  opt.value = "false";
  opt.help = help;
  options_[name] = std::move(opt);
}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  AUTOHET_CHECK(!options_.contains(name), "duplicate option: " + name);
  Option opt;
  opt.default_value = default_value;
  opt.value = default_value;
  opt.help = help;
  options_[name] = std::move(opt);
}

void ArgParser::add_multi_option(const std::string& name,
                                 const std::string& help) {
  AUTOHET_CHECK(!options_.contains(name), "duplicate option: " + name);
  Option opt;
  opt.is_multi = true;
  opt.help = help;
  options_[name] = std::move(opt);
}

void ArgParser::add_positional(const std::string& name,
                               const std::string& help) {
  AUTOHET_CHECK(required_positionals_ == positional_names_.size(),
                "required positional after optional: " + name);
  positional_names_.push_back(name);
  positional_help_.push_back(help);
  ++required_positionals_;
}

void ArgParser::add_optional_positional(const std::string& name,
                                        const std::string& default_value,
                                        const std::string& help) {
  positional_names_.push_back(name);
  positional_help_.push_back(help);
  positional_values_[name] = default_value;
}

bool ArgParser::parse(int argc, const char* const* argv, std::string* error) {
  std::size_t positional_index = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      if (error) *error = help_text();
      return false;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string name = arg.substr(2);
      std::string value;
      bool has_inline_value = false;
      const auto eq = name.find('=');
      if (eq != std::string::npos) {
        value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_inline_value = true;
      }
      const auto it = options_.find(name);
      if (it == options_.end()) {
        if (error) *error = "unknown option: --" + name;
        return false;
      }
      Option& opt = it->second;
      if (opt.is_flag) {
        if (has_inline_value) {
          if (error) *error = "flag --" + name + " takes no value";
          return false;
        }
        opt.value = "true";
      } else if (has_inline_value) {
        opt.value = value;
      } else {
        if (i + 1 >= argc) {
          if (error) *error = "option --" + name + " needs a value";
          return false;
        }
        opt.value = argv[++i];
      }
      if (opt.is_multi && !opt.is_flag) opt.values.push_back(opt.value);
      opt.seen = true;
      continue;
    }
    if (positional_index >= positional_names_.size()) {
      if (error) *error = "unexpected argument: " + arg;
      return false;
    }
    positional_values_[positional_names_[positional_index++]] = arg;
  }
  if (positional_index < required_positionals_) {
    if (error) {
      *error = "missing argument: " + positional_names_[positional_index];
    }
    return false;
  }
  positionals_given_ = positional_index;
  return true;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = options_.find(name);
  AUTOHET_CHECK(it != options_.end() && it->second.is_flag,
                "unknown flag: " + name);
  return it->second.value == "true";
}

bool ArgParser::provided(const std::string& name) const {
  const auto given = positional_names_.begin() +
                     static_cast<std::ptrdiff_t>(positionals_given_);
  if (std::find(positional_names_.begin(), given, name) != given) return true;
  if (positional_values_.contains(name)) return false;
  const auto it = options_.find(name);
  AUTOHET_CHECK(it != options_.end(), "unknown option: " + name);
  return it->second.seen;
}

bool ArgParser::reject_option_conflicts(
    const std::string& gate, const std::vector<std::string>& conflicts,
    std::string* error) const {
  if (!provided(gate)) return true;
  for (const std::string& other : conflicts) {
    if (provided(other)) {
      if (error) {
        *error = "--" + gate + " cannot be combined with --" + other;
      }
      return false;
    }
  }
  return true;
}

const std::string& ArgParser::option(const std::string& name) const {
  const auto it = options_.find(name);
  AUTOHET_CHECK(it != options_.end() && !it->second.is_flag,
                "unknown option: " + name);
  return it->second.value;
}

const std::vector<std::string>& ArgParser::option_list(
    const std::string& name) const {
  const auto it = options_.find(name);
  AUTOHET_CHECK(it != options_.end() && it->second.is_multi,
                "unknown repeatable option: " + name);
  return it->second.values;
}

std::int64_t ArgParser::option_int(const std::string& name) const {
  const std::string& text = option(name);
  try {
    std::size_t used = 0;
    const std::int64_t v = std::stoll(text, &used);
    AUTOHET_CHECK(used == text.size(), "not an integer: " + text);
    return v;
  } catch (const std::logic_error&) {
    AUTOHET_CHECK(false, "option --" + name + " is not an integer: " + text);
  }
  return 0;  // unreachable
}

double ArgParser::option_double(const std::string& name) const {
  const std::string& text = option(name);
  try {
    std::size_t used = 0;
    const double v = std::stod(text, &used);
    AUTOHET_CHECK(used == text.size(), "not a number: " + text);
    return v;
  } catch (const std::logic_error&) {
    AUTOHET_CHECK(false, "option --" + name + " is not a number: " + text);
  }
  return 0.0;  // unreachable
}

const std::string& ArgParser::positional(const std::string& name) const {
  const auto it = positional_values_.find(name);
  AUTOHET_CHECK(it != positional_values_.end(),
                "unknown positional: " + name);
  return it->second;
}

int ArgParser::count(const std::string& name, int min) const {
  const bool is_positional = positional_values_.contains(name);
  const std::string& text = is_positional ? positional(name) : option(name);
  int v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  AUTOHET_CHECK(ec == std::errc() && ptr == end && v >= min,
                (is_positional ? "argument <" + name + ">"
                               : "option --" + name) +
                    " must be an integer >= " + std::to_string(min) + ": " +
                    text);
  return v;
}

std::string ArgParser::help_text() const {
  std::ostringstream oss;
  oss << "usage: " << program_;
  for (std::size_t i = 0; i < positional_names_.size(); ++i) {
    const bool required = i < required_positionals_;
    oss << (required ? " <" : " [") << positional_names_[i]
        << (required ? '>' : ']');
  }
  oss << " [options]\n\n" << description_ << "\n\n";
  for (std::size_t i = 0; i < positional_names_.size(); ++i) {
    const bool required = i < required_positionals_;
    oss << (required ? "  <" : "  [") << positional_names_[i]
        << (required ? ">  " : "]  ") << positional_help_[i] << '\n';
  }
  oss << "\noptions:\n";
  for (const auto& [name, opt] : options_) {
    oss << "  --" << name;
    if (opt.is_multi) {
      oss << " <value> (repeatable)";
    } else if (!opt.is_flag) {
      oss << " <value> (default: " << opt.default_value << ')';
    }
    oss << "\n      " << opt.help << '\n';
  }
  return oss.str();
}

}  // namespace autohet::common
