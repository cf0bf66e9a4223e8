#include "report/json.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/error.hpp"

namespace autohet::report {

const JsonValue& JsonValue::at(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return v;
  }
  AUTOHET_CHECK(false, "missing JSON key: " + key + " (object at line " +
                           std::to_string(line) + ")");
  return *this;  // unreachable
}

bool JsonValue::has(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return true;
  }
  return false;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = parse_value();
    skip_ws();
    AUTOHET_CHECK(pos_ == text_.size(), err("trailing content"));
    return v;
  }

 private:
  std::string err(const std::string& what) const {
    std::string where = "JSON parse error at line " + std::to_string(line_);
    if (!key_.empty()) where += " in key '" + std::string(key_) + "'";
    return where + ": " + what;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      if (text_[pos_] == '\n') ++line_;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    AUTOHET_CHECK(pos_ < text_.size(), err("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    AUTOHET_CHECK(peek() == c,
                  err(std::string("expected '") + c + "', got '" +
                      text_[pos_] + "'"));
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.line = line_;
      v.scalar = parse_string();
      return v;
    }
    JsonValue v;
    v.line = line_;
    if (consume_literal("true")) {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    return parse_number();
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    v.line = line_;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      AUTOHET_CHECK(peek() == '"', err("expected object key"));
      std::string key = parse_string();
      expect(':');
      // Errors inside the member's value name its key; `key` outlives the
      // nested parse, and the enclosing key is restored afterwards.
      const std::string_view outer = std::exchange(key_, key);
      JsonValue value = parse_value();
      key_ = outer;
      v.members.emplace_back(std::move(key), std::move(value));
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    v.line = line_;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c != '\\') {
        if (c == '\n') ++line_;
        out += c;
        continue;
      }
      AUTOHET_CHECK(pos_ < text_.size(), err("unterminated escape"));
      c = text_[pos_++];
      switch (c) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          AUTOHET_CHECK(pos_ + 4 <= text_.size(), err("short \\u escape"));
          const std::string hex(text_.substr(pos_, 4));
          AUTOHET_CHECK(std::all_of(hex.begin(), hex.end(),
                                    [](unsigned char h) {
                                      return std::isxdigit(h) != 0;
                                    }),
                        err("\\u escape needs four hex digits"));
          const unsigned long code = std::strtoul(hex.c_str(), nullptr, 16);
          pos_ += 4;
          AUTOHET_CHECK(code < 0x80,
                        err("non-ASCII \\u escapes are not supported"));
          out += static_cast<char>(code);
          break;
        }
        default:
          AUTOHET_CHECK(false, err(std::string("bad escape \\") + c));
      }
    }
    AUTOHET_CHECK(pos_ < text_.size(), err("unterminated string"));
    ++pos_;  // closing quote
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    AUTOHET_CHECK(pos_ > start, err("expected a JSON value"));
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.line = line_;
    v.scalar = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::string_view key_;  ///< key of the object member being parsed
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

// Every numeric reader consumes the whole token: a prefix that strtod /
// strtoll / strtoull accepts ("0-5", "1e5x") is malformed input, not a
// number.
double as_double(const JsonValue& v, const std::string& key) {
  AUTOHET_CHECK(v.kind == JsonValue::Kind::kNumber,
                "JSON key '" + key + "' must be a number (line " +
                    std::to_string(v.line) + ")");
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(v.scalar.c_str(), &end);
  AUTOHET_CHECK(end != v.scalar.c_str() && *end == '\0',
                "JSON key '" + key + "' must be a number (line " +
                    std::to_string(v.line) + ")");
  // ERANGE also flags underflow to a subnormal, which is a faithful value;
  // only overflow to +-HUGE_VAL loses the number.
  AUTOHET_CHECK(!(errno == ERANGE && std::isinf(value)),
                "JSON key '" + key + "' overflows a double (line " +
                    std::to_string(v.line) + ")");
  return value;
}

std::int64_t as_int(const JsonValue& v, const std::string& key) {
  AUTOHET_CHECK(v.kind == JsonValue::Kind::kNumber,
                "JSON key '" + key + "' must be a number (line " +
                    std::to_string(v.line) + ")");
  errno = 0;
  char* end = nullptr;
  const std::int64_t value = std::strtoll(v.scalar.c_str(), &end, 10);
  AUTOHET_CHECK(end != v.scalar.c_str() && *end == '\0',
                "JSON key '" + key + "' must be an integer (line " +
                    std::to_string(v.line) + ")");
  AUTOHET_CHECK(errno != ERANGE,
                "JSON key '" + key + "' overflows a 64-bit integer (line " +
                    std::to_string(v.line) + ")");
  return value;
}

std::uint64_t as_u64_string(const JsonValue& v, const std::string& key) {
  AUTOHET_CHECK(v.kind == JsonValue::Kind::kString,
                "JSON key '" + key + "' must be a decimal string (line " +
                    std::to_string(v.line) + ")");
  // strtoull skips whitespace and accepts a sign (negating "-1" to
  // UINT64_MAX), so the digit must come first.
  errno = 0;
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(v.scalar.c_str(), &end, 10);
  AUTOHET_CHECK(!v.scalar.empty() &&
                    std::isdigit(static_cast<unsigned char>(v.scalar[0])) &&
                    *end == '\0',
                "JSON key '" + key + "' must be a decimal string (line " +
                    std::to_string(v.line) + ")");
  AUTOHET_CHECK(errno != ERANGE,
                "JSON key '" + key + "' overflows a 64-bit integer (line " +
                    std::to_string(v.line) + ")");
  return value;
}

bool as_bool(const JsonValue& v, const std::string& key) {
  AUTOHET_CHECK(v.kind == JsonValue::Kind::kBool,
                "JSON key '" + key + "' must be a boolean (line " +
                    std::to_string(v.line) + ")");
  return v.boolean;
}

std::string as_string(const JsonValue& v, const std::string& key) {
  AUTOHET_CHECK(v.kind == JsonValue::Kind::kString,
                "JSON key '" + key + "' must be a string (line " +
                    std::to_string(v.line) + ")");
  return v.scalar;
}

const std::vector<JsonValue>& as_array(const JsonValue& v,
                                       const std::string& key) {
  AUTOHET_CHECK(v.kind == JsonValue::Kind::kArray,
                "JSON key '" + key + "' must be an array (line " +
                    std::to_string(v.line) + ")");
  return v.items;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace autohet::report
