#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/metrics.h"  // json_number

namespace sasta::util {

namespace {

const std::string kEmptyString;
const JsonValue kNullValue;

/// Whole-number doubles within long range print as integers so counters
/// round-trip without a trailing ".0"/exponent (matching how the metrics
/// writer emits counters as plain integers).
void dump_number(double v, std::ostream& os) {
  if (!std::isfinite(v)) {
    os << json_number(v);  // non-finite policy lives in one place
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 9.2e18) {
    os << static_cast<long long>(v);
    return;
  }
  // Shortest representation that parses back to the same double, so
  // dump → parse → dump is a fixed point (0.1 stays "0.1", never
  // "0.10000000000000001").
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  os << buf;
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  std::string* error = nullptr;
  int depth = 0;  ///< open objects/arrays enclosing `pos`

  bool fail(const std::string& message) {
    if (error) {
      *error = message + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse, so hostile input such as a line of 10^6 '['
        // must be refused before it exhausts the stack.
        if (depth >= JsonValue::kMaxDepth) return fail("nesting too deep");
        ++depth;
        const bool ok = c == '{' ? parse_object(out) : parse_array(out);
        --depth;
        return ok;
      }
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = JsonValue::string(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return fail("bad literal");
        *out = JsonValue::boolean(true);
        return true;
      case 'f':
        if (!literal("false")) return fail("bad literal");
        *out = JsonValue::boolean(false);
        return true;
      case 'n':
        if (!literal("null")) return fail("bad literal");
        *out = JsonValue();
        return true;
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    ++pos;  // '{'
    *out = JsonValue::object();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (pos >= text.size() || text[pos] != '"')
        return fail("expected object key");
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->set(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    ++pos;  // '['
    *out = JsonValue::array();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!parse_value(&value)) return false;
      out->push_back(std::move(value));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    ++pos;  // opening quote
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("unescaped control character in string");
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are rejected —
          // the protocol's payloads are ASCII-safe and the serializer
          // never emits them).
          if (code >= 0xD800 && code <= 0xDFFF)
            return fail("surrogate \\u escape unsupported");
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue* out) {
    const std::size_t start = pos;
    if (consume('-')) {
    }
    // JSON grammar, not strtod's: the integer part is "0" or [1-9][0-9]*
    // (no leading zeros, no hex, no inf/nan), fraction and exponent each
    // need at least one digit.
    std::size_t int_digits = 0;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
      ++pos;
      ++int_digits;
    }
    if (int_digits == 0) return fail("bad number");
    if (int_digits > 1 && text[start + (text[start] == '-' ? 1 : 0)] == '0')
      return fail("bad number: leading zero");
    if (consume('.')) {
      std::size_t frac_digits = 0;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
        ++frac_digits;
      }
      if (frac_digits == 0) return fail("bad number: empty fraction");
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      std::size_t exp_digits = 0;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos]))) {
        ++pos;
        ++exp_digits;
      }
      if (exp_digits == 0) return fail("bad number: empty exponent");
    }
    const std::string token(text.substr(start, pos - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return fail("bad number");
    *out = JsonValue::number(v);
    return true;
  }
};

}  // namespace

JsonValue JsonValue::boolean(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  return v;
}

JsonValue JsonValue::number(long n) {
  return number(static_cast<double>(n));
}

JsonValue JsonValue::string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}

JsonValue JsonValue::array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue JsonValue::raw(std::string json) {
  JsonValue v;
  v.kind_ = Kind::kRaw;
  v.str_ = std::move(json);
  return v;
}

bool JsonValue::as_bool(bool fallback) const {
  return kind_ == Kind::kBool ? bool_ : fallback;
}

double JsonValue::as_double(double fallback) const {
  return kind_ == Kind::kNumber ? num_ : fallback;
}

long JsonValue::as_long(long fallback) const {
  return kind_ == Kind::kNumber ? static_cast<long>(num_) : fallback;
}

const std::string& JsonValue::as_string() const {
  return kind_ == Kind::kString ? str_ : kEmptyString;
}

const JsonValue& JsonValue::at(std::size_t i) const {
  return i < items_.size() ? items_[i] : kNullValue;
}

JsonValue& JsonValue::push_back(JsonValue v) {
  items_.push_back(std::move(v));
  return items_.back();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::get(std::string_view key) const {
  const JsonValue* v = find(key);
  return v ? *v : kNullValue;
}

JsonValue& JsonValue::set(std::string key, JsonValue v) {
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return existing;
    }
  }
  members_.emplace_back(std::move(key), std::move(v));
  return members_.back().second;
}

void json_escape(std::string_view s, std::ostream& os) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void JsonValue::dump(std::ostream& os) const {
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
      os << (bool_ ? "true" : "false");
      break;
    case Kind::kNumber:
      dump_number(num_, os);
      break;
    case Kind::kString:
      json_escape(str_, os);
      break;
    case Kind::kRaw:
      os << str_;
      break;
    case Kind::kArray: {
      os << '[';
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i) os << ", ";
        items_[i].dump(os);
      }
      os << ']';
      break;
    }
    case Kind::kObject: {
      os << '{';
      bool first = true;
      for (const auto& [k, v] : members_) {
        if (!first) os << ", ";
        first = false;
        json_escape(k, os);
        os << ": ";
        v.dump(os);
      }
      os << '}';
      break;
    }
  }
}

std::string JsonValue::dump() const {
  std::ostringstream os;
  dump(os);
  return os.str();
}

bool JsonValue::parse(std::string_view text, JsonValue* out,
                      std::string* error) {
  Parser p{text, 0, error};
  if (!p.parse_value(out)) return false;
  p.skip_ws();
  if (p.pos != text.size()) return p.fail("trailing garbage");
  return true;
}

}  // namespace sasta::util
