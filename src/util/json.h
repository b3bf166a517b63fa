// Minimal JSON value model: parse, build, and single-line serialization.
//
// The serve-mode protocol (`sasta-rpc-v1`, docs/SERVER.md) frames every
// message as one newline-terminated JSON object, so the serializer here
// emits exactly one line — no pretty-printing, `", "` / `": "` separators
// matching the repo's other JSON writers (metrics, run report), and
// shortest-round-trip formatting for doubles so dump → parse → dump is a
// fixed point and numeric bytes are deterministic.  Objects preserve insertion order: a response serializes
// with its fields in the order the handler built them, which keeps
// protocol bytes stable across runs and lets tests compare whole lines.
//
// This intentionally replaces nothing: tests/test_json.h stays the
// syntax-only validator for "is this output well-formed", while this type
// is for code that must *read* JSON (the RPC server and client).
#pragma once

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sasta::util {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject, kRaw };

  JsonValue() = default;  ///< null
  static JsonValue boolean(bool b);
  static JsonValue number(double v);
  static JsonValue number(long v);
  static JsonValue string(std::string s);
  static JsonValue array();
  static JsonValue object();
  /// Pre-serialized JSON embedded verbatim (e.g. a run-report payload
  /// already rendered by write_run_report).  The caller guarantees it is
  /// well-formed and single-line.
  static JsonValue raw(std::string json);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors: return the fallback when the value is not of the
  /// requested kind (protocol handlers validate kinds explicitly where the
  /// distinction matters).
  bool as_bool(bool fallback = false) const;
  double as_double(double fallback = 0.0) const;
  long as_long(long fallback = 0) const;
  const std::string& as_string() const;  ///< empty string when not a string

  // Array access.
  std::size_t size() const { return items_.size(); }
  const JsonValue& at(std::size_t i) const;
  JsonValue& push_back(JsonValue v);

  // Object access (insertion-ordered; linear scans — protocol objects are
  // a handful of keys).
  const JsonValue* find(std::string_view key) const;  ///< null if absent
  /// Member lookup with a null-value fallback for absent keys.
  const JsonValue& get(std::string_view key) const;
  JsonValue& set(std::string key, JsonValue v);  ///< insert or overwrite
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Single-line serialization (see file comment for the format contract).
  void dump(std::ostream& os) const;
  std::string dump() const;

  /// Deepest object/array nesting parse() accepts.
  static constexpr int kMaxDepth = 256;

  /// Parses a complete JSON document.  On failure returns false and, when
  /// `error` is non-null, stores a one-line message with the byte offset.
  /// Trailing whitespace is allowed; trailing garbage is an error, and so
  /// is nesting deeper than kMaxDepth.
  static bool parse(std::string_view text, JsonValue* out,
                    std::string* error);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;  ///< string payload, or raw JSON for Kind::kRaw
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// JSON string escaping shared by the serializer ("..." with control
/// characters as \uXXXX).
void json_escape(std::string_view s, std::ostream& os);

}  // namespace sasta::util
