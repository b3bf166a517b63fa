// util::JsonValue: parse/build/serialize round-trips for the RPC layer.
//
// The protocol contract this type carries (docs/SERVER.md): single-line
// serialization with insertion-ordered object members (stable response
// bytes), shortest-round-trip formatting for doubles, and a parser that
// accepts exactly one document per line — trailing garbage is an error,
// never silently consumed framing.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "util/json.h"

namespace sasta::util {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(JsonValue::parse(text, &v, &err)) << text << ": " << err;
  return v;
}

std::string parse_err(const std::string& text) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(JsonValue::parse(text, &v, &err)) << text;
  return err;
}

TEST(JsonParse, ScalarsAndNesting) {
  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool(true));
  EXPECT_EQ(parse_ok("-42").as_long(), -42);
  EXPECT_DOUBLE_EQ(parse_ok("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(parse_ok("\"hi\\nthere\"").as_string(), "hi\nthere");

  const JsonValue doc =
      parse_ok(R"({"a": [1, 2, {"b": "c"}], "d": {"e": null}})");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.get("a").size(), 3u);
  EXPECT_EQ(doc.get("a").at(2).get("b").as_string(), "c");
  EXPECT_TRUE(doc.get("d").get("e").is_null());
  EXPECT_TRUE(doc.get("missing").is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

// Request ids and integer params go through as_long: a number outside
// long's range saturates instead of hitting an undefined conversion.
TEST(JsonParse, AsLongSaturatesOutOfRange) {
  EXPECT_EQ(parse_ok("1e300").as_long(), std::numeric_limits<long>::max());
  EXPECT_EQ(parse_ok("-1e300").as_long(), std::numeric_limits<long>::min());
  EXPECT_EQ(parse_ok("1e400").as_long(), std::numeric_limits<long>::max());
  EXPECT_EQ(parse_ok("9007199254740993").as_long(), 9007199254740992L);
  EXPECT_EQ(parse_ok("-7.9").as_long(), -7);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parse_ok("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(parse_ok("\"\\u00e9\"").as_string(), "\xc3\xa9");   // é
  EXPECT_EQ(parse_ok("\"\\u20ac\"").as_string(), "\xe2\x82\xac");  // €
}

TEST(JsonParse, ErrorsCarryByteOffsets) {
  EXPECT_NE(parse_err("{").find("at byte"), std::string::npos);
  parse_err("");
  parse_err("{\"a\": }");
  parse_err("[1, 2");
  parse_err("\"unterminated");
  parse_err("nul");
  parse_err("01");  // leading zeros are not JSON numbers
  // One document per line: trailing garbage must fail, never be ignored.
  parse_err("{} {}");
  parse_err("true false");
  // Trailing whitespace is fine.
  parse_ok("{\"a\": 1}  ");
}

// Nesting is bounded: a hostile line of 10^6 '[' (or '{"a":' chains) is
// refused with an error instead of recursing until the stack overflows,
// while the deepest allowed document still parses.
TEST(JsonParse, NestingDepthIsBounded) {
  const int max = JsonValue::kMaxDepth;
  parse_ok(std::string(max, '[') + std::string(max, ']'));
  EXPECT_NE(parse_err(std::string(max + 1, '[') + std::string(max + 1, ']'))
                .find("nesting too deep"),
            std::string::npos);
  EXPECT_NE(parse_err(std::string(1000000, '[')).find("nesting too deep"),
            std::string::npos);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_NE(parse_err(objects).find("nesting too deep"), std::string::npos);
}

TEST(JsonSerialize, SingleLineInsertionOrdered) {
  JsonValue obj = JsonValue::object();
  obj.set("z", JsonValue::number(1L));
  obj.set("a", JsonValue::boolean(true));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::string("x\ny"));
  arr.push_back(JsonValue());
  obj.set("list", std::move(arr));
  // Members serialize in insertion order (z before a), strings escape
  // their newlines, and the whole document is one line.
  EXPECT_EQ(obj.dump(), "{\"z\": 1, \"a\": true, \"list\": [\"x\\ny\", null]}");
  EXPECT_EQ(obj.dump().find('\n'), std::string::npos);

  // Overwriting keeps the original position.
  obj.set("z", JsonValue::number(2L));
  EXPECT_EQ(obj.dump(), "{\"z\": 2, \"a\": true, \"list\": [\"x\\ny\", null]}");
}

TEST(JsonSerialize, NumbersUseCanonicalFormatting) {
  // Whole doubles print as integers; long and double agree.
  EXPECT_EQ(JsonValue::number(3.0).dump(), "3");
  EXPECT_EQ(JsonValue::number(3L).dump(), "3");
  EXPECT_EQ(JsonValue::number(-0.5).dump(), "-0.5");
  // Round-trip: dump → parse → dump is a fixed point.
  const std::string once = JsonValue::number(71.148726721168813).dump();
  EXPECT_EQ(parse_ok(once).dump(), once);
}

TEST(JsonSerialize, RawEmbedsVerbatim) {
  JsonValue obj = JsonValue::object();
  obj.set("inner", JsonValue::raw("{\"pre\": [1, 2]}"));
  EXPECT_EQ(obj.dump(), "{\"inner\": {\"pre\": [1, 2]}}");
  // And what it embeds parses back.
  parse_ok(obj.dump());
}

TEST(JsonRoundTrip, WireExamples) {
  for (const char* line : {
           R"({"id": 7, "method": "analyze", "params": {"paths": 3}})",
           R"({"version": "sasta-rpc-v1", "id": null, "error": {"code": "E_PARSE", "message": "x"}})",
           R"([0.001, 0.01, 0.1, 1, 10, 60])",
       }) {
    const JsonValue doc = parse_ok(line);
    EXPECT_EQ(doc.dump(), line);
  }
}

}  // namespace
}  // namespace sasta::util
