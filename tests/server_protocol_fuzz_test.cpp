// Robustness fuzzing of the sasta-rpc-v1 request parser: seeded, bounded
// mutations of valid request lines (byte flips, truncations, inserted
// structural characters) must each come back as a well-formed request or
// as one of the protocol's error codes — never a crash, a hang, or a
// request whose params the JSON model cannot re-serialize.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/json.h"
#include "util/rng.h"

namespace sasta::server {
namespace {

using util::JsonValue;

const std::vector<std::string>& seed_lines() {
  static const std::vector<std::string> lines = {
      R"({"id": 1, "method": "ping"})",
      R"({"id": 2, "method": "hello", "params": {}})",
      R"({"id": 3, "method": "load", "params": {"netlist": "c17", "tech": "90nm"}})",
      R"({"id": 4, "method": "analyze", "params": {"session": 1, "paths": 10, "fastest": 2, "required_ns": 1.5e0, "report": true, "force_cold": false, "max_seconds": 0.3}})",
      R"({"id": 5, "method": "eco", "params": {"session": 1, "op": "swap_gate", "instance": "g\"10\\", "cell": "NOR2", "scale": -2.5E-3}})",
      R"({"method": "metrics", "params": {"list": [1, [2, [3, {"a": null}]], "é\n\t"]}})",
      R"({"id": 7, "method": "shutdown", "params": {"note": "bye 😀"}})",
      R"({"id": -1e300, "method": "analyze", "params": {"paths": 1e400}})",
  };
  return lines;
}

const std::set<std::string>& error_codes() {
  static const std::set<std::string> codes = {
      kErrParse,     kErrProto,      kErrNoMethod, kErrBadParams,
      kErrNoSession, kErrNoInstance, kErrNoCell,   kErrPinMismatch,
      kErrShutdown,  kErrInternal};
  return codes;
}

enum class Outcome { kRequest, kError };

/// Parses one line and checks the parser's contract; returns which way it
/// went.  A request must carry a method and object params that survive a
/// dump → parse → dump round trip; an error must carry a protocol code.
Outcome check_line(const std::string& line) {
  std::string code, message;
  long id = 123;
  bool has_id = true;
  const std::optional<RpcRequest> req =
      parse_request(line, &code, &message, &id, &has_id);
  if (!req) {
    EXPECT_TRUE(error_codes().count(code)) << "code " << code << " for "
                                           << line;
    EXPECT_FALSE(message.empty()) << line;
    return Outcome::kError;
  }
  EXPECT_FALSE(req->method.empty()) << line;
  EXPECT_TRUE(req->params.is_object()) << line;
  EXPECT_EQ(req->has_id, has_id) << line;
  if (req->has_id) {
    EXPECT_EQ(req->id, id) << line;
  }
  const std::string dumped = req->params.dump();
  JsonValue again;
  std::string error;
  EXPECT_TRUE(JsonValue::parse(dumped, &again, &error))
      << error << " re-parsing " << dumped;
  EXPECT_EQ(again.dump(), dumped) << line;
  return Outcome::kRequest;
}

TEST(ProtocolFuzz, SeedLinesParse) {
  for (const std::string& line : seed_lines()) {
    EXPECT_EQ(check_line(line), Outcome::kRequest) << line;
  }
}

/// One random mutation: flip a byte, truncate, or insert a character that
/// opens or breaks structure.
void mutate(std::string& s, util::Rng& rng) {
  static const char kInserts[] = {'[', '{', '"', '\\'};
  switch (rng.next_below(4)) {
    case 0:
      if (!s.empty()) {
        s[rng.next_below(s.size())] =
            static_cast<char>(rng.next_below(256));
      }
      break;
    case 1:
      s.resize(rng.next_below(s.size() + 1));
      break;
    case 2:
      s.insert(s.begin() + rng.next_below(s.size() + 1),
               kInserts[rng.next_below(sizeof(kInserts))]);
      break;
    default: {
      // A run of one opener, long enough to cross the nesting limit.
      const std::size_t n = 1 + rng.next_below(JsonValue::kMaxDepth + 8);
      s.insert(rng.next_below(s.size() + 1), n,
               kInserts[rng.next_below(2)]);
      break;
    }
  }
}

TEST(ProtocolFuzz, MutatedLinesYieldRequestOrProtocolError) {
  util::Rng rng(20240917);
  int requests = 0, errors = 0;
  for (int trial = 0; trial < 100000; ++trial) {
    std::string line = seed_lines()[rng.next_below(seed_lines().size())];
    const int mutations = 1 + static_cast<int>(rng.next_below(4));
    for (int m = 0; m < mutations; ++m) mutate(line, rng);
    (check_line(line) == Outcome::kRequest ? requests : errors) += 1;
    if (::testing::Test::HasFailure()) break;  // first counterexample only
  }
  // The mix must exercise both exits, or the mutations are too weak (or
  // too strong) to test anything.
  EXPECT_GT(errors, 50000);
  EXPECT_GT(requests, 1000);
}

/// A valid request whose params nest `depth` levels in total (the envelope
/// object counts as one level, params as another).
std::string nested_request(int depth) {
  const int inner = depth - 2;
  return R"({"id": 9, "method": "ping", "params": {"x": )" +
         std::string(inner, '[') + std::string(inner, ']') + "}}";
}

TEST(ProtocolFuzz, NestingLimitIsExact) {
  const int limit = JsonValue::kMaxDepth;
  for (const int depth : {limit - 2, limit - 1, limit}) {
    EXPECT_EQ(check_line(nested_request(depth)), Outcome::kRequest)
        << "depth " << depth;
  }
  for (const int depth : {limit + 1, limit + 2, 4 * limit}) {
    std::string code, message;
    long id = 0;
    bool has_id = false;
    EXPECT_FALSE(parse_request(nested_request(depth), &code, &message, &id,
                               &has_id))
        << "depth " << depth;
    EXPECT_EQ(code, kErrParse) << "depth " << depth;
  }
}

}  // namespace
}  // namespace sasta::server
