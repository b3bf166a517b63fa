// Serve-mode integration: a real Server on a real AF_UNIX socket, driven
// by a raw in-process client speaking sasta-rpc-v1 (docs/SERVER.md).
//
// The tentpole contracts under test:
//   * a socket `analyze` answers byte-for-byte what the batch pipeline
//     (StaTool + format_path + format_timing_report) computes for the same
//     design and options;
//   * a warm repeat demonstrably skips the search (sources.searched == 0,
//     server.cache_reuse advances) yet returns the identical payload;
//   * an ECO request re-analyzed incrementally equals a force_cold full
//     recompute over the same socket;
//   * protocol errors carry stable codes, and shutdown drains to exit 0.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "cell/library_builder.h"
#include "netlist/bench_parser.h"
#include "netlist/techmap.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sta/report.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "test_charlib.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace sasta {
namespace {

using util::JsonValue;

/// Minimal blocking line client for one AF_UNIX connection.
class LineClient {
 public:
  explicit LineClient(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_TRUE_OK();
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool connected() const { return connected_; }

  /// Sends one raw line and blocks for one response line.
  JsonValue call_raw(const std::string& line) {
    if (!send_bytes(line + "\n")) return JsonValue();
    return read_line();
  }

  /// Sends raw bytes, no framing added.  False if the peer went away.
  bool send_bytes(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// True once the server closed the connection and no unread line is
  /// left.
  bool at_eof() {
    if (!buffer_.empty()) return false;
    char c;
    return ::recv(fd_, &c, 1, 0) == 0;
  }

  /// Blocks for one response line (null at EOF).
  JsonValue read_line() {
    while (true) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string resp = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        JsonValue doc;
        std::string err;
        EXPECT_TRUE(JsonValue::parse(resp, &doc, &err))
            << err << " in: " << resp;
        return doc;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return JsonValue();
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Builds {"id", "method", "params"} and round-trips it.
  JsonValue call(const std::string& method, JsonValue params) {
    JsonValue req = JsonValue::object();
    req.set("id", JsonValue::number(next_id_++));
    req.set("method", JsonValue::string(method));
    req.set("params", std::move(params));
    return call_raw(req.dump());
  }

 private:
  void ASSERT_TRUE_OK() { ASSERT_GE(fd_, 0); }

  int fd_ = -1;
  bool connected_ = false;
  long next_id_ = 1;
  std::string buffer_;
};

/// A Server running on its own thread for one test's lifetime.
class ServerFixture {
 public:
  explicit ServerFixture(server::ServerOptions opt)
      : server_(std::move(opt)) {
    thread_ = std::thread([this] { exit_code_ = server_.run(); });
    // The socket is bound before listening() flips.
    for (int i = 0; i < 2000 && !server_.listening(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~ServerFixture() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }

  server::Server& server() { return server_; }
  /// Joins the server thread (after a shutdown request) and returns the
  /// process-style exit code run() produced.
  int join() {
    thread_.join();
    return exit_code_;
  }
  long counter(const std::string& name) {
    const util::MetricsSnapshot snap = server_.metrics().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  }

 private:
  server::Server server_;
  std::thread thread_;
  int exit_code_ = -1;
};

server::ServerOptions test_options(const std::string& socket_path) {
  server::ServerOptions opt;
  opt.socket_path = socket_path;
  opt.charcache_dir = "sasta-test-charcache";  // share the suite's cache
  opt.session_defaults.tool.finder.num_threads = 2;
  return opt;
}

std::string socket_path(const std::string& tag) {
  return ::testing::TempDir() + "sasta-" + tag + ".sock";
}

/// The batch-pipeline answer for c17 with the same options a serve-mode
/// session uses: full enumeration, selection at keep_worst/keep_fastest,
/// and the --report text renderings.
struct BatchAnswer {
  std::string report;
  std::vector<std::string> path_keys;
  sta::SearchCounters stats;
};

BatchAnswer batch_c17(long paths, long fastest, double required_ns) {
  const netlist::Netlist nl =
      netlist::tech_map(
          netlist::parse_bench_string(netlist::c17_bench_text(), "c17"),
          testing::test_library())
          .netlist;
  const charlib::CharLibrary& cl = testing::test_charlib();
  sta::StaToolOptions sopt;
  sopt.keep_worst = paths;
  sopt.keep_fastest = fastest;
  sopt.finder.num_threads = 2;
  sta::StaTool tool(nl, cl, tech::technology("90nm"), sopt);
  const sta::StaResult res = tool.run();

  BatchAnswer out;
  out.stats = res.stats;
  out.report = sta::format_path(nl, cl, res.critical());
  const sta::TimingReport rep =
      sta::build_timing_report(nl, res, required_ns * 1e-9);
  out.report += "\n" + sta::format_timing_report(nl, rep);
  for (const sta::TimedPath& tp : res.paths) {
    char buf[64];
    // Keys carry the exact ps value the server puts on the wire
    // (delay * 1e12); JSON numbers round-trip bit-exactly, so %a of
    // both sides is an equality check, not a tolerance check.
    std::snprintf(buf, sizeof(buf), "%a", tp.delay * 1e12);
    out.path_keys.push_back(nl.net(tp.path.source).name + ">" +
                            nl.net(tp.path.sink).name + ":" + buf);
  }
  return out;
}

/// Extracts the same source>sink:delay_ps keys from a response's paths array.
std::vector<std::string> response_path_keys(const JsonValue& result) {
  std::vector<std::string> keys;
  const JsonValue& paths = result.get("paths");
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const JsonValue& p = paths.at(i);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", p.get("delay_ps").as_double());
    keys.push_back(p.get("source").as_string() + ">" +
                   p.get("sink").as_string() + ":" + buf);
  }
  return keys;
}

TEST(ServerIntegration, PingHelloAndProtocolErrors) {
  ServerFixture fx(test_options(socket_path("proto")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("proto"));
  ASSERT_TRUE(client.connected());

  JsonValue resp = client.call("ping", JsonValue::object());
  EXPECT_EQ(resp.get("version").as_string(), server::kProtocolVersion);
  EXPECT_TRUE(resp.get("result").get("pong").as_bool());

  resp = client.call("hello", JsonValue::object());
  EXPECT_EQ(resp.get("result").get("protocol").as_string(),
            server::kProtocolVersion);
  EXPECT_GE(resp.get("result").get("methods").size(), 7u);

  // Malformed JSON → E_PARSE with a null id.
  resp = client.call_raw("{nope");
  EXPECT_EQ(resp.get("error").get("code").as_string(), server::kErrParse);
  EXPECT_TRUE(resp.get("id").is_null());

  // Unknown method → E_NO_METHOD; the id echoes back.
  resp = client.call("frobnicate", JsonValue::object());
  EXPECT_EQ(resp.get("error").get("code").as_string(),
            server::kErrNoMethod);
  EXPECT_TRUE(resp.get("id").is_number());

  // analyze without a loaded design → E_NO_SESSION.
  resp = client.call("analyze", JsonValue::object());
  EXPECT_EQ(resp.get("error").get("code").as_string(),
            server::kErrNoSession);

  // Requests and errors were counted.
  EXPECT_GE(fx.counter("server.requests"), 5);
  EXPECT_GE(fx.counter("server.errors"), 3);
}

// A hostile line of 10^6 '[' used to recurse the JSON parser into a stack
// overflow and kill the daemon.  It must be answered with E_PARSE, and the
// same connection must keep serving the next request.
TEST(ServerIntegration, DeeplyNestedLineIsAParseErrorNotACrash) {
  ServerFixture fx(test_options(socket_path("deep")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("deep"));
  ASSERT_TRUE(client.connected());

  JsonValue resp = client.call_raw(std::string(1000000, '['));
  EXPECT_EQ(resp.get("error").get("code").as_string(), server::kErrParse)
      << resp.dump();

  resp = client.call("ping", JsonValue::object());
  EXPECT_TRUE(resp.get("result").get("pong").as_bool()) << resp.dump();
}

// A client that never sends a newline used to grow daemon memory without
// bound.  One byte over the line limit gets one E_PARSE (id null) naming
// the limit, then the connection closes; the daemon keeps serving others.
TEST(ServerIntegration, OverlongLineIsRejectedAndConnectionClosed) {
  ServerFixture fx(test_options(socket_path("overlong")));
  ASSERT_TRUE(fx.server().listening());
  {
    LineClient client(socket_path("overlong"));
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.send_bytes(
        std::string(server::kMaxRequestLineBytes + 1, 'x')));
    const JsonValue resp = client.read_line();
    EXPECT_EQ(resp.get("error").get("code").as_string(), server::kErrParse)
        << resp.dump();
    EXPECT_TRUE(resp.get("id").is_null());
    EXPECT_NE(resp.get("error").get("message").as_string().find(
                  std::to_string(server::kMaxRequestLineBytes)),
              std::string::npos)
        << resp.dump();
    EXPECT_TRUE(client.at_eof());
  }
  LineClient next(socket_path("overlong"));
  ASSERT_TRUE(next.connected());
  const JsonValue resp = next.call("ping", JsonValue::object());
  EXPECT_TRUE(resp.get("result").get("pong").as_bool()) << resp.dump();
}

TEST(ServerIntegration, AnalyzeMatchesBatchAndWarmRepeatSkipsSearch) {
  ServerFixture fx(test_options(socket_path("warm")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("warm"));
  ASSERT_TRUE(client.connected());

  JsonValue resp = client.call("load", [] {
    JsonValue p = JsonValue::object();
    p.set("netlist", JsonValue::string("c17"));
    return p;
  }());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  const long session = resp.get("result").get("session").as_long();
  EXPECT_EQ(resp.get("result").get("circuit").as_string(), "c17");
  EXPECT_EQ(resp.get("result").get("sources").as_long(), 5);

  auto analyze_params = [session] {
    JsonValue p = JsonValue::object();
    p.set("session", JsonValue::number(session));
    p.set("paths", JsonValue::number(4L));
    p.set("fastest", JsonValue::number(2L));
    p.set("required_ns", JsonValue::number(1.0));
    return p;
  };

  // Cold: every source searched; the payload equals the batch pipeline's.
  resp = client.call("analyze", analyze_params());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  const JsonValue cold = resp.get("result");
  EXPECT_FALSE(cold.get("truncated").as_bool(true));
  EXPECT_EQ(cold.get("sources").get("searched").as_long(), 5);
  const BatchAnswer batch = batch_c17(4, 2, 1.0);
  EXPECT_EQ(cold.get("report").as_string(), batch.report)
      << "serve-mode report text must be byte-identical to batch --report";
  EXPECT_EQ(response_path_keys(cold), batch.path_keys);

  // Warm repeat: nothing searched, nothing re-timed — and the exact same
  // paths and report bytes come back from the per-source caches.
  resp = client.call("analyze", analyze_params());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  const JsonValue warm = resp.get("result");
  EXPECT_EQ(warm.get("sources").get("searched").as_long(), 0);
  EXPECT_EQ(warm.get("sources").get("reused").as_long(), 5);
  EXPECT_EQ(warm.get("sources").get("retimed").as_long(), 0);
  EXPECT_EQ(warm.get("report").as_string(), batch.report);
  EXPECT_EQ(response_path_keys(warm), batch.path_keys);
  EXPECT_GE(fx.counter("server.cache_reuse"), 1);
  EXPECT_GE(fx.counter("server.sources_reused"), 5);

  // A second load of the same tech/profile reuses the characterized
  // library (the parse+characterize phases never rerun).
  const long reuse_before = fx.counter("server.cache_reuse");
  resp = client.call("load", [] {
    JsonValue p = JsonValue::object();
    p.set("netlist", JsonValue::string("c17"));
    return p;
  }());
  ASSERT_TRUE(resp.find("result") != nullptr);
  EXPECT_TRUE(resp.get("result").get("charlib_reused").as_bool());
  EXPECT_GT(fx.counter("server.cache_reuse"), reuse_before);
}

// The `stats` object carries exactly the search-counter table plus
// cpu_seconds, in table order, and counts only this request's searches: a
// cold analyze matches the batch counters, a warm repeat is all zeros.
TEST(ServerIntegration, AnalyzeStatsCarryEveryTableCounter) {
  ServerFixture fx(test_options(socket_path("stats")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("stats"));
  ASSERT_TRUE(client.connected());

  JsonValue p = JsonValue::object();
  p.set("netlist", JsonValue::string("c17"));
  JsonValue resp = client.call("load", std::move(p));
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  JsonValue params = JsonValue::object();
  params.set("session", resp.get("result").get("session"));

  std::vector<std::string> want_keys;
  for (const sta::SearchCounter& c : sta::kSearchCounters) {
    want_keys.emplace_back(c.name);
  }
  want_keys.emplace_back("cpu_seconds");
  const sta::SearchCounters batch = batch_c17(10, 0, 1.0).stats;

  for (const bool warm : {false, true}) {
    resp = client.call("analyze", params);
    ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
    const JsonValue& stats = resp.get("result").get("stats");
    std::vector<std::string> keys;
    for (const auto& [key, value] : stats.members()) keys.push_back(key);
    EXPECT_EQ(keys, want_keys) << stats.dump();
    for (const sta::SearchCounter& c : sta::kSearchCounters) {
      EXPECT_EQ(stats.get(c.name).as_long(-1), warm ? 0 : batch.*c.field)
          << c.name << (warm ? " (warm)" : " (cold)");
    }
  }
}

TEST(ServerIntegration, EcoIncrementalEqualsForceColdOverTheSocket) {
  ServerFixture fx(test_options(socket_path("eco")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("eco"));
  ASSERT_TRUE(client.connected());

  JsonValue resp = client.call("load", [] {
    JsonValue p = JsonValue::object();
    p.set("netlist", JsonValue::string("c17"));
    return p;
  }());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();

  auto base_params = [] {
    JsonValue p = JsonValue::object();
    p.set("paths", JsonValue::number(6L));
    p.set("required_ns", JsonValue::number(1.0));
    return p;
  };
  resp = client.call("analyze", base_params());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();

  // Unknown instance / cell surface their dedicated codes first.
  JsonValue bad = base_params();
  bad.set("op", JsonValue::string("swap_gate"));
  bad.set("instance", JsonValue::string("nonesuch"));
  bad.set("cell", JsonValue::string("NOR2"));
  resp = client.call("eco", bad);
  EXPECT_EQ(resp.get("error").get("code").as_string(),
            server::kErrNoInstance);
  bad = base_params();
  bad.set("op", JsonValue::string("swap_gate"));
  bad.set("instance", JsonValue::string("g0"));
  bad.set("cell", JsonValue::string("NOCELL9"));
  resp = client.call("eco", bad);
  EXPECT_EQ(resp.get("error").get("code").as_string(), server::kErrNoCell);

  // The real edit: swap the driver of PO 23 to a NOR2, incrementally.
  JsonValue eco = base_params();
  eco.set("op", JsonValue::string("swap_gate"));
  eco.set("instance", JsonValue::string("g0"));
  eco.set("cell", JsonValue::string("NOR2"));
  resp = client.call("eco", eco);
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  const JsonValue incremental = resp.get("result");
  EXPECT_TRUE(incremental.get("eco").get("function_changed").as_bool());
  EXPECT_GT(incremental.get("eco").get("dirty_sources").as_long(), 0);
  EXPECT_GE(fx.counter("server.eco_requests"), 3);
  EXPECT_GE(fx.counter("server.cones_invalidated"), 1);

  // force_cold re-derives everything from scratch on the edited design:
  // the incremental payload must match it byte for byte.
  JsonValue cold_params = base_params();
  cold_params.set("force_cold", JsonValue::boolean(true));
  resp = client.call("analyze", cold_params);
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  const JsonValue cold = resp.get("result");
  EXPECT_EQ(cold.get("sources").get("searched").as_long(),
            cold.get("sources").get("total").as_long());
  EXPECT_EQ(response_path_keys(incremental), response_path_keys(cold));
  EXPECT_EQ(incremental.get("report").as_string(),
            cold.get("report").as_string());
}

// A design with dead logic off the live cone: PI d feeds only w, which
// drives no output, so d is not a search source.  Resizing any gate must
// answer (not E_INTERNAL) and match a cold recompute.
TEST(ServerIntegration, EcoNextToDeadLogicMatchesForceCold) {
  ServerFixture fx(test_options(socket_path("dead")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("dead"));
  ASSERT_TRUE(client.connected());

  JsonValue resp = client.call("load", [] {
    JsonValue p = JsonValue::object();
    p.set("netlist", JsonValue::string("deadlogic"));
    p.set("bench_text",
          JsonValue::string("INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\n"
                            "OUTPUT(y)\ny = NAND(a, z)\nz = AND(b, c)\n"
                            "w = NAND(z, d)\n"));
    return p;
  }());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  EXPECT_EQ(resp.get("result").get("sources").as_long(), 3);

  auto params = [] {
    JsonValue p = JsonValue::object();
    p.set("paths", JsonValue::number(6L));
    p.set("required_ns", JsonValue::number(1.0));
    return p;
  };
  resp = client.call("analyze", params());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();

  for (const char* inst : {"g0", "g1", "g2"}) {
    JsonValue eco = params();
    eco.set("op", JsonValue::string("resize_cell"));
    eco.set("instance", JsonValue::string(inst));
    eco.set("scale", JsonValue::number(2.0));
    resp = client.call("eco", eco);
    ASSERT_TRUE(resp.find("result") != nullptr) << inst << " " << resp.dump();
    const JsonValue incremental = resp.get("result");
    EXPECT_LE(incremental.get("eco").get("dirty_sources").as_long(), 3);

    JsonValue cold_params = params();
    cold_params.set("force_cold", JsonValue::boolean(true));
    resp = client.call("analyze", cold_params);
    ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
    const JsonValue cold = resp.get("result");
    EXPECT_EQ(response_path_keys(incremental), response_path_keys(cold))
        << inst;
    EXPECT_EQ(incremental.get("report").as_string(),
              cold.get("report").as_string())
        << inst;
  }
}

TEST(ServerIntegration, RunReportEmbedsAsSingleLineJson) {
  ServerFixture fx(test_options(socket_path("report")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("report"));
  ASSERT_TRUE(client.connected());

  client.call("load", [] {
    JsonValue p = JsonValue::object();
    p.set("netlist", JsonValue::string("c17"));
    return p;
  }());
  const JsonValue resp = client.call("analyze", JsonValue::object());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  // The embedded run report survived the single-line framing as real,
  // parseable JSON with its schema tag intact.
  const JsonValue& rr = resp.get("result").get("run_report");
  ASSERT_TRUE(rr.is_object() || rr.kind() == JsonValue::Kind::kRaw);
  JsonValue parsed;
  std::string err;
  ASSERT_TRUE(JsonValue::parse(rr.dump(), &parsed, &err)) << err;
  EXPECT_EQ(parsed.get("schema").as_string(), "sasta-run-report-v1");
}

/// The run report embedded in an analyze/eco result, parsed.
JsonValue run_report(const JsonValue& result) {
  JsonValue parsed;
  std::string err;
  EXPECT_TRUE(
      JsonValue::parse(result.get("run_report").dump(), &parsed, &err))
      << err;
  return parsed;
}

// A request's `threads` is capped at the hardware threads: the helper pool
// grows to the largest worker count ever asked for and never shrinks, so an
// uncapped count would keep that many threads alive for good.  c432 has 36
// sources, so even an uncapped run starts at most 35 helpers here.
TEST(ServerIntegration, RequestThreadsAreCappedAtTheHardware) {
  ServerFixture fx(test_options(socket_path("threads")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("threads"));
  ASSERT_TRUE(client.connected());

  JsonValue resp = client.call("load", [] {
    JsonValue p = JsonValue::object();
    p.set("netlist", JsonValue::string("c432"));
    return p;
  }());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();

  // 2^32 + 1 wrapped to 1 when narrowed straight to int.
  for (const double threads : {1e6, 4294967297.0}) {
    JsonValue p = JsonValue::object();
    p.set("threads", JsonValue::number(threads));
    p.set("max_seconds", JsonValue::number(0.05));
    p.set("force_cold", JsonValue::boolean(true));
    resp = client.call("analyze", p);
    ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
    const long workers = run_report(resp.get("result"))
                             .get("metrics")
                             .get("counters")
                             .get("pathfinder.workers")
                             .as_long(-1);
    EXPECT_GE(workers, 1) << threads;
    EXPECT_LE(workers, static_cast<long>(util::ThreadPool::hardware_threads()))
        << threads;
  }
}

// A cold analyze's run report carries one attribution row per searched
// source and no per-source or per-worker metric: the rows are the one
// per-source record, and the `workers` table is folded from them.
TEST(ServerIntegration, ColdRunReportHasOneRowPerSourceAndNoCopies) {
  ServerFixture fx(test_options(socket_path("rows")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("rows"));
  ASSERT_TRUE(client.connected());

  JsonValue resp = client.call("load", [] {
    JsonValue p = JsonValue::object();
    p.set("netlist", JsonValue::string("c17"));
    return p;
  }());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  resp = client.call("analyze", JsonValue::object());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
  const JsonValue& result = resp.get("result");
  const JsonValue report = run_report(result);

  const long searched = result.get("sources").get("searched").as_long();
  EXPECT_EQ(searched, 5);
  EXPECT_EQ(static_cast<long>(
                report.get("attribution").get("sources").size()),
            searched);
  long lane_sources = 0;
  const JsonValue& workers = report.get("workers");
  for (std::size_t i = 0; i < workers.size(); ++i) {
    lane_sources += workers.at(i).get("sources").as_long();
  }
  EXPECT_EQ(lane_sources, searched);

  for (const char* section : {"counters", "gauges", "histograms"}) {
    for (const auto& [key, value] :
         report.get("metrics").get(section).members()) {
      EXPECT_FALSE(key.starts_with("pathfinder.source.")) << key;
      EXPECT_FALSE(key.starts_with("pathfinder.worker.")) << key;
    }
  }
}

// The run report splits a request's wall clock into its stages: five
// session.*_seconds gauges that never add up to more than `seconds`.
TEST(ServerIntegration, RunReportSplitsTheRequestByStage) {
  ServerFixture fx(test_options(socket_path("stages")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("stages"));
  ASSERT_TRUE(client.connected());

  JsonValue resp = client.call("load", [] {
    JsonValue p = JsonValue::object();
    p.set("netlist", JsonValue::string("c17"));
    return p;
  }());
  ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();

  JsonValue eco = JsonValue::object();
  eco.set("op", JsonValue::string("swap_gate"));
  eco.set("instance", JsonValue::string("g0"));
  eco.set("cell", JsonValue::string("NOR2"));
  for (const auto& [method, params] :
       {std::pair{"analyze", JsonValue::object()},
        std::pair{"analyze", JsonValue::object()}, std::pair{"eco", eco}}) {
    resp = client.call(method, params);
    ASSERT_TRUE(resp.find("result") != nullptr) << resp.dump();
    const JsonValue report = run_report(resp.get("result"));
    const JsonValue& gauges = report.get("metrics").get("gauges");
    double sum = 0.0;
    for (const char* stage : {"prepare", "search", "retime", "merge",
                              "render"}) {
      const std::string key = std::string("session.") + stage + "_seconds";
      const JsonValue* g = gauges.find(key);
      ASSERT_NE(g, nullptr) << method << " lacks " << key;
      EXPECT_GE(g->as_double(), 0.0) << key;
      sum += g->as_double();
    }
    EXPECT_LE(sum, resp.get("result").get("seconds").as_double()) << method;
  }
}

TEST(ServerIntegration, ShutdownDrainsAndExitsZero) {
  ServerFixture fx(test_options(socket_path("stop")));
  ASSERT_TRUE(fx.server().listening());
  LineClient client(socket_path("stop"));
  ASSERT_TRUE(client.connected());

  const JsonValue resp = client.call("shutdown", JsonValue::object());
  EXPECT_TRUE(resp.get("result").get("stopping").as_bool());
  EXPECT_EQ(fx.join(), 0);
}

}  // namespace
}  // namespace sasta
