#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "cell/library_builder.h"
#include "charlib/characterizer.h"
#include "charlib/serialize.h"
#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "netlist/verilog.h"
#include "server/protocol.h"
#include "tech/technology.h"
#include "util/check.h"
#include "util/flight_recorder.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace sasta::server {

namespace {

/// Embeds an already-rendered (possibly pretty-printed) JSON document in
/// a single-line response: newlines outside strings are pure formatting
/// (string values escape theirs as \n), so stripping them preserves the
/// document and the framing.
std::string single_line(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (const char c : json) {
    if (c != '\n') out.push_back(c);
  }
  return out;
}

util::JsonValue path_json(const netlist::Netlist& nl,
                          const sta::TimedPath& tp) {
  util::JsonValue p = util::JsonValue::object();
  p.set("source", util::JsonValue::string(nl.net(tp.path.source).name));
  p.set("sink", util::JsonValue::string(nl.net(tp.path.sink).name));
  p.set("edge", util::JsonValue::string(
                    tp.path.launch_edge == spice::Edge::kRise ? "R" : "F"));
  p.set("stages",
        util::JsonValue::number(static_cast<long>(tp.path.steps.size())));
  p.set("delay_ps", util::JsonValue::number(tp.delay * 1e12));
  return p;
}

util::JsonValue stats_json(const sta::PathFinderStats& s) {
  util::JsonValue v = util::JsonValue::object();
  v.set("paths_recorded", util::JsonValue::number(s.paths_recorded));
  v.set("courses", util::JsonValue::number(s.courses));
  v.set("multi_vector_courses",
        util::JsonValue::number(s.multi_vector_courses));
  v.set("vector_trials", util::JsonValue::number(s.vector_trials));
  v.set("justify_limited", util::JsonValue::number(s.justify_limited));
  v.set("cpu_seconds", util::JsonValue::number(s.cpu_seconds));
  return v;
}

util::JsonValue analyze_json(const netlist::Netlist& nl,
                             const Session::AnalyzeOutcome& out) {
  util::JsonValue r = util::JsonValue::object();
  r.set("circuit", util::JsonValue::string(nl.name()));
  r.set("truncated", util::JsonValue::boolean(out.truncated));
  util::JsonValue paths = util::JsonValue::array();
  for (const sta::TimedPath& tp : out.result.paths) {
    paths.push_back(path_json(nl, tp));
  }
  r.set("paths", std::move(paths));
  util::JsonValue fastest = util::JsonValue::array();
  for (const sta::TimedPath& tp : out.result.fastest) {
    fastest.push_back(path_json(nl, tp));
  }
  r.set("fastest", std::move(fastest));
  r.set("stats", stats_json(out.result.stats));
  util::JsonValue sources = util::JsonValue::object();
  sources.set("total",
              util::JsonValue::number(static_cast<long>(out.sources_total)));
  sources.set("searched", util::JsonValue::number(static_cast<long>(
                              out.sources_searched)));
  sources.set("reused", util::JsonValue::number(
                            static_cast<long>(out.sources_reused)));
  sources.set("retimed", util::JsonValue::number(
                             static_cast<long>(out.sources_retimed)));
  r.set("sources", std::move(sources));
  r.set("seconds", util::JsonValue::number(out.seconds));
  if (!out.report_text.empty()) {
    r.set("report", util::JsonValue::string(out.report_text));
  }
  r.set("run_report", util::JsonValue::raw(single_line(out.run_report_json)));
  return r;
}

Session::AnalyzeRequest parse_analyze_params(const util::JsonValue& p) {
  Session::AnalyzeRequest req;
  req.paths = p.get("paths").as_long(req.paths);
  req.fastest = p.get("fastest").as_long(req.fastest);
  req.required_ns = p.get("required_ns").as_double(req.required_ns);
  req.want_report = p.get("report").as_bool(req.want_report);
  req.force_cold = p.get("force_cold").as_bool(req.force_cold);
  req.threads = static_cast<int>(p.get("threads").as_long(req.threads));
  req.max_seconds = p.get("max_seconds").as_double(req.max_seconds);
  return req;
}

}  // namespace

Server::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerOptions options)
    : opt_(std::move(options)), library_(cell::build_standard_library()) {
  // Register every server metric before creating the writer shard (see the
  // registry's contract: shards only carry slots known at creation).
  m_requests_ = metrics_.counter("server.requests");
  m_errors_ = metrics_.counter("server.errors");
  m_sessions_ = metrics_.counter("server.sessions");
  m_eco_requests_ = metrics_.counter("server.eco_requests");
  m_cache_reuse_ = metrics_.counter("server.cache_reuse");
  m_cones_invalidated_ = metrics_.counter("server.cones_invalidated");
  m_sources_reused_ = metrics_.counter("server.sources_reused");
  m_request_seconds_ = metrics_.histogram(
      "server.request_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 60.0});
  shard_ = &metrics_.create_shard();
}

Server::~Server() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::request_stop() {
  stop_.store(true, std::memory_order_release);
  cv_.notify_all();
}

void Server::write_line(Conn& conn, const std::string& line) {
  std::lock_guard<std::mutex> lk(conn.write_mu);
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(conn.fd, framed.data() + off,
                             framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return;  // client went away; its response is moot
    off += static_cast<std::size_t>(n);
  }
}

void Server::enqueue(std::shared_ptr<Conn> conn, std::string line) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(Pending{std::move(conn), std::move(line)});
  }
  cv_.notify_one();
}

void Server::reader_loop(std::shared_ptr<Conn> conn) {
  std::string buffer;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) enqueue(conn, std::move(line));
    }
    buffer.erase(0, start);
  }
}

void Server::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 200);
    if (pr <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    auto conn = std::make_shared<Conn>(fd);
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_) continue;  // conn closes on scope exit
    conns_.push_back(conn);
    readers_.emplace_back([this, conn] { reader_loop(conn); });
  }
}

void Server::begin_drain() {
  std::lock_guard<std::mutex> lk(mu_);
  if (draining_) return;
  draining_ = true;
  stop_.store(true, std::memory_order_release);
  // Wake every blocked reader; their loops end at the EOF this forces.
  for (const std::weak_ptr<Conn>& weak : conns_) {
    if (const std::shared_ptr<Conn> conn = weak.lock()) {
      ::shutdown(conn->fd, SHUT_RD);
    }
  }
}

int Server::run() {
  if (opt_.socket_path.empty() ||
      opt_.socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    SASTA_LOG(kError) << "serve: bad socket path '" << opt_.socket_path
                      << "'";
    return 1;
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    SASTA_LOG(kError) << "serve: socket() failed: " << std::strerror(errno);
    return 1;
  }
  ::unlink(opt_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 16) < 0) {
    SASTA_LOG(kError) << "serve: bind/listen on '" << opt_.socket_path
                      << "' failed: " << std::strerror(errno);
    return 1;
  }
  listening_.store(true, std::memory_order_release);
  SASTA_LOG(kInfo) << "serving " << kProtocolVersion << " on "
                   << opt_.socket_path;
  acceptor_ = std::thread([this] { accept_loop(); });

  // Dispatcher: strictly FIFO, one request at a time (see header).
  while (true) {
    Pending item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, std::chrono::milliseconds(100), [this] {
        return !queue_.empty() || stop_.load(std::memory_order_acquire);
      });
      if (util::interrupt_requested()) {
        stop_.store(true, std::memory_order_release);
      }
      if (queue_.empty()) {
        if (stop_.load(std::memory_order_acquire)) break;
        continue;
      }
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    dispatch(item, /*draining=*/false);
    if (util::interrupt_requested()) {
      stop_.store(true, std::memory_order_release);
    }
  }

  begin_drain();
  // Everything still queued is answered E_SHUTDOWN, never silently
  // dropped; the request that was in flight when the stop arrived already
  // got its (possibly truncated) response above.
  std::deque<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lk(mu_);
    leftovers.swap(queue_);
  }
  for (const Pending& item : leftovers) dispatch(item, /*draining=*/true);
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (std::thread& t : readers_) {
      if (t.joinable()) t.join();
    }
    readers_.clear();
    conns_.clear();
  }
  if (!opt_.metrics_json_path.empty()) {
    std::ofstream os(opt_.metrics_json_path);
    metrics_.write_json(os);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(opt_.socket_path.c_str());
  SASTA_LOG(kInfo) << "serve: drained, exiting";
  return 0;
}

Session& Server::find_session(const util::JsonValue& p) {
  if (sessions_.empty()) {
    throw SessionError{kErrNoSession, "no session loaded yet (call load)"};
  }
  const util::JsonValue* s = p.find("session");
  if (s == nullptr) {
    // Convenience for scripting: the most recently loaded session.
    return *sessions_.rbegin()->second;
  }
  const auto it = sessions_.find(s->as_long(-1));
  if (it == sessions_.end()) {
    throw SessionError{kErrNoSession,
                       "no session " + std::to_string(s->as_long(-1))};
  }
  return *it->second;
}

util::JsonValue Server::handle_load(const util::JsonValue& p) {
  std::string tech_name = p.get("tech").as_string();
  if (tech_name.empty()) tech_name = opt_.tech;
  const tech::Technology& tech = tech::technology(tech_name);
  const bool full = p.get("full_char").as_bool(opt_.full_char);

  // The same netlist pipeline as the batch CLI, plus inline bench text.
  const std::string name = p.get("netlist").as_string();
  const std::string bench_text = p.get("bench_text").as_string();
  netlist::Netlist mapped;
  if (!bench_text.empty()) {
    const netlist::PrimNetlist prim = netlist::parse_bench_string(
        bench_text, name.empty() ? "inline" : name);
    mapped = netlist::tech_map(prim, library_).netlist;
  } else if (name.empty()) {
    throw SessionError{kErrBadParams,
                       "load requires \"netlist\" or \"bench_text\""};
  } else if (std::filesystem::exists(name) &&
             (name.ends_with(".v") || name.ends_with(".verilog"))) {
    mapped = netlist::parse_verilog_file(name, library_);
  } else {
    netlist::PrimNetlist prim;
    if (name == "c17") {
      prim = netlist::parse_bench_string(netlist::c17_bench_text(), "c17");
    } else if (std::filesystem::exists(name)) {
      prim = netlist::parse_bench_file(name);
    } else {
      prim = netlist::generate_iscas_like(netlist::iscas_profile(name));
    }
    mapped = netlist::tech_map(prim, library_).netlist;
  }

  // Warm characterized-library cache: the expensive artifact every batch
  // invocation pays for again is loaded (or characterized) once per
  // tech/profile here and then shared by every session.
  const std::string key = tech_name + "/" + (full ? "full" : "fast");
  std::shared_ptr<const charlib::CharLibrary> cl;
  const auto it = charlibs_.find(key);
  const bool charlib_reused = it != charlibs_.end();
  if (charlib_reused) {
    cl = it->second;
    shard_->add(m_cache_reuse_);
  } else {
    charlib::CharacterizeOptions copt;
    copt.profile = full ? charlib::CharacterizeOptions::Profile::kFull
                        : charlib::CharacterizeOptions::Profile::kFast;
    const std::string cache_dir = opt_.charcache_dir.empty()
                                      ? charlib::default_cache_dir()
                                      : opt_.charcache_dir;
    cl = std::make_shared<charlib::CharLibrary>(
        charlib::load_or_characterize(library_, tech, copt, cache_dir));
    charlibs_.emplace(key, cl);
  }

  const long sid = next_session_++;
  auto session = std::make_unique<Session>(mapped.name(), std::move(mapped),
                                           cl, &library_, &tech,
                                           opt_.session_defaults);
  const Session& ref = *session;
  sessions_.emplace(sid, std::move(session));
  shard_->add(m_sessions_);

  const netlist::Netlist& nl = ref.netlist();
  util::JsonValue r = util::JsonValue::object();
  r.set("session", util::JsonValue::number(sid));
  r.set("circuit", util::JsonValue::string(nl.name()));
  r.set("cells",
        util::JsonValue::number(static_cast<long>(nl.num_instances())));
  r.set("complex_cells", util::JsonValue::number(
                             static_cast<long>(nl.complex_gate_count())));
  r.set("pis", util::JsonValue::number(
                   static_cast<long>(nl.primary_inputs().size())));
  r.set("pos", util::JsonValue::number(
                   static_cast<long>(nl.primary_outputs().size())));
  r.set("sources",
        util::JsonValue::number(static_cast<long>(ref.num_sources())));
  r.set("tech", util::JsonValue::string(tech_name));
  r.set("profile", util::JsonValue::string(full ? "full" : "fast"));
  r.set("charlib_reused", util::JsonValue::boolean(charlib_reused));
  return r;
}

void Server::dispatch(const Pending& item, bool draining) {
  util::Stopwatch watch;
  shard_->add(m_requests_);
  long id = -1;
  bool has_id = false;
  std::string code;
  std::string message;
  const std::optional<RpcRequest> parsed =
      parse_request(item.line, &code, &message, &id, &has_id);
  util::JsonValue response;
  if (!parsed) {
    shard_->add(m_errors_);
    write_line(*item.conn, make_error(id, has_id, code, message).dump());
    shard_->observe(m_request_seconds_, watch.elapsed_seconds());
    return;
  }
  const RpcRequest& req = *parsed;
  if (draining) {
    shard_->add(m_errors_);
    response = make_error(req.id, req.has_id, kErrShutdown,
                          "server is draining; retry against a new server");
    write_line(*item.conn, response.dump());
    return;
  }

  try {
    const util::JsonValue& p = req.params;
    if (req.method == kMethodPing) {
      util::JsonValue r = util::JsonValue::object();
      r.set("pong", util::JsonValue::boolean(true));
      response = make_response(req.id, req.has_id, std::move(r));
    } else if (req.method == kMethodHello) {
      util::JsonValue r = util::JsonValue::object();
      r.set("server", util::JsonValue::string("sasta"));
      r.set("protocol", util::JsonValue::string(kProtocolVersion));
      util::JsonValue methods = util::JsonValue::array();
      for (const char* m : {kMethodPing, kMethodHello, kMethodLoad,
                            kMethodAnalyze, kMethodEco, kMethodMetrics,
                            kMethodShutdown}) {
        methods.push_back(util::JsonValue::string(m));
      }
      r.set("methods", std::move(methods));
      r.set("sessions",
            util::JsonValue::number(static_cast<long>(sessions_.size())));
      response = make_response(req.id, req.has_id, std::move(r));
    } else if (req.method == kMethodLoad) {
      response = make_response(req.id, req.has_id, handle_load(p));
    } else if (req.method == kMethodAnalyze) {
      Session& session = find_session(p);
      const Session::AnalyzeOutcome out =
          session.analyze(parse_analyze_params(p));
      if (out.sources_reused > 0) shard_->add(m_cache_reuse_);
      shard_->add(m_sources_reused_, static_cast<long>(out.sources_reused));
      response = make_response(req.id, req.has_id,
                               analyze_json(session.netlist(), out));
    } else if (req.method == kMethodEco) {
      Session& session = find_session(p);
      shard_->add(m_eco_requests_);
      Session::EcoRequest eco;
      eco.op = p.get("op").as_string();
      eco.instance = p.get("instance").as_string();
      eco.cell = p.get("cell").as_string();
      eco.scale = p.get("scale").as_double(eco.scale);
      if (const util::JsonValue* t = p.find("temp_c")) {
        eco.has_temp = t->is_number();
        eco.temp_c = t->as_double();
      }
      if (const util::JsonValue* v = p.find("vdd")) {
        eco.has_vdd = v->is_number();
        eco.vdd = v->as_double();
      }
      eco.analyze = parse_analyze_params(p);
      const Session::EcoOutcome out = session.apply_eco(eco);
      shard_->add(m_cones_invalidated_,
                  static_cast<long>(out.dirty_sources));
      if (out.analyze.sources_reused > 0) shard_->add(m_cache_reuse_);
      shard_->add(m_sources_reused_,
                  static_cast<long>(out.analyze.sources_reused));
      util::JsonValue r = analyze_json(session.netlist(), out.analyze);
      util::JsonValue eco_r = util::JsonValue::object();
      eco_r.set("op", util::JsonValue::string(eco.op));
      eco_r.set("dirty_sources", util::JsonValue::number(static_cast<long>(
                                     out.dirty_sources)));
      eco_r.set("affected_instances",
                util::JsonValue::number(
                    static_cast<long>(out.affected_instances)));
      eco_r.set("function_changed",
                util::JsonValue::boolean(out.function_changed));
      r.set("eco", std::move(eco_r));
      response = make_response(req.id, req.has_id, std::move(r));
    } else if (req.method == kMethodMetrics) {
      std::ostringstream os;
      metrics_.write_json(os);
      util::JsonValue r = util::JsonValue::object();
      r.set("server_metrics", util::JsonValue::raw(single_line(os.str())));
      response = make_response(req.id, req.has_id, std::move(r));
    } else if (req.method == kMethodShutdown) {
      util::JsonValue r = util::JsonValue::object();
      r.set("stopping", util::JsonValue::boolean(true));
      response = make_response(req.id, req.has_id, std::move(r));
      request_stop();
    } else {
      shard_->add(m_errors_);
      response = make_error(req.id, req.has_id, kErrNoMethod,
                            "unknown method '" + req.method + "'");
    }
  } catch (const SessionError& e) {
    shard_->add(m_errors_);
    response = make_error(req.id, req.has_id, e.code, e.message);
  } catch (const std::exception& e) {
    shard_->add(m_errors_);
    response = make_error(req.id, req.has_id, kErrInternal, e.what());
  }
  write_line(*item.conn, response.dump());
  shard_->observe(m_request_seconds_, watch.elapsed_seconds());
}

}  // namespace sasta::server
