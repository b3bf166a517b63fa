// saSTA-as-a-service: the --serve daemon (docs/SERVER.md).
//
// One process, one AF_UNIX listening socket, many connections.  An
// acceptor thread accepts; a reader thread per connection splits the byte
// stream into newline-framed sasta-rpc-v1 requests and enqueues them; a
// single dispatcher (the run() caller's thread) executes requests FIFO
// and writes each response back on its connection.  Analyses themselves
// are multi-threaded — the dispatcher hands the whole worker pool to one
// request at a time, which keeps every PathFinder determinism contract
// exactly as in batch mode (concurrent *protocol* activity, serialized
// *search* activity).
//
// What stays warm across requests: characterized libraries (keyed on
// technology + profile — the expensive artifact every batch invocation
// re-loads), and per session the mapped netlist, the complete per-source
// path/timing caches (see server/session.h).
//
// Draining: a `shutdown` request, request_stop(), or SIGINT (the CLI's
// cooperative interrupt flag, polled by the dispatcher between requests
// *and* by the running search's deadline check) all enter the same path —
// stop accepting, finish the in-flight request (a truncated search
// responds normally with "truncated": true), answer every queued request
// with E_SHUTDOWN, close connections, unlink the socket, exit 0.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cell/cell.h"
#include "charlib/charlibrary.h"
#include "server/session.h"
#include "util/json.h"
#include "util/metrics.h"

namespace sasta::server {

struct ServerOptions {
  /// Filesystem path of the AF_UNIX socket.  Created on run(), unlinked
  /// on shutdown (a stale path from a crashed predecessor is replaced).
  std::string socket_path;
  /// Per-session search/delay defaults (threads, budget, schedule, flight
  /// recorder, ...).
  Session::Config session_defaults;
  /// Characterization defaults for `load` requests that do not override.
  std::string tech = "90nm";
  bool full_char = false;
  std::string charcache_dir;  ///< "" = charlib::default_cache_dir()
  /// When non-empty, the server metrics JSON is written here on shutdown.
  std::string metrics_json_path;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and dispatches until drained.  Returns the process
  /// exit code (0 on a clean drain, 1 on a startup failure).
  int run();

  /// Asynchronously requests the drain (same path as `shutdown`).  Safe
  /// from any thread and from before run() — run() then exits
  /// immediately after startup.
  void request_stop();

  /// True once the socket is bound and listening (tests poll this before
  /// connecting).
  bool listening() const {
    return listening_.load(std::memory_order_acquire);
  }

  const util::MetricsRegistry& metrics() const { return metrics_; }

 private:
  /// One client connection.  The fd closes when the last reference drops
  /// (the reader holds one for the connection's lifetime; each queued
  /// request holds one so a response can never race the close).
  struct Conn {
    explicit Conn(int fd) : fd(fd) {}
    ~Conn();
    int fd;
    std::mutex write_mu;  ///< responses are lines; never interleave them
  };

  struct Pending {
    std::shared_ptr<Conn> conn;
    std::string line;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Conn> conn);
  void enqueue(std::shared_ptr<Conn> conn, std::string line);
  void dispatch(const Pending& item, bool draining);
  void write_line(Conn& conn, const std::string& line);
  void begin_drain();
  /// `load` handler: netlist pipeline + warm charlib + new session.
  /// Throws SessionError / util::Error (mapped by dispatch()).
  util::JsonValue handle_load(const util::JsonValue& params);
  /// Resolves "session" from params (absent: the most recently loaded
  /// session).  Throws SessionError(kErrNoSession).
  Session& find_session(const util::JsonValue& params);

  ServerOptions opt_;
  cell::Library library_;
  util::MetricsRegistry metrics_;
  util::MetricsShard* shard_ = nullptr;  ///< owned by metrics_
  util::CounterId m_requests_;
  util::CounterId m_errors_;
  util::CounterId m_sessions_;
  util::CounterId m_eco_requests_;
  util::CounterId m_cache_reuse_;
  util::CounterId m_cones_invalidated_;
  util::CounterId m_sources_reused_;
  util::HistogramId m_request_seconds_;

  int listen_fd_ = -1;
  std::atomic<bool> listening_{false};
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::mutex mu_;  ///< guards queue_, readers_, draining_
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::vector<std::thread> readers_;
  std::vector<std::weak_ptr<Conn>> conns_;
  bool draining_ = false;

  /// Warm characterized libraries, keyed "tech/profile".
  std::map<std::string, std::shared_ptr<const charlib::CharLibrary>>
      charlibs_;
  std::map<long, std::unique_ptr<Session>> sessions_;
  long next_session_ = 1;
};

}  // namespace sasta::server
