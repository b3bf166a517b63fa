#include "util/flight_recorder.h"

#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <sstream>

#include "util/log.h"
#include "util/strings.h"

namespace sasta::util {

namespace {

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

const char* flight_event_kind_name(std::uint8_t kind) {
  switch (static_cast<FlightEventKind>(kind)) {
    case FlightEventKind::kNone: return "none";
    case FlightEventKind::kSourceClaim: return "source_claim";
    case FlightEventKind::kSourceDone: return "source_done";
    case FlightEventKind::kTrial: return "trial";
    case FlightEventKind::kBacktrackBurst: return "backtrack_burst";
    case FlightEventKind::kPathRecorded: return "path_recorded";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FlightLane

std::uint64_t FlightLane::now_us() const {
  return static_cast<std::uint64_t>(monotonic_ns() - *epoch_ns_) / 1000;
}

std::vector<FlightEvent> FlightLane::snapshot(std::size_t last_n) const {
  const std::uint64_t end = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  std::uint64_t window = std::min<std::uint64_t>(last_n, std::min(end, cap));
  std::uint64_t begin = end - window;

  // Raw copy first, then validate: the producer may lap us mid-copy.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> raw;
  raw.reserve(window);
  for (std::uint64_t seq = begin; seq < end; ++seq) {
    const Slot& s = slots_[seq & mask_];
    raw.emplace_back(s.w0.load(std::memory_order_relaxed),
                     s.w1.load(std::memory_order_relaxed));
  }

  // Any slot whose sequence number is no longer within one full lap of the
  // new head may have been overwritten (or be mid-overwrite: the producer
  // has at most one write in flight, at sequence end2).  Keep only
  // seq > end2 - cap, i.e. drop the slot that physically aliases the
  // in-flight write too.
  const std::uint64_t end2 = head_.load(std::memory_order_acquire);
  const std::uint64_t safe_begin = end2 >= cap ? end2 - cap + 1 : 0;

  std::vector<FlightEvent> out;
  out.reserve(raw.size());
  for (std::uint64_t i = 0; i < raw.size(); ++i) {
    const std::uint64_t seq = begin + i;
    if (seq < safe_begin) continue;
    FlightEvent e;
    e.seq = seq;
    e.ts_us = raw[i].first >> 24;
    e.kind = static_cast<std::uint8_t>((raw[i].first >> 16) & 0xff);
    e.arg = static_cast<std::uint16_t>(raw[i].first & 0xffff);
    e.a = static_cast<std::uint32_t>(raw[i].second >> 32);
    e.b = static_cast<std::uint32_t>(raw[i].second & 0xffffffffu);
    out.push_back(e);
  }
  return out;
}

// ---------------------------------------------------------------------------
// FlightRecorder

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(const Config& cfg) {
  epoch_ns_ = monotonic_ns();
  const unsigned lanes = std::max(1u, cfg.lanes);
  const std::size_t cap =
      round_up_pow2(std::max<std::size_t>(8, cfg.events_per_lane));
  lanes_.reserve(lanes);
  for (unsigned i = 0; i < lanes; ++i) {
    lanes_.emplace_back(new FlightLane(cap, &epoch_ns_));
  }
}

std::uint64_t FlightRecorder::now_us() const {
  return static_cast<std::uint64_t>(monotonic_ns() - epoch_ns_) / 1000;
}

std::uint64_t FlightRecorder::total_events() const {
  std::uint64_t total = 0;
  for (const auto& l : lanes_) total += l->events_recorded();
  return total;
}

// ---------------------------------------------------------------------------
// Async-signal-safe dump.
//
// Everything below this point down to dump_to_path() must stay on the
// async-signal-safe allowlist: write(2), open(2), close(2), plus pure
// in-process formatting into stack buffers.  No malloc, no stdio, no
// locks, no C++ iostreams.  (clock_gettime is on the POSIX allowlist.)

namespace {

/// Buffered fd writer built exclusively from write(2).
struct FdWriter {
  explicit FdWriter(int fd) : fd(fd) {}
  ~FdWriter() { flush(); }

  void flush() {
    std::size_t off = 0;
    while (off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) break;  // best effort: we may be crashing
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void put(const char* s, std::size_t n) {
    if (n > sizeof(buf)) {  // oversized chunk (name table): stream directly
      flush();
      std::size_t off = 0;
      while (off < n) {
        const ssize_t w = ::write(fd, s + off, n - off);
        if (w <= 0) return;
        off += static_cast<std::size_t>(w);
      }
      return;
    }
    if (len + n > sizeof(buf)) flush();
    std::memcpy(buf + len, s, n);
    len += n;
  }
  void str(const char* s) { put(s, std::strlen(s)); }
  void u64(std::uint64_t v) {
    char tmp[24];
    int i = sizeof(tmp);
    do {
      tmp[--i] = static_cast<char>('0' + (v % 10));
      v /= 10;
    } while (v != 0);
    put(tmp + i, sizeof(tmp) - static_cast<std::size_t>(i));
  }
  /// Prints kFlightIdle as "-" so activity lines read naturally.
  void id_or_dash(std::uint32_t v) {
    if (v == kFlightIdle) {
      str("-");
    } else {
      u64(v);
    }
  }

  int fd;
  char buf[4096];
  std::size_t len = 0;
};

}  // namespace

void FlightRecorder::dump(int fd) const {
  FdWriter w(fd);
  w.str("sasta-flightdump-v1\n");
  w.str("now_us ");
  w.u64(now_us());
  w.str("\nstalls ");
  w.u64(static_cast<std::uint64_t>(
      stalls_.load(std::memory_order_relaxed) < 0
          ? 0
          : stalls_.load(std::memory_order_relaxed)));
  w.str("\nlanes ");
  w.u64(lanes_.size());
  w.str(" capacity ");
  w.u64(lanes_.empty() ? 0 : lanes_[0]->capacity());
  w.str("\n");
  // Name table: preformatted in normal context, emitted verbatim.
  if (!name_table_.empty()) w.put(name_table_.data(), name_table_.size());

  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    const FlightLane& lane = *lanes_[li];
    const FlightLane::Activity act = lane.activity();
    w.str("lane ");
    w.u64(li);
    w.str(" activity source ");
    w.id_or_dash(act.source);
    w.str(" gate ");
    w.id_or_dash(act.gate);
    w.str(" depth ");
    w.u64(act.depth);
    w.str(" trials ");
    w.u64(act.trials);
    w.str(" paths ");
    w.u64(act.paths);
    w.str(" sources ");
    w.u64(act.sources_done);
    w.str(" since_progress ");
    w.u64(act.trials - act.progress_trials);
    w.str("\n");

    // Events: same lapped-window logic as snapshot(), but with no
    // allocation — decode straight out of the atomics.
    const std::uint64_t end = lane.head_.load(std::memory_order_acquire);
    const std::uint64_t cap = lane.slots_.size();
    const std::uint64_t begin0 = end > cap ? end - cap : 0;
    const std::uint64_t safe_begin = end >= cap ? end - cap + 1 : 0;
    const std::uint64_t begin = std::max(begin0, safe_begin);
    for (std::uint64_t seq = begin; seq < end; ++seq) {
      const FlightLane::Slot& s = lane.slots_[seq & lane.mask_];
      const std::uint64_t w0 = s.w0.load(std::memory_order_relaxed);
      const std::uint64_t w1 = s.w1.load(std::memory_order_relaxed);
      w.str("lane ");
      w.u64(li);
      w.str(" event ");
      w.u64(seq);
      w.str(" ts ");
      w.u64(w0 >> 24);
      w.str(" kind ");
      w.str(flight_event_kind_name(
          static_cast<std::uint8_t>((w0 >> 16) & 0xff)));
      w.str(" arg ");
      w.u64(w0 & 0xffff);
      w.str(" a ");
      w.u64(w1 >> 32);
      w.str(" b ");
      w.u64(w1 & 0xffffffffu);
      w.str("\n");
    }
  }
  w.str("end\n");
  w.flush();
}

bool FlightRecorder::dump_to_path(const char* path) const {
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  dump(fd);
  ::close(fd);
  return true;
}

// ---------------------------------------------------------------------------
// Stall report + run monitor (normal context; free to allocate/format).

std::string format_stall_report(
    const FlightRecorder& rec, double stalled_seconds,
    const std::function<std::string(std::uint32_t)>& net_name,
    const std::function<std::string(std::uint32_t)>& inst_name) {
  std::ostringstream os;
  char head[96];
  std::snprintf(head, sizeof(head),
                "watchdog: no progress for %.1f s — per-worker activity:",
                stalled_seconds);
  os << head;
  for (unsigned i = 0; i < rec.num_lanes(); ++i) {
    const FlightLane::Activity a = rec.lane(i).activity();
    os << "\n  w" << i << ": ";
    if (a.source == kFlightIdle) {
      os << "idle";
    } else {
      os << "source " << (net_name ? net_name(a.source)
                                   : std::to_string(a.source));
      if (a.gate != kFlightIdle) {
        os << ", gate "
           << (inst_name ? inst_name(a.gate) : std::to_string(a.gate));
      }
      os << ", depth " << a.depth;
    }
    os << ", " << a.trials << " trials (" << (a.trials - a.progress_trials)
       << " since last path)";
  }
  return os.str();
}

RunMonitor::RunMonitor(FlightRecorder& rec, Options options)
    : rec_(rec),
      opt_(std::move(options)),
      line_trials_(rec.num_lanes(), 0),
      line_us_(rec.now_us()),
      stall_sigs_(rec.num_lanes(), 0) {
  for (double* s : {&opt_.progress_seconds, &opt_.watchdog_seconds}) {
    if (*s > 0) *s = std::max(0.01, *s);
  }
  if (opt_.watchdog_seconds > 0) rec_.watchdog_seconds_ = opt_.watchdog_seconds;
  thread_ = std::thread([this] {
#if defined(__linux__)
    pthread_setname_np(pthread_self(), "sasta-monitor");
#endif
    loop();
  });
}

RunMonitor::~RunMonitor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  tick_done_cv_.notify_all();
  thread_.join();
}

void RunMonitor::tick_for_testing() {
  std::unique_lock<std::mutex> lk(mu_);
  const std::uint64_t target = ++ticks_requested_;
  cv_.notify_all();
  tick_done_cv_.wait(lk, [this, target] {
    return stop_ || ticks_done_ >= target;
  });
}

void RunMonitor::loop() {
  using Clock = std::chrono::steady_clock;
  // A schedule's next wall-clock deadline; an unarmed one is never due.
  const auto next = [](double seconds) {
    return seconds > 0 ? Clock::now() +
                             std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds))
                       : Clock::time_point::max();
  };
  Clock::time_point progress_at = next(opt_.progress_seconds);
  Clock::time_point stall_at = next(opt_.watchdog_seconds);
  for (;;) {
    bool progress_due = opt_.progress_seconds > 0;
    bool stall_due = opt_.watchdog_seconds > 0;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (opt_.manual_tick) {
        // Injectable pacing: a tick runs only when the test hands one over,
        // never on the wall clock — evaluation below is unchanged.
        cv_.wait(lk, [this] { return stop_ || ticks_requested_ > ticks_done_; });
        if (stop_) return;
      } else {
        if (cv_.wait_until(lk, std::min(progress_at, stall_at),
                           [this] { return stop_; })) {
          return;
        }
        const Clock::time_point now = Clock::now();
        progress_due = now >= progress_at;
        stall_due = now >= stall_at;
        if (progress_due) progress_at = next(opt_.progress_seconds);
        if (stall_due) stall_at = next(opt_.watchdog_seconds);
      }
    }
    if (progress_due) log_progress();
    if (stall_due) check_stall();
    if (opt_.manual_tick) {
      // Acknowledge the tick only after all of its side effects (line,
      // report, dump) landed, so tick_for_testing() returns to a settled
      // state.
      std::lock_guard<std::mutex> lk(mu_);
      ++ticks_done_;
      tick_done_cv_.notify_all();
    }
  }
}

void RunMonitor::log_progress() {
  const std::uint64_t now_us = rec_.now_us();
  const double span_s = std::max(0.001, (now_us - line_us_) / 1e6);
  line_us_ = now_us;
  std::uint64_t sources_done = 0;
  std::uint64_t trials = 0;
  std::ostringstream lanes;  // one segment per lane
  for (unsigned i = 0; i < rec_.num_lanes(); ++i) {
    const FlightLane::Activity a = rec_.lane(i).activity();
    sources_done += a.sources_done;
    trials += a.trials;
    lanes << " | w" << i << " ";
    if (a.source == kFlightIdle) {
      lanes << "idle";
    } else {
      lanes << (opt_.net_name ? opt_.net_name(a.source)
                              : std::to_string(a.source))
            << " d" << a.depth;
    }
    lanes << " " << static_cast<long>((a.trials - line_trials_[i]) / span_s)
          << "/s";
    line_trials_[i] = a.trials;
  }
  const double elapsed = rec_.run_seconds();
  std::ostringstream msg;
  msg << "progress: " << sources_done << "/" << rec_.run_sources()
      << " sources, " << trials << " vector trials ("
      << static_cast<long>(elapsed > 0 ? trials / elapsed : 0.0) << "/s), "
      << format_fixed(elapsed, 1) << " s elapsed" << lanes.str();
  log_line(LogLevel::kInfo, msg.str());
}

void RunMonitor::check_stall() {
  bool any_busy = false;
  bool progressed = false;
  for (unsigned i = 0; i < rec_.num_lanes(); ++i) {
    const FlightLane::Activity a = rec_.lane(i).activity();
    const std::uint64_t sig = a.paths + a.sources_done;
    if (a.source != kFlightIdle) any_busy = true;
    // The first window only establishes the baseline.
    if (!have_sigs_ || sig != stall_sigs_[i]) progressed = true;
    stall_sigs_[i] = sig;
  }
  have_sigs_ = true;
  if (progressed || !any_busy) {
    stalled_for_ = 0;
    return;
  }
  stalled_for_ += opt_.watchdog_seconds;
  rec_.note_stall();
  const std::string report = format_stall_report(
      rec_, stalled_for_, opt_.net_name, opt_.inst_name);
  if (opt_.on_stall) {
    opt_.on_stall(report);
  } else {
    log_line(LogLevel::kWarning, report);
  }
  if (!opt_.dump_path.empty()) rec_.dump_to_path(opt_.dump_path.c_str());
}

// ---------------------------------------------------------------------------
// Signal plumbing.
//
// Handler rules (reviewed against ARCHITECTURE §11): handlers touch only
// lock-free atomics, the pre-opened dump fd, and FlightRecorder::dump()
// (async-signal-safe by construction, above).  Crash handlers restore the
// default action and re-raise so exit status / core behavior is unchanged.

namespace {

std::atomic<FlightRecorder*> g_recorder{nullptr};
std::atomic<int> g_dump_fd{-1};
std::atomic<int> g_sigint_seen{0};
std::atomic<bool> g_interrupt{false};

void write_dump_header_line(int fd, const char* label, int sig) {
  // "# signal <label> <n>\n" — formatted without stdio.
  char buf[64];
  std::size_t n = 0;
  const char* pre = "# signal ";
  while (*pre) buf[n++] = *pre++;
  while (*label) buf[n++] = *label++;
  buf[n++] = ' ';
  char tmp[12];
  int i = sizeof(tmp);
  unsigned v = static_cast<unsigned>(sig);
  do {
    tmp[--i] = static_cast<char>('0' + (v % 10));
    v /= 10;
  } while (v != 0);
  while (i < static_cast<int>(sizeof(tmp))) buf[n++] = tmp[i++];
  buf[n++] = '\n';
  (void)!::write(fd, buf, n);
}

void crash_handler(int sig) {
  FlightRecorder* rec = g_recorder.load(std::memory_order_relaxed);
  const int fd = g_dump_fd.load(std::memory_order_relaxed);
  if (rec != nullptr && fd >= 0) {
    (void)::lseek(fd, 0, SEEK_SET);
    (void)::ftruncate(fd, 0);
    write_dump_header_line(fd, "crash", sig);
    rec->dump(fd);
    ::fsync(fd);
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

void usr1_handler(int sig) {
  const int saved_errno = errno;
  FlightRecorder* rec = g_recorder.load(std::memory_order_relaxed);
  const int fd = g_dump_fd.load(std::memory_order_relaxed);
  if (rec != nullptr && fd >= 0) {
    (void)::lseek(fd, 0, SEEK_SET);
    (void)::ftruncate(fd, 0);
    write_dump_header_line(fd, "usr1", sig);
    rec->dump(fd);
    ::fsync(fd);
  }
  errno = saved_errno;
}

void sigint_handler(int sig) {
  if (g_sigint_seen.fetch_add(1, std::memory_order_relaxed) >= 1) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
    return;
  }
  g_interrupt.store(true, std::memory_order_relaxed);
}

}  // namespace

void install_flight_signal_handlers(FlightRecorder* rec,
                                    const std::string& dump_path) {
  // Pre-open the dump fd in normal context; handlers only lseek/write it.
  const int fd = ::open(dump_path.c_str(), O_WRONLY | O_CREAT, 0644);
  g_recorder.store(rec, std::memory_order_relaxed);
  g_dump_fd.store(fd, std::memory_order_relaxed);

  struct sigaction crash {};
  crash.sa_handler = crash_handler;
  sigemptyset(&crash.sa_mask);
  crash.sa_flags = 0;
  sigaction(SIGSEGV, &crash, nullptr);
  sigaction(SIGABRT, &crash, nullptr);
  sigaction(SIGBUS, &crash, nullptr);

  struct sigaction usr1 {};
  usr1.sa_handler = usr1_handler;
  sigemptyset(&usr1.sa_mask);
  usr1.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &usr1, nullptr);
}

void install_interrupt_handler() {
  struct sigaction sa {};
  sa.sa_handler = sigint_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
}

bool interrupt_requested() {
  return g_interrupt.load(std::memory_order_relaxed);
}

void request_interrupt() { g_interrupt.store(true, std::memory_order_relaxed); }

void clear_interrupt_for_testing() {
  g_interrupt.store(false, std::memory_order_relaxed);
  g_sigint_seen.store(0, std::memory_order_relaxed);
}

}  // namespace sasta::util
