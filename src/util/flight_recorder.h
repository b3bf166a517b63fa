// Always-on, low-overhead flight recorder for the source-parallel search.
//
// Each worker owns a FlightLane: a single-producer ring of fixed-size POD
// events (two 64-bit words per slot) plus a "current activity" slot updated
// in place.  Writers use relaxed atomic stores and never allocate, lock, or
// branch on anything observable by the search, so recording cannot perturb
// results (the neutrality invariant shared with metrics/trace/attribution).
// Readers — the stall watchdog, the --progress heartbeat, and the
// post-mortem dump path — run concurrently with writers: every slot word is
// a std::atomic<uint64_t>, so concurrent snapshots are torn at worst, never
// racy, and the snapshot logic discards slots the writer may have lapped.
//
// On top of the rings live three consumers:
//   * StallWatchdog — a thread that wakes every --watchdog-seconds, compares
//     a per-lane progress signature (paths recorded + sources finished), and
//     on a no-progress window logs a where-is-everyone report naming each
//     worker's current source/gate/depth and writes a flight dump.
//   * Post-mortem dumps — install_flight_signal_handlers() arms SIGSEGV /
//     SIGABRT / SIGBUS handlers (dump, then re-raise the default action) and
//     a SIGUSR1 on-demand trigger.  FlightRecorder::dump(fd) is
//     async-signal-safe: it formats integers with a hand-rolled decimal
//     writer into a fixed stack buffer and emits bytes with write(2) only —
//     no malloc, no stdio, no locks.  The gate/net name table is
//     preformatted at arm time so even a crash dump carries names.
//   * SIGINT — install_interrupt_handler() turns the first Ctrl-C into a
//     cooperative interrupt flag (polled by the search's deadline authority
//     so a partial report can still be written); the second one force-exits.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace sasta::util {

/// Event kinds recorded on the search hot path.  Values are part of the
/// flightdump format; append only.
enum class FlightEventKind : std::uint8_t {
  kNone = 0,         // empty slot
  kSourceClaim = 1,  // a = source net id, b = source index
  kSourceDone = 2,   // a = source net id, b = paths recorded for it
  kTrial = 3,        // arg = pin, a = gate inst id, b = search depth
  // 4-7 are retired (memo-cache hit/prune, solver escalation/veto) and 8
  // is retired (a word-packed trial sweep); never reuse them.
  kBacktrackBurst = 9,  // a = backtracks used, b = alive mask
  kPathRecorded = 10,  // arg = launch bit, a = steps, b = sink net id
  kTaskSpawn = 11,     // arg = task count, a = source net id, b = candidates
  kTaskSteal = 12,     // arg = victim lane, a = source net id, b = chunk index
};

/// Stable short name for a kind ("trial", "path_recorded", ...); "?" for
/// retired or out-of-range values (possible in a torn crash-dump slot).
const char* flight_event_kind_name(std::uint8_t kind);

/// Sentinel for "no current source/gate" in activity slots.
inline constexpr std::uint32_t kFlightIdle = 0xffffffffu;

/// A decoded ring slot.
struct FlightEvent {
  std::uint64_t seq = 0;    // monotone per-lane sequence number
  std::uint64_t ts_us = 0;  // microseconds since recorder epoch
  std::uint8_t kind = 0;
  std::uint16_t arg = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// One worker's ring + activity slot.  Single producer (the owning worker);
/// any number of concurrent readers.
class FlightLane {
 public:
  /// Appends an event.  Hot path: one clock read, two relaxed stores, one
  /// release store.  Never allocates or blocks.
  void record(FlightEventKind kind, std::uint16_t arg, std::uint32_t a,
              std::uint32_t b) {
    const std::uint64_t seq = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[seq & mask_];
    const std::uint64_t ts = now_us() & ((std::uint64_t{1} << 40) - 1);
    s.w0.store((ts << 24) |
                   (static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind))
                    << 16) |
                   arg,
               std::memory_order_relaxed);
    s.w1.store((static_cast<std::uint64_t>(a) << 32) | b,
               std::memory_order_relaxed);
    head_.store(seq + 1, std::memory_order_release);
  }

  // --- activity slot (in-place, relaxed; single writer) ------------------
  void set_source(std::uint32_t net) {
    source_.store(net, std::memory_order_relaxed);
  }
  void set_gate(std::uint32_t inst, std::uint32_t depth) {
    gate_.store(inst, std::memory_order_relaxed);
    depth_.store(depth, std::memory_order_relaxed);
  }
  void set_idle() {
    source_.store(kFlightIdle, std::memory_order_relaxed);
    gate_.store(kFlightIdle, std::memory_order_relaxed);
    depth_.store(0, std::memory_order_relaxed);
  }
  void count_trial() {
    trials_.store(trials_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }
  void note_path_recorded() {
    paths_.store(paths_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    progress_trials_.store(trials_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  }
  void note_source_done() {
    sources_done_.store(sources_done_.load(std::memory_order_relaxed) + 1,
                        std::memory_order_relaxed);
    progress_trials_.store(trials_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  }

  struct Activity {
    std::uint32_t source = kFlightIdle;  // current source PI net (or idle)
    std::uint32_t gate = kFlightIdle;    // gate under trial (or idle)
    std::uint32_t depth = 0;             // search depth (goal-stack frames)
    std::uint64_t trials = 0;            // vector trials attempted
    std::uint64_t paths = 0;             // paths recorded
    std::uint64_t sources_done = 0;      // sources finished
    std::uint64_t progress_trials = 0;   // trials at last path/source event
  };
  Activity activity() const {
    Activity a;
    a.source = source_.load(std::memory_order_relaxed);
    a.gate = gate_.load(std::memory_order_relaxed);
    a.depth = depth_.load(std::memory_order_relaxed);
    a.trials = trials_.load(std::memory_order_relaxed);
    a.paths = paths_.load(std::memory_order_relaxed);
    a.sources_done = sources_done_.load(std::memory_order_relaxed);
    a.progress_trials = progress_trials_.load(std::memory_order_relaxed);
    return a;
  }

  /// Total events ever recorded (monotone; exceeds capacity() once wrapped).
  std::uint64_t events_recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  std::size_t capacity() const { return slots_.size(); }

  /// Copies the newest events (up to last_n) into decoded form, oldest
  /// first.  Safe concurrent with the producer: slots the writer may have
  /// lapped during the copy are discarded.
  std::vector<FlightEvent> snapshot(std::size_t last_n) const;

 private:
  friend class FlightRecorder;
  FlightLane(std::size_t capacity_pow2, const std::int64_t* epoch_ns)
      : slots_(capacity_pow2), mask_(capacity_pow2 - 1), epoch_ns_(epoch_ns) {}
  FlightLane(const FlightLane&) = delete;
  FlightLane& operator=(const FlightLane&) = delete;

  std::uint64_t now_us() const;

  struct Slot {
    // w0 = ts_us:40 | kind:8 | arg:16 ;  w1 = a:32 | b:32
    std::atomic<std::uint64_t> w0{0};
    std::atomic<std::uint64_t> w1{0};
  };
  std::vector<Slot> slots_;
  const std::uint64_t mask_;
  const std::int64_t* epoch_ns_;  // recorder epoch (CLOCK_MONOTONIC ns)
  std::atomic<std::uint64_t> head_{0};
  // Activity slot.
  std::atomic<std::uint32_t> source_{kFlightIdle};
  std::atomic<std::uint32_t> gate_{kFlightIdle};
  std::atomic<std::uint32_t> depth_{0};
  std::atomic<std::uint64_t> trials_{0};
  std::atomic<std::uint64_t> paths_{0};
  std::atomic<std::uint64_t> sources_done_{0};
  std::atomic<std::uint64_t> progress_trials_{0};
};

/// Owns one FlightLane per worker plus the shared epoch and the
/// preformatted name table used by dumps.
class FlightRecorder {
 public:
  struct Config {
    unsigned lanes = 1;
    std::size_t events_per_lane = 4096;  // rounded up to a power of two
  };
  explicit FlightRecorder(const Config& cfg);

  unsigned num_lanes() const { return static_cast<unsigned>(lanes_.size()); }
  FlightLane& lane(unsigned i) { return *lanes_[i]; }
  const FlightLane& lane(unsigned i) const { return *lanes_[i]; }
  std::size_t events_per_lane() const { return lanes_[0]->capacity(); }

  /// Microseconds since the recorder was constructed.
  std::uint64_t now_us() const;

  /// Installs the preformatted id→name table embedded verbatim in dumps
  /// ("net <id> <name>\n" / "inst <id> <name>\n" lines).  Must be called
  /// before workers start; dumps read it without synchronization.
  void set_name_table(std::string table) { name_table_ = std::move(table); }
  const std::string& name_table() const { return name_table_; }

  /// Watchdog bookkeeping: count of detected no-progress windows.
  void note_stall() { stalls_.fetch_add(1, std::memory_order_relaxed); }
  long stalls() const { return stalls_.load(std::memory_order_relaxed); }

  /// Sum of events recorded across lanes (monotone).
  std::uint64_t total_events() const;

  /// Writes the sasta-flightdump-v1 text format to fd using only
  /// async-signal-safe calls (write(2) + hand-rolled formatting).  Safe to
  /// call from a signal handler and concurrent with writers.
  void dump(int fd) const;

  /// open(2)/truncate + dump + close.  Also async-signal-safe.  Returns
  /// false when the file cannot be opened.
  bool dump_to_path(const char* path) const;

 private:
  std::vector<std::unique_ptr<FlightLane>> lanes_;
  std::string name_table_;
  std::atomic<long> stalls_{0};
  std::int64_t epoch_ns_ = 0;
};

/// Per-lane activity → human-readable where-is-everyone report.  Name
/// resolvers may be null (ids are printed raw).  Pure function of the
/// recorder state; unit-testable without a real stall.
std::string format_stall_report(
    const FlightRecorder& rec, double stalled_seconds,
    const std::function<std::string(std::uint32_t)>& net_name,
    const std::function<std::string(std::uint32_t)>& inst_name);

/// Background thread that detects no-global-progress windows.  Progress is
/// paths recorded + sources finished (trial counts intentionally excluded:
/// a livelocked search still burns trials).  A window with zero progress
/// while at least one lane is busy fires the stall report.
class StallWatchdog {
 public:
  struct Hooks {
    std::function<std::string(std::uint32_t)> net_name;   // may be null
    std::function<std::string(std::uint32_t)> inst_name;  // may be null
    /// Called with the formatted report on each stalled window; defaults to
    /// a WARN log line.
    std::function<void(const std::string&)> on_stall;
    /// When non-empty, a flight dump is written here on each stall.
    std::string dump_path;
    /// TEST-ONLY injectable pacing: when true the watchdog thread never
    /// waits on the wall clock — it sleeps until tick_for_testing() hands
    /// it exactly one evaluation window.  Stall accounting still advances
    /// by interval_seconds per tick, so reports read identically; the test
    /// just controls *when* windows close instead of racing a timer.
    bool manual_tick = false;
  };
  StallWatchdog(FlightRecorder& rec, double interval_seconds, Hooks hooks);
  ~StallWatchdog();  // stops and joins

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// TEST-ONLY (requires Hooks::manual_tick): closes one evaluation window
  /// and blocks until the watchdog thread has fully processed it — any
  /// stall report / dump for that window is complete when this returns.
  /// Deterministic replacement for sleeping past a wall-clock interval.
  void tick_for_testing();

 private:
  void loop();

  FlightRecorder& rec_;
  double interval_seconds_;
  Hooks hooks_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable tick_done_cv_;
  std::uint64_t ticks_requested_ = 0;
  std::uint64_t ticks_done_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

/// Arms SIGSEGV/SIGABRT/SIGBUS post-mortem handlers (dump to `dump_path`,
/// then restore the default action and re-raise) and the SIGUSR1 on-demand
/// trigger (truncate + dump, then continue).  The dump fd is opened here,
/// in normal context, so the handlers never call open(2) on a corrupted
/// heap.  `rec` must outlive the process's use of these signals.
void install_flight_signal_handlers(FlightRecorder* rec,
                                    const std::string& dump_path);

/// Arms SIGINT: first delivery sets the cooperative interrupt flag, second
/// restores the default action and re-raises.
void install_interrupt_handler();

/// True once SIGINT was delivered (or request_interrupt() called).  Polled
/// by the search deadline authority.
bool interrupt_requested();

/// Programmatic equivalents, used by tests.
void request_interrupt();
void clear_interrupt_for_testing();

}  // namespace sasta::util
