// Single-pass true-path enumeration (paper Section IV.B).
//
// The algorithm starts at each primary input with the dual transition value
// (both rising and falling traced simultaneously), advances gate by gate,
// and at every traversed complex-gate input enumerates ALL sensitization
// vectors, justifying the implied side values back to the primary inputs
// with backtracking.  Paths sharing the gate sequence but differing in any
// gate's sensitization vector are reported as distinct paths, preserving
// the vector-dependent delay information.  Logic incompatibilities are
// detected early by forward implication with semi-undetermined values.
//
// Each primary input roots an independent search over its own assignment
// state, so the enumeration is parallelized across sources: worker threads
// pull source PIs from an atomic index, each carrying a private Worker
// context (assignment state, implication engine, justifier, DFS stacks,
// stats), while the netlist, characterized library, reachability,
// PI-support bitsets, SCOAP guide and remaining-delay bounds are shared
// read-only.  Recorded paths are buffered per source and merged in source
// order after the join, so every thread count delivers the exact sequential
// order (see PathFinderOptions::num_threads for the pruning caveat).
#pragma once

#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>

#include "charlib/charlibrary.h"
#include "sta/delaycalc.h"
#include "sta/justify.h"
#include "sta/path.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace sasta::sta {

/// Search-cost attribution filled in by PathFinder::run() when
/// PathFinderOptions::attribution points here.  Answers "where did the
/// effort go": which source PIs and which fanin-cone gates consumed the
/// trials, backtracks and seconds that aggregate stats only report as
/// totals.
///
/// Like metrics/trace, attribution is observational: collecting it never
/// changes enumerated paths.  Every cost figure is charged to exactly one
/// owner, so the tables reconcile with PathFinderStats — the sources rows
/// sum to the aggregate vector_trials/backtracks/paths_recorded/
/// justify_limited, and the gates rows sum to vector_trials.
struct SearchAttribution {
  /// One row per searched source PI, in source order.
  struct SourceCost {
    netlist::NetId source = netlist::kNoId;
    long vector_trials = 0;
    long backtracks = 0;
    long paths_recorded = 0;
    long justify_limited = 0;
    double seconds = 0.0;
  };
  /// One row per instance with any attributed trial; a vector trial is
  /// charged to the gate being entered.
  struct GateCost {
    netlist::InstId inst = netlist::kNoId;
    long vector_trials = 0;
  };

  std::vector<SourceCost> sources;  ///< ordered by source-PI search order
  std::vector<GateCost> gates;      ///< ordered by instance id
};

/// How the parallel search distributes work across worker threads.
enum class ScheduleMode {
  /// One source PI per worker at a time (the PR 1 scheduler): workers pull
  /// whole sources from an atomic index.  Zero coordination inside a
  /// source, but a single dominant cone serializes on one worker.
  kSource,
  /// Work stealing below the source level: the claiming worker splits each
  /// source's DFS at its first fanout frontier into bounded-deque tasks
  /// (contiguous candidate ranges in exact trial order) and idle workers
  /// steal from the busiest victim.  Results are merged in canonical
  /// (source order, frontier-chunk order), which IS the sequential
  /// delivery order — so paths, slacks and report bytes are bit-identical
  /// to kSource at every thread count, regardless of who executed what.
  kSteal,
};

// --- perfbench/probe.cpp compatibility --------------------------------
// Enumerations of removed search modes, kept only so the frozen benchmark
// probe compiles (see the compatibility block of PathFinderOptions).
enum class JustifyCacheMode { kShared };
enum class JustifyTier { kBoth };

struct PathFinderOptions {
  long max_paths = -1;      ///< stop after this many recorded paths (<0: all)
  double max_seconds = -1;  ///< wall-clock guard (<0: unlimited)
  /// Backtrack budget per justification solve.  The search is complete
  /// while the budget holds; exhausting a budget drops that candidate
  /// (counted in stats.justify_limited).  < 0: unlimited / exact — use on
  /// small circuits only, deep reconvergent cones can blow up the complete
  /// search.  The default keeps large ISCAS-class runs tractable while
  /// recovering the vast majority of vectors (see EXPERIMENTS.md).
  int justify_backtrack_budget = 2000;

  /// Transition directions to trace (kScenarioBoth = the paper's dual-value
  /// single pass; a single bit restricts to one launch polarity — used by
  /// the dual-value ablation bench).
  unsigned directions = kScenarioBoth;

  /// N-worst mode (the abstract's "it can be programmed to find efficiently
  /// the N true paths"): when > 0 the DFS carries arrival times and prunes
  /// any extension whose arrival plus an upper bound on the remaining delay
  /// cannot displace the current N-th worst recorded path.  Requires
  /// enable_n_worst_pruning() with a delay calculator.
  long n_worst = -1;

  /// Safety factor on the remaining-delay upper bound (the bound is built
  /// from pessimistic-slew arc maxima, which is heuristic; > 1 widens it).
  double bound_safety = 1.2;

  /// Disable the SCOAP-guided cube ordering (ablation knob; the search
  /// stays complete either way).
  bool use_scoap_guide = true;

  /// Worker threads for the source-parallel search: 0 = hardware
  /// concurrency, 1 = the sequential reference implementation (identical to
  /// the pre-parallel code path).  Without n_worst pruning, every thread
  /// count delivers the same paths in the same order, bit for bit: each
  /// source's DFS is deterministic and the per-source buffers are merged in
  /// source-PI order.  With n_worst pruning the *recorded superset* may
  /// vary with thread interleaving (the shared pruning floor tightens at
  /// different times), but the top-N set itself is invariant — the floor is
  /// always a lower bound on the final N-th worst delay, so no member of
  /// the true top-N set is ever pruned.  Runs truncated by max_paths /
  /// max_seconds keep a deterministic *count* but not a deterministic set
  /// when threads > 1.
  int num_threads = 1;

  /// Worker scheduling policy (see ScheduleMode).  kSteal changes only WHO
  /// executes each frontier task, never WHAT is searched: every task
  /// replays the identical launch state (reset + assign_dual) the
  /// sequential search would carry into its candidate range, and the
  /// canonical merge restores sequential delivery order.  Unlike kSource,
  /// kSteal does not cap the worker count at the source count — that is
  /// precisely the starvation it exists to fix.  The n_worst floor composes
  /// with stealing unchanged (it is already cross-worker shared state).
  ScheduleMode schedule = ScheduleMode::kSource;

  // --- Observability (all optional; null / <= 0 is a zero-overhead no-op).
  // Metrics and traces record observed state only and are NEVER inputs to
  // search decisions, so the enumerated paths are bit-identical with
  // instrumentation on or off at every thread count.

  /// Per-source and per-worker counters/gauges plus the justification-depth
  /// histogram are recorded here (each worker writes its own shard).
  util::MetricsRegistry* metrics = nullptr;
  /// Chrome trace-event spans: the preparation phase, the run, and one span
  /// per source-PI search on lane `tid = worker + 1`.
  util::TraceCollector* trace = nullptr;
  /// Heartbeat period in seconds for INFO-level progress lines from the
  /// source-dispatch loop (sources done / total, vector trials and
  /// trials/sec, elapsed wall clock).  <= 0: off.
  double progress_interval_seconds = -1;
  /// Search-cost attribution sink: when non-null, run() fills it with
  /// per-source and per-gate cost tables (see SearchAttribution).  Borrowed; overwritten on every run().
  SearchAttribution* attribution = nullptr;

  /// Flight recorder (borrowed; null = off): each worker writes search
  /// milestones into lane `tid` of this recorder and keeps its activity
  /// slot current.  Like every observability sink, the recorder is
  /// write-only for the search — nothing recorded ever feeds back into a
  /// search decision, so paths and report bytes are bit-identical with the
  /// recorder on or off at every thread count.
  util::FlightRecorder* flight = nullptr;
  /// Stall-watchdog wake interval in seconds (<= 0: off; needs `flight`).
  /// A window in which no lane records a path or finishes a source while
  /// at least one lane is busy logs a WARN where-is-everyone report.
  double watchdog_seconds = -1;
  /// When non-empty, each watchdog-detected stall also writes a flight
  /// dump here (same format as the signal-triggered dumps).
  std::string watchdog_dump_path;
  /// TEST-ONLY: invoked after every counted vector trial with the instance
  /// under trial.  Lets the stall-injection test block the worker and the
  /// steal-engagement test inject per-gate delay deterministically; must
  /// never be set outside tests (any side effect on shared state would
  /// break the determinism contract).
  std::function<void(netlist::InstId)> test_trial_hook;

  /// When set, only sources (primary inputs) accepted by the filter are
  /// searched; the rest are skipped before any scheduling happens, so the
  /// searched subset runs with exactly the sequential/steal semantics of a
  /// netlist whose other PIs did not exist.  This is the ECO-incremental
  /// hook: the serve-mode session re-runs only dirtied sources and splices
  /// the fresh per-source results over its warm ones.  Per-source true
  /// paths are independent (a source's enumeration never reads another
  /// source's state), so a filtered run's paths for an accepted source are
  /// bit-identical to that source's paths in an unfiltered run — except
  /// under n_worst pruning, whose shared floor couples sources; callers
  /// wanting splice-equality (the session does) must keep n_worst = 0.
  std::function<bool(netlist::NetId)> source_filter;

  // --- perfbench/probe.cpp compatibility (read by nothing) ---------------
  // The frozen benchmark probe still assigns these fields of removed
  // search modes.  They have no effect; drop them together with the
  // probe's assignments in a benchmark change.
  JustifyCacheMode justify_cache = JustifyCacheMode::kShared;
  std::size_t justify_cache_capacity = 0;
  JustifyTier justify_tier = JustifyTier::kBoth;
  double escalation_payoff = 0.0;
  int trial_lanes = 1;
};

class PathFinder {
 public:
  PathFinder(const netlist::Netlist& nl, const charlib::CharLibrary& charlib,
             const PathFinderOptions& options = {});

  /// Enumerates all true paths, invoking `sink` for each.  Returns stats.
  /// The sink is always invoked from the calling thread: sequential runs
  /// stream paths as they are found, parallel runs deliver the merged
  /// per-source buffers after the workers join.
  PathFinderStats run(const std::function<void(const TruePath&)>& sink);

  /// Convenience: collect every path.
  std::vector<TruePath> find_all();

  /// Arms the options.n_worst branch-and-bound pruning with the delay
  /// calculator whose models define the path delays being ranked.  Must be
  /// called before run() when options.n_worst > 0; `calc` is borrowed.
  void enable_n_worst_pruning(const DelayCalculator& calc);

 private:
  struct Arrival {
    double delay = 0.0;
    double slew = 0.0;
    spice::Edge edge = spice::Edge::kRise;
  };

  /// Per-worker mutable search context; see pathfinder.cpp.  Everything a
  /// single-source DFS touches lives here, so workers never share mutable
  /// state except the explicit atomics/heap below.
  struct Worker;

  void search_source(Worker& w, netlist::NetId source);
  /// search_source wrapped with the per-source observability: a trace span
  /// on the worker's lane, per-source counter deltas (exact — sources never
  /// span workers), and the progress-heartbeat bookkeeping.
  void run_source(Worker& w, std::size_t source_index, netlist::NetId source);
  /// Resets the worker's search context for `source` and commits the launch
  /// transition: exactly the state the sequential search carries into the
  /// source's first frontier candidate.  Shared by search_source and the
  /// steal scheduler's task replay (which is what makes a frontier task's
  /// "assignment prefix" trivially — and exactly — reproducible).
  void begin_source_state(Worker& w, netlist::NetId source);
  /// Number of (reachable fanout, sensitization vector) candidates at the
  /// source net's first frontier, in exact extend() trial order.  The steal
  /// scheduler's chunking is a pure function of this count.
  std::size_t count_frontier_candidates(netlist::NetId net) const;
  /// The work-stealing scheduler body (ScheduleMode::kSteal, > 1 worker):
  /// claims sources, expands them into frontier tasks, steals from the
  /// busiest victim when idle, and merges per-(source, chunk) buffers in
  /// canonical order.  Returns the merged stats.
  PathFinderStats run_steal(const std::vector<netlist::NetId>& sources,
                            unsigned n_workers,
                            const std::function<void(const TruePath&)>& sink,
                            const std::function<void(const Worker&)>&
                                fold_gate_tallies);
  /// Registers the per-source / per-worker metric ids and resets the
  /// heartbeat state.  Called once per run(), before any shard exists.
  void prepare_observability(const std::vector<netlist::NetId>& sources,
                             unsigned n_workers);
  /// Emits an INFO progress line when the heartbeat interval elapsed (the
  /// interval is claimed by CAS, so exactly one worker logs per period).
  void maybe_heartbeat();
  void extend(Worker& w, netlist::NetId net, unsigned alive);
  /// The candidate loop of extend(), restricted to frontier candidates with
  /// flat index in [cand_begin, cand_end) — extend() passes the full range;
  /// the steal scheduler executes one chunk per task.  Candidate indices
  /// count the (reachable fanout) x (vector) nesting in exact trial order,
  /// so a range partition of [0, count) partitions the sequential trial
  /// sequence itself.
  void extend_over(Worker& w, netlist::NetId net, unsigned alive,
                   std::size_t cand_begin, std::size_t cand_end);
  void record(Worker& w, netlist::NetId sink_net, unsigned alive);
  /// Polls the shared wall-clock deadline; on expiry flags truncation and
  /// raises the global stop.  The single deadline authority (bugfix: this
  /// used to be polled only every 64 vector trials in extend()).
  bool deadline_hit(Worker& w);
  /// Reserves one slot of options.max_paths (exact across workers); on a
  /// full quota flags truncation and raises the global stop.
  bool claim_record_slot(Worker& w);
  void deliver(Worker& w, TruePath&& p);
  /// Publishes a recorded delay into the shared N-worst heap.
  void note_recorded_delay(double delay);
  /// Relaxed snapshot of the N-th worst delay so far (-1e30 until the heap
  /// is full).  Monotonically non-decreasing, so a stale read only makes
  /// pruning conservative, never wrong.
  double prune_floor() const {
    return prune_floor_.load(std::memory_order_relaxed);
  }

  // Shared read-only search artifacts (built once in the constructor).
  const netlist::Netlist& nl_;
  const charlib::CharLibrary& charlib_;
  PathFinderOptions opt_;
  netlist::Controllability guide_;
  std::vector<std::vector<std::uint64_t>> supports_;
  std::vector<int> pi_bit_;
  std::vector<bool> reach_;

  // Run-scoped shared state.
  const std::function<void(const TruePath&)>* sink_ = nullptr;
  double deadline_ = -1;
  util::Stopwatch run_watch_;
  std::atomic<bool> stop_{false};
  std::atomic<long> total_recorded_{0};

  // Observability state (ids registered per run; all recording is gated on
  // opt_.metrics / opt_.trace being non-null).
  struct SourceMetricIds {
    util::CounterId vector_trials;
    util::CounterId backtracks;
    util::CounterId paths_recorded;
    util::CounterId justify_limited;
    util::GaugeId seconds;
  };
  struct WorkerMetricIds {
    util::CounterId sources;
    util::GaugeId busy_seconds;
  };
  std::vector<SourceMetricIds> source_metric_ids_;
  std::vector<WorkerMetricIds> worker_metric_ids_;
  util::HistogramId justify_depth_hist_;
  // Heartbeat bookkeeping: cheap relaxed atomics updated once per finished
  // source, read by whichever worker claims the next heartbeat slot.
  std::size_t total_sources_ = 0;
  std::atomic<long> sources_done_{0};
  std::atomic<long> trials_flushed_{0};
  std::atomic<long> next_heartbeat_ms_{0};
  // Per-worker heartbeat state (recorder-backed enrichment): trial counts
  // at the previous heartbeat.  Atomics because successive heartbeats can
  // be claimed by different workers.
  std::unique_ptr<std::atomic<std::uint64_t>[]> hb_lane_trials_;
  unsigned hb_lanes_ = 0;
  std::atomic<long> hb_prev_ms_{0};
  /// Attaches the flight-recorder lane matching w.tid (plus the justifier
  /// hooks).  Called once per worker, after tid is set.
  void attach_recorder(Worker& w);

  // N-worst pruning state.  remaining_ub_ is read-only during run();
  // worst_heap_ is the cross-worker pruning floor (mutex-guarded, with the
  // floor value mirrored into a lock-free atomic for the hot read path).
  const DelayCalculator* prune_calc_ = nullptr;
  std::vector<double> remaining_ub_;       ///< per net, seconds
  std::mutex heap_mu_;
  std::vector<double> worst_heap_;         ///< min-heap of recorded delays
  std::atomic<double> prune_floor_{-1e30};
};

}  // namespace sasta::sta
