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
// stats), while the netlist, characterized library, remaining-delay bounds
// and the SearchContext (compiled logic view, reachability, PI-support
// bitsets, SCOAP guide) are shared read-only.  A finder builds and owns its
// context, or borrows one its caller keeps resident across runs and patches
// between them (the serve-mode session does, across ECO swaps).  Recorded
// paths are buffered per source and merged in source order after the join,
// so every thread count delivers the exact sequential order (see
// PathFinderOptions::num_threads for the pruning caveat).
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
#include "sta/search_context.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace sasta::sta {

/// Search-cost attribution filled in by PathFinder::run() when
/// PathFinderOptions::attribution points here.  Answers "where did the
/// effort go": which source PIs, which worker lanes and which fanin-cone
/// gates consumed the trials, backtracks and seconds that aggregate stats
/// only report as totals.  The sources rows are the one per-source record
/// of a run: the run report's per-worker table and --selfcheck derive from
/// them.
///
/// Like metrics/trace, attribution is observational: collecting it never
/// changes enumerated paths.  Every cost figure is charged to exactly one
/// owner, so the tables reconcile with PathFinderStats — the sources rows
/// sum to every aggregate counter of kSearchCounters, and the gates rows
/// sum to vector_trials.
struct SearchAttribution {
  /// One row per searched source PI, in source order: the source's share of
  /// every search counter, its DFS wall clock and the worker that ran it.
  struct SourceCost : SearchCounters {
    netlist::NetId source = netlist::kNoId;
    double seconds = 0.0;
    unsigned worker = 0;  ///< worker index; trace lane = worker + 1
  };
  /// One row per instance with any attributed trial; a vector trial is
  /// charged to the gate being entered.
  struct GateCost {
    netlist::InstId inst = netlist::kNoId;
    long vector_trials = 0;
  };

  std::vector<SourceCost> sources;  ///< ordered by source-PI search order
  std::vector<GateCost> gates;      ///< ordered by instance id
  unsigned workers = 0;  ///< the run's worker count (lanes with no source too)
};

// --- perfbench/probe.cpp compatibility --------------------------------
// Enumerations of removed search modes, kept only so the frozen benchmark
// probe compiles (see the compatibility block of PathFinderOptions).
enum class JustifyCacheMode { kShared };
enum class JustifyTier { kBoth };
enum class ScheduleMode { kSource };

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

  /// Disable the SCOAP-guided cube ordering (ablation knob; the search
  /// stays complete either way).
  bool use_scoap_guide = true;

  /// Worker threads for the source-parallel search: 0 = hardware
  /// concurrency.  Each worker searches whole sources, so at most one
  /// worker per searched source is started.  Worker 0 runs on the calling
  /// thread (a single worker streams paths to the sink) and the rest on
  /// helper threads shared by every run in the process.  Without n_worst
  /// pruning, every thread count delivers the same paths in the same order,
  /// bit for bit: each source's DFS is deterministic and the per-source
  /// buffers are merged in source-PI order.  With n_worst pruning the
  /// *recorded superset* may vary with thread interleaving (the shared
  /// pruning floor tightens at different times), but the top-N set itself
  /// is invariant — the floor is always a lower bound on the final N-th
  /// worst delay, so no member of the true top-N set is ever pruned.  Runs
  /// truncated by max_paths / max_seconds keep a deterministic *count* but
  /// not a deterministic set when threads > 1.
  int num_threads = 1;

  // --- Observability (all optional; null / <= 0 is a zero-overhead no-op).
  // Metrics and traces record observed state only and are NEVER inputs to
  // search decisions, so the enumerated paths are bit-identical with
  // instrumentation on or off at every thread count.

  /// Run-level counters/gauges plus the justification-depth histogram are
  /// recorded here (workers observe the histogram directly under the
  /// registry's lock).  Per-source and per-worker figures live in
  /// `attribution`.
  util::MetricsRegistry* metrics = nullptr;
  /// Chrome trace-event spans: the preparation phase, the run, and one span
  /// per source-PI search on lane `tid = worker + 1`.
  util::TraceCollector* trace = nullptr;
  /// Search-cost attribution sink: when non-null, run() fills it with
  /// per-source and per-gate cost tables (see SearchAttribution).  Borrowed; overwritten on every run().
  SearchAttribution* attribution = nullptr;

  /// Flight recorder (borrowed; null = off): run() announces its source
  /// count with begin_run(), and each worker writes search milestones into
  /// lane `tid` and keeps its activity slot current.  Live views of the
  /// run (util::RunMonitor) read the lanes from outside the search.  Like
  /// every observability sink, the recorder is write-only for the search —
  /// nothing recorded ever feeds back into a search decision, so paths and
  /// report bytes are bit-identical with the recorder on or off at every
  /// thread count.
  util::FlightRecorder* flight = nullptr;
  /// TEST-ONLY: invoked after every counted vector trial with the instance
  /// under trial.  Lets the stall-injection test block a worker
  /// deterministically; must never be set outside tests (any side effect on
  /// shared state would break the determinism contract).
  std::function<void(netlist::InstId)> test_trial_hook;

  /// When set, only sources (primary inputs) accepted by the filter are
  /// searched; the rest are skipped before any scheduling happens, so the
  /// searched subset runs with exactly the semantics of a netlist whose
  /// other PIs did not exist.  This is the ECO-incremental
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
  ScheduleMode schedule = ScheduleMode::kSource;
};

class PathFinder {
 public:
  /// Builds and owns the search context of `nl`.
  PathFinder(const netlist::Netlist& nl, const charlib::CharLibrary& charlib,
             const PathFinderOptions& options = {});
  /// Borrows `ctx` (and its netlist), which must outlive the finder and
  /// stay unpatched while run() reads it.
  PathFinder(const SearchContext& ctx, const charlib::CharLibrary& charlib,
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

  /// Resets the worker's search context for `source`, commits the launch
  /// transition and runs the source's DFS.
  void search_source(Worker& w, netlist::NetId source);
  /// search_source wrapped with the per-source observability: a trace span
  /// on the worker's lane, the source's attribution row (exact — sources
  /// never span workers) and the recorder's source milestones.
  void run_source(Worker& w, std::size_t source_index, netlist::NetId source);
  void extend(Worker& w, netlist::NetId net, unsigned alive);
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

  // Shared read-only search artifacts.
  std::unique_ptr<const SearchContext> owned_ctx_;  ///< null when borrowed
  const SearchContext& ctx_;
  const netlist::Netlist& nl_;
  const charlib::CharLibrary& charlib_;
  PathFinderOptions opt_;

  // Run-scoped shared state.
  const std::function<void(const TruePath&)>* sink_ = nullptr;
  double deadline_ = -1;
  util::Stopwatch run_watch_;
  std::atomic<bool> stop_{false};
  std::atomic<long> total_recorded_{0};

  // Observability state (the histogram id is registered per run; all
  // recording is gated on opt_.metrics / opt_.trace being non-null).
  util::HistogramId justify_depth_hist_;
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
