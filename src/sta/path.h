// True-path records produced by the path finder.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "spice/waveform.h"

namespace sasta::sta {

/// One traversed gate: which instance, through which input pin, using which
/// sensitization vector (index into the characterized library's vector list
/// for that pin).
struct PathStep {
  netlist::InstId inst = netlist::kNoId;
  int pin = 0;
  int vector_id = 0;

  bool operator==(const PathStep&) const = default;
};

/// A sensitized true path for one transition direction.  Paths with the
/// same gate sequence but different sensitization vectors are distinct
/// (paper Section IV.B).
struct TruePath {
  netlist::NetId source = netlist::kNoId;  ///< launching primary input
  netlist::NetId sink = netlist::kNoId;    ///< primary output reached
  spice::Edge launch_edge = spice::Edge::kRise;
  std::vector<PathStep> steps;

  /// Primary-input assignment realizing the sensitization: (net, value).
  /// The launching PI itself is excluded (it carries the transition);
  /// unlisted PIs are don't-cares.
  std::vector<std::pair<netlist::NetId, bool>> pi_assignment;

  /// Identifier of the gate-sequence ("course") disregarding the vector
  /// choice; used to group multi-vector paths.
  std::string course_key(const netlist::Netlist& nl) const;
  /// Identifier including the vector choice and direction.
  std::string full_key(const netlist::Netlist& nl) const;
};

/// Aggregate search statistics of one true-path enumeration run.  The
/// parallel finder keeps one instance per worker and sums them with
/// operator+= when the workers join (all counters are per-source and
/// sources never span workers, so the sums are exact).
struct PathFinderStats {
  long paths_recorded = 0;        ///< (course, vector combo, direction) count
                                  ///< == Table 6 "input vectors"
  long courses = 0;               ///< distinct (gate sequence, direction)
  long multi_vector_courses = 0;  ///< courses with > 1 vector combination
                                  ///< == Table 6 "MultiInput paths"
  long backtracks = 0;
  long vector_trials = 0;         ///< sensitization vectors attempted
  long justify_limited = 0;       ///< solves dropped at the backtrack budget

  // Work-stealing scheduler (zero when PathFinderOptions::schedule is
  // kSource).  Stealing redistributes who executes which frontier task but
  // never what is searched, so every result-bearing counter above is
  // unchanged; tasks_stolen and steal_failures depend on thread timing and
  // are the only interleaving-dependent counters here.
  long tasks_spawned = 0;   ///< frontier tasks created across all sources
  long tasks_stolen = 0;    ///< tasks executed by a non-claiming worker
  long steal_failures = 0;  ///< victim scans that found nothing stealable

  double cpu_seconds = 0.0;       ///< wall clock of run(); on merge, the max
  bool truncated = false;         ///< a limit fired before exhaustion

  PathFinderStats& operator+=(const PathFinderStats& other);

  // --- perfbench/probe.cpp compatibility (always 0) ----------------------
  // Counters of removed search modes that the frozen benchmark probe still
  // prints.  Nothing sets, merges or reports them; drop them together with
  // the probe's reads in a benchmark change.
  long cache_hits = 0;
  long cache_misses = 0;
  long cache_prunes = 0;
  long solver_escalations = 0;
  long escalation_refutes = 0;
};

/// A path with its computed timing.
struct TimedPath {
  TruePath path;
  double delay = 0.0;          ///< seconds, PI transition to PO
  double arrival_slew = 0.0;   ///< output transition time at the PO
  std::vector<double> stage_delays;  ///< per-step, seconds
  std::vector<spice::Edge> stage_in_edges;  ///< input edge at each step
};

}  // namespace sasta::sta
