// True-path records produced by the path finder.
#pragma once

#include <array>
#include <string>
#include <string_view>
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

/// The search counters: one table for stats, per-source attribution rows,
/// per-source metrics, the run report, the daemon's `stats` object and
/// `--selfcheck`.  Every counter is charged to the source whose DFS produced
/// it and sums exactly across sources and workers, so consumers loop over
/// kSearchCounters instead of naming fields.  Adding a counter is one field
/// plus one table row (and its docs rows, which tools/check_docs_sync reads
/// from the table).
struct SearchCounters {
  long paths_recorded = 0;
  long courses = 0;
  long multi_vector_courses = 0;
  long vector_trials = 0;
  long backtracks = 0;
  long justify_limited = 0;

  bool operator==(const SearchCounters&) const = default;
  SearchCounters& operator+=(const SearchCounters& other);
  SearchCounters& operator-=(const SearchCounters& other);
};

/// One row of the counter table.
struct SearchCounter {
  std::string_view name;     ///< key in every JSON surface and metric name
  std::string_view unit;
  std::string_view meaning;
  long SearchCounters::*field;
};

inline constexpr std::array<SearchCounter, 6> kSearchCounters{{
    {"paths_recorded", "paths",
     "true (path, vector combination, direction) records; Table 6 "
     "\"input vectors\"",
     &SearchCounters::paths_recorded},
    {"courses", "courses", "distinct (gate sequence, direction) pairs",
     &SearchCounters::courses},
    {"multi_vector_courses", "courses",
     "courses with more than one vector combination; Table 6 \"MultiInput "
     "paths\"",
     &SearchCounters::multi_vector_courses},
    {"vector_trials", "trials", "sensitization vectors attempted",
     &SearchCounters::vector_trials},
    {"backtracks", "backtracks", "justifier backtracks",
     &SearchCounters::backtracks},
    {"justify_limited", "solves", "solves dropped at the backtrack budget",
     &SearchCounters::justify_limited},
}};

static_assert(sizeof(SearchCounters) == kSearchCounters.size() * sizeof(long),
              "every SearchCounters field needs a kSearchCounters row");

/// The table name of `field`, for code that names one counter in a message.
constexpr std::string_view counter_name(long SearchCounters::*field) {
  for (const SearchCounter& c : kSearchCounters) {
    if (c.field == field) return c.name;
  }
  return {};
}

inline SearchCounters& SearchCounters::operator+=(const SearchCounters& other) {
  for (const SearchCounter& c : kSearchCounters) {
    this->*c.field += other.*c.field;
  }
  return *this;
}

inline SearchCounters& SearchCounters::operator-=(const SearchCounters& other) {
  for (const SearchCounter& c : kSearchCounters) {
    this->*c.field -= other.*c.field;
  }
  return *this;
}

/// Aggregate search statistics of one true-path enumeration run.  The
/// parallel finder keeps one instance per worker and sums them with
/// operator+= when the workers join: the counters sum, cpu_seconds keeps the
/// max and truncated OR-folds.
struct PathFinderStats : SearchCounters {
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
