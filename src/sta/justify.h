// Recursive line justification with complete chronological backtracking.
//
// justify_all() decides whether a *conjunction* of steady line requirements
// is realizable from the primary inputs, exploring prime-cube choices with
// full backtracking across requirements: when a later requirement fails,
// earlier requirements' cube choices are revisited.  This completeness is
// what lets the path finder claim exhaustive sensitization-vector
// enumeration (paper Section IV.B) — a first-fit justifier silently loses
// vectors whose side values are only jointly satisfiable under specific
// cube choices.
//
// The search is cube-based and therefore complete for existence: every
// satisfying primary-input assignment is covered by some prime cube at
// every gate on its support.  Conflicts are detected by the shared forward
// implication engine (semi-undetermined values included).
//
// The optional backtrack budget makes the same engine serve as the
// commercial-tool model: the baseline runs with a finite budget and aborts
// ("backtrack limited") on hard cones.

#pragma once

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "netlist/controllability.h"
#include "sta/implication.h"
#include "util/flight_recorder.h"

namespace sasta::sta {

// struct Goal lives in implication.h.

/// Flight-recorder threshold: a justify_all call that consumes at least
/// this many backtracks is logged as a kBacktrackBurst event — the solver
/// calls worth seeing in a post-mortem timeline.
inline constexpr long kBacktrackBurstThreshold = 128;

/// The stop check (see Justifier::set_stop_check) is polled once per this
/// many backtracks: often enough that a stopped run ends within
/// milliseconds, rarely enough to stay off the solver's profile.
inline constexpr long kStopPollBacktracks = 1024;

class Justifier {
 public:
  /// `guide` (optional, borrowed) orders cube choices by SCOAP
  /// controllability cost — a pure search heuristic that leaves
  /// completeness untouched but avoids pathological branch orders on
  /// reconvergent cones.
  /// Reads the netlist through `engine`'s view; `nl` must be the netlist
  /// that view was built from.
  Justifier(const netlist::Netlist& nl, AssignmentState& state,
            ImplicationEngine& engine,
            const netlist::Controllability* guide = nullptr);

  struct Result {
    unsigned alive = kScenarioNone;  ///< scenarios with a found witness
    bool backtrack_limited = false;  ///< gave up due to the budget
    bool stopped = false;            ///< abandoned at the stop check: no
                                     ///< verdict, not a budget drop
    long backtracks_used = 0;        ///< backtracks this call consumed —
                                     ///< the search-cost profiler's
                                     ///< per-solve attribution unit
  };

  /// Attempts to satisfy all `goals` simultaneously for the scenarios in
  /// `alive`.  On success the state holds a consistent justified witness;
  /// on failure the caller must roll back to its own mark (partial
  /// assignments may remain otherwise).  `backtrack_budget` < 0: unlimited.
  Result justify_all(std::span<const Goal> goals, unsigned alive,
                     int backtrack_budget = -1);

  /// Single-goal convenience wrapper.
  Result justify(netlist::NetId net, bool value, unsigned alive,
                 int backtrack_budget = -1) {
    const Goal g{net, value};
    return justify_all(std::span<const Goal>(&g, 1), alive, backtrack_budget);
  }

  /// Backtracks consumed since construction or the last reset.
  long backtracks() const { return backtracks_; }
  void reset_backtracks() { backtracks_ = 0; }

  /// Optional primary-input support table (borrowed): one bitset of PI
  /// indices per net, `words` words each, laid out net after net.  When
  /// present, justify_all partitions its goals into support-disjoint
  /// components and solves them independently: goals whose cones share no
  /// free primary input cannot conflict, so cross-component chronological
  /// backtracking (the classic thrashing pattern) is skipped entirely.  `excluded_bit` removes one PI (the path's transition
  /// source, which is fixed, not a decision) from the overlap test.  An
  /// empty table turns partitioning off.
  void set_supports(std::span<const std::uint64_t> supports,
                    std::size_t words, int excluded_bit = -1) {
    supports_ = supports;
    words_ = words;
    excluded_bit_ = excluded_bit;
  }

  /// Optional flight-recorder lane (borrowed; null = off): justify_all
  /// calls that burn >= kBacktrackBurstThreshold backtracks emit a
  /// kBacktrackBurst event.  Observational only — never read back.
  void set_recorder(util::FlightLane* rec) { rec_ = rec; }

  /// Optional stop authority, polled every kStopPollBacktracks backtracks.
  /// When it returns true the current solve is abandoned: the result has
  /// no live scenario and `stopped` set.  Without one, solves only end at
  /// the budget or at a verdict.
  void set_stop_check(std::function<bool()> stop) {
    stop_check_ = std::move(stop);
  }

 private:
  Result justify_all_inner(std::span<const Goal> goals, unsigned alive,
                           int backtrack_budget);
  Result solve(std::vector<Goal>& goals, std::size_t idx, unsigned alive);
  /// Solves work_, which holds one support component's goals.
  Result solve_work(unsigned alive, int backtrack_budget);

  const LogicView& view_;
  AssignmentState& state_;
  ImplicationEngine& engine_;
  const netlist::Controllability* guide_ = nullptr;
  util::FlightLane* rec_ = nullptr;
  std::function<bool()> stop_check_;
  std::span<const std::uint64_t> supports_;
  std::size_t words_ = 0;
  int excluded_bit_ = -1;
  // Scratch reused by every call, so a solve allocates nothing once the
  // vectors have grown: the union-find over goal indices, the goal indices
  // in (component root, index) order, and the solver's goal stack.
  std::vector<int> parent_;
  std::vector<std::pair<int, int>> order_;
  std::vector<Goal> work_;
  long backtracks_ = 0;
  long budget_start_ = 0;  ///< backtracks_ at justify_all entry
  int budget_ = -1;        ///< per-call budget; < 0 = unlimited
};

}  // namespace sasta::sta
