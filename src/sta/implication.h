// Forward implication: whenever a net's value narrows, re-evaluate its
// fanout gates in three-valued logic (per scenario, init and final parts
// independently) and propagate narrowed outputs through a worklist.
//
// This is the paper's "each time a logic value is assigned to a node, such
// value is propagated through all the gates having such node as an input"
// early-conflict-detection step: it is cheaper than justification and
// surfaces semi-undetermined values (X0/X1) that expose incompatibilities
// before all implied nodes are set.
//
// Besides feeding the goal solver, the engine doubles as the memo cache's
// tier-1 refuter (assign_steady_goals): propagating a whole goal
// conjunction to its fixpoint costs O(cone) with zero backtracking, and a
// closure conflict is already a complete refutation — implication derives
// only logical consequences of the asserted values, so a contradiction
// means no primary-input assignment satisfies the conjunction.
#pragma once

#include <span>

#include "sta/assignment.h"

namespace sasta::sta {

/// One steady-line requirement (shared by the implication-closure refuter
/// and the backtracking goal solver in justify.h).
struct Goal {
  netlist::NetId net = netlist::kNoId;
  bool value = false;
};

class ImplicationEngine {
 public:
  ImplicationEngine(const netlist::Netlist& nl, AssignmentState& state)
      : nl_(nl), state_(state) {}

  /// Scenarios that hit a contradiction during propagation.
  struct Result {
    unsigned conflict = kScenarioNone;
  };

  /// Propagates consequences of the current value of `seed` to all
  /// transitive fanout.  Conflicts are accumulated; propagation continues
  /// for the other scenario.
  Result propagate(netlist::NetId seed);

  /// Refines net `n` with a steady value and propagates.
  Result assign_steady(netlist::NetId n, bool value);

  /// Asserts a whole conjunction of steady goals, propagating each to the
  /// closure fixpoint, and returns the scenarios of `alive` that survive
  /// without contradiction.  Stops early once every scenario has
  /// conflicted.  This is the tiered refuter's implication-only tier:
  /// kScenarioNone means the conjunction is exhaustively refuted (no
  /// backtracking was needed); anything else is merely "not refuted by
  /// closure" — it never certifies satisfiability.
  unsigned assign_steady_goals(std::span<const Goal> goals, unsigned alive);

  /// Refines net `n` with explicit per-scenario values and propagates
  /// (used to launch the path transition at a primary input).
  Result assign_dual(netlist::NetId n, const logicsys::NineVal& vr,
                     const logicsys::NineVal& vf);

  /// Evaluates one instance's output value from current input values
  /// without modifying state.
  DualVal evaluate(netlist::InstId inst) const;

 private:
  Result run_worklist();

  const netlist::Netlist& nl_;
  AssignmentState& state_;
  std::vector<netlist::InstId> worklist_;
};

}  // namespace sasta::sta
