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
// Propagation is masked by scenario: an assignment evaluates, refines and
// enqueues only the scenarios the caller still considers alive, and a
// scenario stops propagating at its first conflict.  This is exact: the
// closure of a scenario depends neither on the evaluation order nor on the
// other scenario, and the bytes of a dead scenario are never read before
// the caller rolls the state back.
#pragma once

#include <memory>

#include "sta/assignment.h"
#include "sta/logic_view.h"

namespace sasta::sta {

/// One steady-line requirement (a goal of the backtracking solver in
/// justify.h).
struct Goal {
  netlist::NetId net = netlist::kNoId;
  bool value = false;
};

class ImplicationEngine {
 public:
  /// Borrows `view`, which must outlive the engine (the path finder shares
  /// one view across its workers).
  ImplicationEngine(const LogicView& view, AssignmentState& state)
      : view_(&view), state_(state) {}
  /// Builds and owns a view of `nl`.
  ImplicationEngine(const netlist::Netlist& nl, AssignmentState& state)
      : owned_view_(std::make_unique<LogicView>(nl)),
        view_(owned_view_.get()),
        state_(state) {}

  const LogicView& view() const { return *view_; }

  /// Scenarios that hit a contradiction during propagation.
  struct Result {
    unsigned conflict = kScenarioNone;
  };

  /// Refines net `n` with a steady value in `scenarios` and propagates
  /// those scenarios only; the other scenario's values are left as they
  /// are.  Conflicts are accumulated per scenario; propagation continues
  /// for a scenario that has not conflicted.
  Result assign_steady(netlist::NetId n, bool value,
                       unsigned scenarios = kScenarioBoth);

  /// Refines net `n` with explicit per-scenario values and propagates
  /// (used to launch the path transition at a primary input).
  Result assign_dual(netlist::NetId n, const logicsys::NineVal& vr,
                     const logicsys::NineVal& vf);

  /// Evaluates one instance's output value from current input values
  /// without modifying state.
  DualVal evaluate(netlist::InstId inst) const;

 private:
  /// Output word of `inst` for the parts of `scenarios` (other parts X).
  std::uint32_t eval_word(netlist::InstId inst, unsigned scenarios) const;
  /// Propagates the narrowing of `seed` in `changed` through its fanout,
  /// with `live` the scenarios allowed to propagate.
  Result propagate_from(netlist::NetId seed, unsigned changed,
                        unsigned live);

  struct Pending {
    netlist::InstId inst;
    unsigned scenarios;  ///< parts whose inputs narrowed
  };

  std::unique_ptr<const LogicView> owned_view_;
  const LogicView* view_;
  AssignmentState& state_;
  std::vector<Pending> worklist_;
};

}  // namespace sasta::sta
