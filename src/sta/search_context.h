// The read-only artifacts a true-path search shares across its workers,
// built once per netlist.
//
// Every PathFinder::run reads the same derived views of the design: the
// compiled logic (LogicView), the SCOAP guide that orders cube choices,
// the "reaches an output" flags, the primary-input support bitsets the
// justifier partitions goals with, each PI's bit in those sets, and the
// topological order.  A SearchContext builds them once.  The batch tool
// builds one per run (PathFinder's netlist constructor owns one); the
// serve-mode session keeps one resident for the lifetime of the design and
// lends it to every request's PathFinder.
//
// An ECO cell swap changes only a gate's function.  replace_cell() then
// patches that gate in the view and re-propagates CC0/CC1 forward from its
// output, only as far as values change.  Reach, supports, PI bits and the
// topological order depend on connectivity alone, which no ECO edit
// changes (sta/eco.h), so they are never recomputed.  A patched context
// equals one built fresh from the edited netlist, field by field.
//
// Searches only read a context, so any number may share one; the owner
// patches it only between searches.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/controllability.h"
#include "netlist/netlist.h"
#include "sta/logic_view.h"

namespace sasta::sta {

class SearchContext {
 public:
  /// Borrows `nl`, which must outlive the context.
  explicit SearchContext(const netlist::Netlist& nl);
  // Holds a reference to its netlist; a copy is never what a caller means.
  SearchContext(const SearchContext&) = delete;
  SearchContext& operator=(const SearchContext&) = delete;

  const netlist::Netlist& netlist() const { return nl_; }
  const LogicView& view() const { return view_; }
  const netlist::Controllability& guide() const { return guide_; }
  /// Per net: some primary output lies in its transitive fanout.
  const std::vector<bool>& reach() const { return reach_; }
  /// Primary-input support bitsets, flat: support_words() words per net,
  /// bit i standing for primary_inputs()[i].
  std::span<const std::uint64_t> supports() const { return supports_; }
  std::size_t support_words() const { return words_; }
  /// Per net: its index among the primary inputs, or -1.
  const std::vector<int>& pi_bit() const { return pi_bit_; }
  const std::vector<netlist::InstId>& topo_order() const {
    return topo_order_;
  }

  /// Follows a Netlist::replace_cell(inst, cell) already applied to the
  /// netlist: recompiles the gate and re-propagates controllability from
  /// its output in topological order while values change.
  void replace_cell(netlist::InstId inst, const cell::Cell* cell);

 private:
  const netlist::Netlist& nl_;
  std::vector<netlist::InstId> topo_order_;
  std::vector<int> topo_pos_;  ///< per instance: its index in topo_order_
  LogicView view_;
  netlist::Controllability guide_;
  std::vector<bool> reach_;
  std::size_t words_ = 0;
  std::vector<std::uint64_t> supports_;
  std::vector<int> pi_bit_;
};

}  // namespace sasta::sta
