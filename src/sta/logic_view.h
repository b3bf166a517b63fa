// Flat, immutable compilation of a netlist's logic for the implication
// kernel and the justifier.
//
// The search's inner loop evaluates a gate, refines its output and walks
// the output's fanout, tens of millions of times per ISCAS-class run.  The
// Netlist answers those questions through bounds-checked containers of
// per-object vectors (Instance::inputs, Net::fanouts) and a cell pointer
// chase per truth table.  A LogicView answers them from a few contiguous
// arrays filled once, in one pass, when a search is prepared:
//  - per instance: truth-table bits, domain mask, cell, output net and a
//    slice of a flat input-net array;
//  - per net: its driver and a CSR slice of fanout instances.
//
// Search workers only read a view, so they all share one.  It mirrors the
// netlist's logic: after an ECO cell swap (Netlist::replace_cell) its owner
// patches the one gate with replace_cell(), between searches.  Connectivity
// never changes, so nothing else in the view ever moves.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace sasta::sta {

class LogicView {
 public:
  explicit LogicView(const netlist::Netlist& nl);

  /// One compiled instance (32 bytes).
  struct Gate {
    std::uint64_t bits = 0;    ///< truth table, bit m = f(minterm m)
    std::uint64_t domain = 0;  ///< minterms that exist for the arity
    const cell::Cell* cell = nullptr;
    std::uint32_t input_begin = 0;  ///< offset into the flat input array
    netlist::NetId output = netlist::kNoId;

    bool operator==(const Gate&) const = default;
  };

  int num_nets() const { return static_cast<int>(driver_.size()); }
  int num_instances() const { return static_cast<int>(gates_.size()) - 1; }

  // Unchecked accessors: callers pass ids they obtained from this view or
  // range-checked themselves.
  const Gate& gate(netlist::InstId i) const { return gates_[i]; }
  std::span<const netlist::NetId> inputs(netlist::InstId i) const {
    return {inputs_.data() + gates_[i].input_begin,
            gates_[i + 1].input_begin - gates_[i].input_begin};
  }
  netlist::InstId driver(netlist::NetId n) const { return driver_[n]; }
  std::span<const netlist::InstId> fanout(netlist::NetId n) const {
    return {fanout_.data() + fanout_begin_[n],
            fanout_begin_[n + 1] - fanout_begin_[n]};
  }

  /// Recompiles instance `i` for `cell`, which has the same pin count as
  /// the cell it replaces.  Must not run while a search reads the view.
  void replace_cell(netlist::InstId i, const cell::Cell* cell);

  bool operator==(const LogicView&) const = default;

 private:
  /// num_instances() + 1 entries; the last is a sentinel whose input_begin
  /// closes the final instance's input slice.
  std::vector<Gate> gates_;
  std::vector<netlist::NetId> inputs_;
  std::vector<netlist::InstId> driver_;
  std::vector<std::uint32_t> fanout_begin_;  ///< num_nets() + 1 offsets
  std::vector<netlist::InstId> fanout_;
};

}  // namespace sasta::sta
