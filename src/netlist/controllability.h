// SCOAP-style combinational controllability (CC0/CC1): the classic
// testability measure estimating how many primary-input assignments are
// needed to force a net to 0 or 1.
//
// The baseline's sensitization engine orders its candidate side-input cubes
// by total controllability cost, modelling the paper's observation that
// commercial tools commit to "the case for which the complex gate input
// assignations are easier to justify".
#pragma once

#include <array>
#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace sasta::netlist {

struct Controllability {
  /// cc[net][v] = estimated cost of forcing net to v (v in {0, 1}).
  std::vector<std::array<int, 2>> cc;

  int cost(netlist::NetId net, bool value) const {
    return cc.at(net)[value ? 1 : 0];
  }
};

/// Computes CC0/CC1 for every net: primary inputs cost 1; a gate output's
/// cost for value v is 1 plus the cheapest prime cube of the cell function
/// forcing v, where each literal costs the controllability of that input.
Controllability compute_controllability(const netlist::Netlist& nl);
/// The same, over a topological order the caller already holds.
Controllability compute_controllability(const netlist::Netlist& nl,
                                        std::span<const InstId> topo_order);

/// {CC0, CC1} of one gate's output from its cell and input nets: the rule
/// compute_controllability applies to each gate in topological order, so
/// re-applying it from an edited gate forward reproduces a full pass.
std::array<int, 2> gate_controllability(const cell::Cell& cell,
                                        std::span<const NetId> inputs,
                                        const Controllability& cc);

}  // namespace sasta::netlist
