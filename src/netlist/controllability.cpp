#include "netlist/controllability.h"

#include <algorithm>

#include "netlist/levelize.h"
#include "util/check.h"

namespace sasta::netlist {

namespace {
constexpr int kInf = 1 << 28;
}  // namespace

std::array<int, 2> gate_controllability(const cell::Cell& cell,
                                        std::span<const NetId> inputs,
                                        const Controllability& cc) {
  std::array<int, 2> out{};
  for (const bool value : {false, true}) {
    int best = kInf;
    for (const cell::Cube& cube : cell.prime_cubes(value)) {
      int cost = 1;
      for (int p = 0; p < cell.num_inputs(); ++p) {
        if (!cube.constrains(p)) continue;
        cost += cc.cc[inputs[p]][cube.literal(p) ? 1 : 0];
        if (cost >= kInf) break;
      }
      best = std::min(best, cost);
    }
    out[value ? 1 : 0] = best;
  }
  return out;
}

Controllability compute_controllability(const netlist::Netlist& nl) {
  return compute_controllability(nl, netlist::levelize(nl).topo_order);
}

Controllability compute_controllability(const netlist::Netlist& nl,
                                        std::span<const InstId> topo_order) {
  Controllability out;
  out.cc.assign(nl.num_nets(), {kInf, kInf});
  for (netlist::NetId pi : nl.primary_inputs()) out.cc[pi] = {1, 1};
  for (netlist::InstId ii : topo_order) {
    const netlist::Instance& inst = nl.instance(ii);
    out.cc[inst.output] = gate_controllability(*inst.cell, inst.inputs, out);
  }
  return out;
}

}  // namespace sasta::netlist
