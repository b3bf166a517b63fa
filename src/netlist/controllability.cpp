#include "netlist/controllability.h"

#include <algorithm>

#include "netlist/levelize.h"
#include "util/check.h"

namespace sasta::netlist {

Controllability compute_controllability(const netlist::Netlist& nl) {
  constexpr int kInf = 1 << 28;
  Controllability out;
  out.cc.assign(nl.num_nets(), {kInf, kInf});
  for (netlist::NetId pi : nl.primary_inputs()) out.cc[pi] = {1, 1};

  const auto lv = netlist::levelize(nl);
  for (netlist::InstId ii : lv.topo_order) {
    const netlist::Instance& inst = nl.instance(ii);
    for (const bool value : {false, true}) {
      int best = kInf;
      for (const cell::Cube& cube : inst.cell->prime_cubes(value)) {
        int cost = 1;
        for (int p = 0; p < inst.cell->num_inputs(); ++p) {
          if (!cube.constrains(p)) continue;
          cost += out.cost(inst.inputs[p], cube.literal(p));
          if (cost >= kInf) break;
        }
        best = std::min(best, cost);
      }
      out.cc[inst.output][value ? 1 : 0] = best;
    }
  }
  return out;
}

}  // namespace sasta::netlist
