#include "sta/eco.h"

#include <vector>

#include "util/check.h"

namespace sasta::sta {

EcoImpact compute_eco_impact(const netlist::Netlist& nl,
                             std::span<const netlist::InstId> touched,
                             bool include_load_coupling) {
  EcoImpact impact;
  impact.dirty.assign(nl.num_nets(), false);

  // A = touched ∪ (drivers of touched's input nets): resizing/swapping an
  // instance changes the capacitance its pins present, which moves the
  // equivalent fanout — and therefore the stage delay — of the gates
  // driving those nets.
  std::vector<bool> affected(nl.num_instances(), false);
  for (netlist::InstId i : touched) {
    SASTA_CHECK(i >= 0 && i < nl.num_instances()) << " instance " << i;
    if (!affected[i]) {
      affected[i] = true;
      ++impact.affected_instances;
    }
    if (!include_load_coupling) continue;
    for (netlist::NetId in : nl.instance(i).inputs) {
      const netlist::InstId driver = nl.net(in).driver;
      if (driver != netlist::kNoId && !affected[driver]) {
        affected[driver] = true;
        ++impact.affected_instances;
      }
    }
  }

  // Forward BFS over nets: mark TFO(A) starting from A's output nets.
  std::vector<bool> marked(nl.num_nets(), false);
  std::vector<netlist::NetId> frontier;
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    if (!affected[i]) continue;
    const netlist::NetId out = nl.instance(i).output;
    if (!marked[out]) {
      marked[out] = true;
      frontier.push_back(out);
    }
  }
  while (!frontier.empty()) {
    const netlist::NetId n = frontier.back();
    frontier.pop_back();
    for (const netlist::Fanout& f : nl.net(n).fanouts) {
      const netlist::NetId out = nl.instance(f.inst).output;
      if (!marked[out]) {
        marked[out] = true;
        frontier.push_back(out);
      }
    }
  }

  // Reverse walk through drivers: the PI support of the marked primary
  // outputs is exactly the set of sources whose own fanout cone meets the
  // output-reaching part of TFO(A).
  std::vector<bool> visited(nl.num_nets(), false);
  for (const netlist::NetId n : nl.primary_outputs()) {
    if (marked[n] && !visited[n]) {
      visited[n] = true;
      frontier.push_back(n);
    }
  }
  while (!frontier.empty()) {
    const netlist::NetId n = frontier.back();
    frontier.pop_back();
    if (nl.net(n).is_primary_input) {
      impact.dirty[n] = true;
      continue;
    }
    const netlist::InstId driver = nl.net(n).driver;
    if (driver == netlist::kNoId) continue;
    for (netlist::NetId in : nl.instance(driver).inputs) {
      if (!visited[in]) {
        visited[in] = true;
        frontier.push_back(in);
      }
    }
  }

  for (netlist::NetId pi : nl.primary_inputs()) {
    if (impact.dirty[pi]) impact.dirty_sources.push_back(pi);
  }
  return impact;
}

std::uint64_t component_support_mask(const netlist::Netlist& nl,
                                     std::span<const netlist::InstId> touched) {
  // Undirected BFS alternating nets and instances; the component mask is
  // the union of the folded bits of every reachable net.
  std::vector<bool> net_seen(nl.num_nets(), false);
  std::vector<bool> inst_seen(nl.num_instances(), false);
  std::vector<netlist::InstId> inst_frontier;
  std::vector<netlist::NetId> net_frontier;
  for (netlist::InstId i : touched) {
    SASTA_CHECK(i >= 0 && i < nl.num_instances()) << " instance " << i;
    if (!inst_seen[i]) {
      inst_seen[i] = true;
      inst_frontier.push_back(i);
    }
  }
  std::uint64_t mask = 0;
  auto visit_net = [&](netlist::NetId n) {
    if (net_seen[n]) return;
    net_seen[n] = true;
    net_frontier.push_back(n);
    mask |= std::uint64_t{1} << (static_cast<std::uint64_t>(n) & 63);
  };
  while (!inst_frontier.empty() || !net_frontier.empty()) {
    while (!inst_frontier.empty()) {
      const netlist::InstId i = inst_frontier.back();
      inst_frontier.pop_back();
      const netlist::Instance& inst = nl.instance(i);
      visit_net(inst.output);
      for (netlist::NetId in : inst.inputs) visit_net(in);
    }
    while (!net_frontier.empty()) {
      const netlist::NetId n = net_frontier.back();
      net_frontier.pop_back();
      const netlist::Net& net = nl.net(n);
      if (net.driver != netlist::kNoId && !inst_seen[net.driver]) {
        inst_seen[net.driver] = true;
        inst_frontier.push_back(net.driver);
      }
      for (const netlist::Fanout& f : net.fanouts) {
        if (!inst_seen[f.inst]) {
          inst_seen[f.inst] = true;
          inst_frontier.push_back(f.inst);
        }
      }
    }
  }
  return mask;
}

}  // namespace sasta::sta
