#include "sta/search_context.h"

#include <functional>
#include <queue>

#include "netlist/levelize.h"
#include "util/check.h"

namespace sasta::sta {

SearchContext::SearchContext(const netlist::Netlist& nl)
    : nl_(nl),
      topo_order_(netlist::levelize(nl).topo_order),
      view_(nl),
      guide_(netlist::compute_controllability(nl, topo_order_)),
      reach_(netlist::reaches_output(nl)) {
  topo_pos_.resize(topo_order_.size());
  for (std::size_t k = 0; k < topo_order_.size(); ++k) {
    topo_pos_[topo_order_[k]] = static_cast<int>(k);
  }

  // Primary-input support bitsets per net, for the justifier's
  // support-disjoint goal partitioning.
  const int num_pis = static_cast<int>(nl.primary_inputs().size());
  words_ = (num_pis + 63) / 64;
  supports_.assign(nl.num_nets() * words_, 0);
  pi_bit_.assign(nl.num_nets(), -1);
  for (int i = 0; i < num_pis; ++i) {
    const netlist::NetId pi = nl.primary_inputs()[i];
    pi_bit_[pi] = i;
    supports_[pi * words_ + i / 64] |= std::uint64_t{1} << (i % 64);
  }
  for (netlist::InstId ii : topo_order_) {
    std::uint64_t* out = supports_.data() + view_.gate(ii).output * words_;
    for (netlist::NetId in : view_.inputs(ii)) {
      const std::uint64_t* from = supports_.data() + in * words_;
      for (std::size_t w = 0; w < words_; ++w) out[w] |= from[w];
    }
  }
}

void SearchContext::replace_cell(netlist::InstId inst,
                                 const cell::Cell* cell) {
  SASTA_CHECK(inst >= 0 && inst < view_.num_instances() &&
              nl_.instance(inst).cell == cell)
      << " SearchContext::replace_cell must follow Netlist::replace_cell";
  view_.replace_cell(inst, cell);

  // Only gates downstream of a changed net can change, and each depends on
  // gates earlier in topological order alone: popping pending gates by
  // topological position re-evaluates each at most once, after all of its
  // inputs settled.
  std::priority_queue<int, std::vector<int>, std::greater<>> pending;
  pending.push(topo_pos_[inst]);
  while (!pending.empty()) {
    const int pos = pending.top();
    while (!pending.empty() && pending.top() == pos) pending.pop();
    const netlist::InstId i = topo_order_[pos];
    const LogicView::Gate& g = view_.gate(i);
    const std::array<int, 2> cc =
        netlist::gate_controllability(*g.cell, view_.inputs(i), guide_);
    if (cc == guide_.cc[g.output]) continue;
    guide_.cc[g.output] = cc;
    for (netlist::InstId f : view_.fanout(g.output)) pending.push(topo_pos_[f]);
  }
}

}  // namespace sasta::sta
