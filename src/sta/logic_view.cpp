#include "sta/logic_view.h"

namespace sasta::sta {

LogicView::LogicView(const netlist::Netlist& nl) {
  const std::vector<netlist::Instance>& insts = nl.instances();
  const std::vector<netlist::Net>& nets = nl.nets();

  std::size_t num_pins = 0;
  std::size_t num_fanouts = 0;
  for (const netlist::Instance& inst : insts) num_pins += inst.inputs.size();
  for (const netlist::Net& net : nets) num_fanouts += net.fanouts.size();
  gates_.resize(insts.size() + 1);
  inputs_.resize(num_pins);
  driver_.resize(nets.size());
  fanout_begin_.resize(nets.size() + 1);
  fanout_.resize(num_fanouts);

  std::uint32_t pin = 0;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    const netlist::Instance& inst = insts[i];
    Gate& g = gates_[i];
    replace_cell(static_cast<netlist::InstId>(i), inst.cell);
    g.input_begin = pin;
    g.output = inst.output;
    for (netlist::NetId in : inst.inputs) inputs_[pin++] = in;
  }
  gates_.back().input_begin = pin;

  std::uint32_t at = 0;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    driver_[n] = nets[n].driver;
    fanout_begin_[n] = at;
    for (const netlist::Fanout& f : nets[n].fanouts) fanout_[at++] = f.inst;
  }
  fanout_begin_.back() = at;
}

void LogicView::replace_cell(netlist::InstId i, const cell::Cell* cell) {
  const cell::TruthTable& tt = cell->function();
  Gate& g = gates_[i];
  g.bits = tt.bits();
  g.domain = cell::TruthTable::domain_mask(tt.num_inputs());
  g.cell = cell;
}

}  // namespace sasta::sta
