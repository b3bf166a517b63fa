#include "netlist/netlist.h"

#include "util/check.h"

namespace sasta::netlist {

NetId Netlist::add_net(const std::string& net_name) {
  auto it = name_to_net_.find(net_name);
  if (it != name_to_net_.end()) return it->second;
  const NetId id = static_cast<NetId>(nets_.size());
  Net n;
  n.name = net_name;
  nets_.push_back(std::move(n));
  name_to_net_.emplace(net_name, id);
  return id;
}

NetId Netlist::find_net(const std::string& net_name) const {
  auto it = name_to_net_.find(net_name);
  return it == name_to_net_.end() ? kNoId : it->second;
}

NetId Netlist::net_id(const std::string& net_name) const {
  const NetId id = find_net(net_name);
  SASTA_CHECK(id != kNoId) << " unknown net '" << net_name << "'";
  return id;
}

void Netlist::mark_primary_input(NetId n) {
  SASTA_CHECK(n >= 0 && n < num_nets()) << " net " << n;
  SASTA_CHECK(nets_[n].driver == kNoId)
      << " net '" << nets_[n].name << "' cannot be both driven and a PI";
  if (!nets_[n].is_primary_input) {
    nets_[n].is_primary_input = true;
    pis_.push_back(n);
  }
}

void Netlist::mark_primary_output(NetId n) {
  SASTA_CHECK(n >= 0 && n < num_nets()) << " net " << n;
  if (!nets_[n].is_primary_output) {
    nets_[n].is_primary_output = true;
    pos_.push_back(n);
  }
}

InstId Netlist::add_instance(const std::string& inst_name,
                             const cell::Cell* cell,
                             const std::vector<NetId>& inputs, NetId output) {
  SASTA_CHECK(cell != nullptr) << " null cell for instance " << inst_name;
  SASTA_CHECK(static_cast<int>(inputs.size()) == cell->num_inputs())
      << " instance " << inst_name << " pin count vs cell " << cell->name();
  SASTA_CHECK(output >= 0 && output < num_nets()) << " output net";
  SASTA_CHECK(nets_[output].driver == kNoId && !nets_[output].is_primary_input)
      << " net '" << nets_[output].name << "' already driven";
  const InstId id = static_cast<InstId>(instances_.size());
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    SASTA_CHECK(inputs[p] >= 0 && inputs[p] < num_nets())
        << " input net of " << inst_name;
    nets_[inputs[p]].fanouts.push_back({id, static_cast<int>(p)});
  }
  nets_[output].driver = id;
  instances_.push_back({inst_name, cell, inputs, output});
  return id;
}

void Netlist::validate() const {
  for (NetId n = 0; n < num_nets(); ++n) {
    const Net& net = nets_[n];
    SASTA_CHECK(net.driver != kNoId || net.is_primary_input)
        << " net '" << net.name << "' is undriven";
    for (const Fanout& f : net.fanouts) {
      SASTA_CHECK(f.inst >= 0 && f.inst < num_instances())
          << " dangling fanout on '" << net.name << "'";
      SASTA_CHECK(instances_[f.inst].inputs.at(f.pin) == n)
          << " fanout back-reference mismatch on '" << net.name << "'";
    }
  }
  for (InstId i = 0; i < num_instances(); ++i) {
    const Instance& inst = instances_[i];
    SASTA_CHECK(nets_[inst.output].driver == i)
        << " driver back-reference mismatch for " << inst.name;
  }
}

void Netlist::replace_cell(InstId i, const cell::Cell* new_cell) {
  SASTA_CHECK(i >= 0 && i < num_instances()) << " instance " << i;
  SASTA_CHECK(new_cell != nullptr) << " null replacement cell";
  Instance& inst = instances_[i];
  SASTA_CHECK(static_cast<int>(inst.inputs.size()) == new_cell->num_inputs())
      << " swap_gate pin-count mismatch: " << inst.name << " has "
      << inst.inputs.size() << " inputs, cell " << new_cell->name()
      << " wants " << new_cell->num_inputs();
  inst.cell = new_cell;
}

void Netlist::set_drive_scale(InstId i, double scale) {
  SASTA_CHECK(i >= 0 && i < num_instances()) << " instance " << i;
  SASTA_CHECK(scale > 0.0) << " drive scale must be positive, got " << scale;
  if (drive_scale_.size() < instances_.size())
    drive_scale_.resize(instances_.size(), 1.0);
  drive_scale_[i] = scale;
}

int Netlist::complex_gate_count() const {
  int count = 0;
  for (const auto& inst : instances_) {
    if (inst.cell->is_complex()) ++count;
  }
  return count;
}

const char* prim_op_name(PrimOp op) {
  switch (op) {
    case PrimOp::kAnd:
      return "AND";
    case PrimOp::kNand:
      return "NAND";
    case PrimOp::kOr:
      return "OR";
    case PrimOp::kNor:
      return "NOR";
    case PrimOp::kNot:
      return "NOT";
    case PrimOp::kBuf:
      return "BUFF";
    case PrimOp::kXor:
      return "XOR";
    case PrimOp::kXnor:
      return "XNOR";
  }
  return "?";
}

int PrimNetlist::add_signal(const std::string& signal_name) {
  const auto [it, inserted] = signal_index_.try_emplace(
      signal_name, static_cast<int>(signal_names.size()));
  if (inserted) signal_names.push_back(signal_name);
  return it->second;
}

int PrimNetlist::find_signal(const std::string& signal_name) const {
  const auto it = signal_index_.find(signal_name);
  return it == signal_index_.end() ? kNoId : it->second;
}

std::vector<int> PrimNetlist::fanout_counts() const {
  std::vector<int> counts(signal_names.size(), 0);
  for (const auto& g : gates) {
    for (int in : g.inputs) ++counts.at(in);
  }
  return counts;
}

std::vector<int> PrimNetlist::driver_index() const {
  std::vector<int> idx(signal_names.size(), kNoId);
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    SASTA_CHECK(idx.at(gates[gi].output) == kNoId)
        << " multiple drivers on signal " << signal_names[gates[gi].output];
    idx[gates[gi].output] = static_cast<int>(gi);
  }
  return idx;
}

void PrimNetlist::validate() const {
  const std::vector<int> drivers = driver_index();
  std::vector<bool> is_pi(signal_names.size(), false);
  for (int s : inputs) is_pi.at(s) = true;
  for (std::size_t s = 0; s < signal_names.size(); ++s) {
    SASTA_CHECK(drivers[s] != kNoId || is_pi[s])
        << " signal '" << signal_names[s] << "' is undriven";
    SASTA_CHECK(drivers[s] == kNoId || !is_pi[s])
        << " signal '" << signal_names[s] << "' is both PI and driven";
  }
  for (const auto& g : gates) {
    const std::size_t arity = g.inputs.size();
    const bool unary = g.op == PrimOp::kNot || g.op == PrimOp::kBuf;
    SASTA_CHECK(unary ? arity == 1 : arity >= 2)
        << " bad arity " << arity << " for " << prim_op_name(g.op);
  }
}

}  // namespace sasta::netlist
