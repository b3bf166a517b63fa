#include "netlist/techmap.h"

#include <algorithm>
#include <filesystem>

#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/verilog.h"
#include "util/check.h"

namespace sasta::netlist {

namespace {

/// Mutable working copy of the primitive netlist with tombstones.
struct WorkGraph {
  PrimNetlist nl;
  std::vector<bool> dead;       ///< per gate
  std::vector<bool> is_po;      ///< per signal
  int fresh_counter = 0;

  explicit WorkGraph(const PrimNetlist& src) : nl(src) {
    dead.assign(nl.gates.size(), false);
    is_po.assign(nl.num_signals(), false);
    for (int s : nl.outputs) is_po[s] = true;
  }

  int fresh_signal(const std::string& hint) {
    // Names must not collide with existing signals.
    std::string name;
    do {
      name = hint + "$" + std::to_string(fresh_counter++);
    } while (nl.find_signal(name) != kNoId);
    const int s = nl.add_signal(name);
    is_po.push_back(false);
    return s;
  }

  void add_gate(PrimOp op, std::vector<int> inputs, int output) {
    nl.gates.push_back({op, std::move(inputs), output});
    dead.push_back(false);
  }
};

/// Splits gates wider than the library arity into balanced trees.
void decompose_wide_gates(WorkGraph& g) {
  // Iterate with index: new gates appended during the loop are already
  // narrow enough and need no re-processing.
  const std::size_t original = g.nl.gates.size();
  for (std::size_t gi = 0; gi < original; ++gi) {
    PrimGate gate = g.nl.gates[gi];  // copy: vector may reallocate
    const bool is_xor = gate.op == PrimOp::kXor || gate.op == PrimOp::kXnor;
    const std::size_t max_arity = is_xor ? 2 : 4;
    if (gate.inputs.size() <= max_arity) continue;

    // Inner tree op: AND for AND/NAND, OR for OR/NOR, XOR for XOR/XNOR.
    PrimOp inner;
    switch (gate.op) {
      case PrimOp::kAnd:
      case PrimOp::kNand:
        inner = PrimOp::kAnd;
        break;
      case PrimOp::kOr:
      case PrimOp::kNor:
        inner = PrimOp::kOr;
        break;
      default:
        inner = PrimOp::kXor;
        break;
    }
    std::vector<int> frontier = gate.inputs;
    while (frontier.size() > max_arity) {
      std::vector<int> next;
      for (std::size_t i = 0; i < frontier.size(); i += max_arity) {
        const std::size_t n = std::min(max_arity, frontier.size() - i);
        if (n == 1) {
          next.push_back(frontier[i]);
          continue;
        }
        const int out = g.fresh_signal(g.nl.signal_names[gate.output]);
        g.add_gate(inner, {frontier.begin() + i, frontier.begin() + i + n},
                   out);
        next.push_back(out);
      }
      frontier = std::move(next);
    }
    g.nl.gates[gi].op = gate.op;
    g.nl.gates[gi].inputs = frontier;
  }
}

/// Folds NOT over single-fanout AND/OR into NAND/NOR (and NAND/NOR into
/// AND/OR symmetrically is NOT done - we only remove inverters).
void fold_inverters(WorkGraph& g) {
  // Recompute fanouts/drivers after decomposition.
  bool changed = true;
  while (changed) {
    changed = false;
    const std::vector<int> fanout = g.nl.fanout_counts();
    const std::vector<int> driver = g.nl.driver_index();
    for (std::size_t gi = 0; gi < g.nl.gates.size(); ++gi) {
      if (g.dead[gi]) continue;
      PrimGate& inv = g.nl.gates[gi];
      if (inv.op != PrimOp::kNot) continue;
      const int src = inv.inputs[0];
      const int di = driver[src];
      if (di == kNoId || g.dead[di]) continue;
      if (fanout[src] != 1 || g.is_po[src]) continue;
      PrimGate& base = g.nl.gates[di];
      PrimOp folded;
      if (base.op == PrimOp::kAnd) {
        folded = PrimOp::kNand;
      } else if (base.op == PrimOp::kOr) {
        folded = PrimOp::kNor;
      } else if (base.op == PrimOp::kNand) {
        folded = PrimOp::kAnd;
      } else if (base.op == PrimOp::kNor) {
        folded = PrimOp::kOr;
      } else if (base.op == PrimOp::kXor) {
        folded = PrimOp::kXnor;
      } else if (base.op == PrimOp::kXnor) {
        folded = PrimOp::kXor;
      } else {
        continue;
      }
      // Replace: base drives the inverter's output directly with flipped op.
      base.op = folded;
      base.output = inv.output;
      g.dead[gi] = true;
      changed = true;
      break;  // fanout/driver tables are stale; restart scan
    }
    if (changed) {
      // Physically drop the dead inverter before the tables are recomputed:
      // the PrimNetlist fanout/driver helpers are tombstone-unaware and a
      // dead gate would register as a second driver of the folded output.
      std::vector<PrimGate> live;
      live.reserve(g.nl.gates.size());
      for (std::size_t gi = 0; gi < g.nl.gates.size(); ++gi) {
        if (!g.dead[gi]) live.push_back(std::move(g.nl.gates[gi]));
      }
      g.nl.gates = std::move(live);
      g.dead.assign(g.nl.gates.size(), false);
    }
  }
}

/// Topological order of live gate indices.
std::vector<int> topo_gates(const WorkGraph& g) {
  const std::vector<int> driver = g.nl.driver_index();
  std::vector<int> pending(g.nl.gates.size(), 0);
  std::vector<std::vector<int>> dependents(g.nl.gates.size());
  std::vector<int> queue;
  for (std::size_t gi = 0; gi < g.nl.gates.size(); ++gi) {
    if (g.dead[gi]) continue;
    int unresolved = 0;
    for (int in : g.nl.gates[gi].inputs) {
      const int di = driver[in];
      if (di != kNoId && !g.dead[di]) {
        ++unresolved;
        dependents[di].push_back(static_cast<int>(gi));
      }
    }
    pending[gi] = unresolved;
    if (unresolved == 0) queue.push_back(static_cast<int>(gi));
  }
  std::vector<int> order;
  std::size_t cursor = 0;
  while (cursor < queue.size()) {
    const int gi = queue[cursor++];
    order.push_back(gi);
    for (int dep : dependents[gi]) {
      if (--pending[dep] == 0) queue.push_back(dep);
    }
  }
  std::size_t live = 0;
  for (std::size_t gi = 0; gi < g.nl.gates.size(); ++gi) {
    if (!g.dead[gi]) ++live;
  }
  SASTA_CHECK(order.size() == live) << " cycle in primitive netlist";
  return order;
}

struct Mapper {
  const cell::Library& lib;
  const TechMapOptions& opt;
  WorkGraph& g;
  Netlist out;
  std::map<std::string, int> histogram;
  std::vector<NetId> signal_to_net;
  std::vector<bool> absorbed;  ///< per gate: body consumed by a complex root
  int inst_counter = 0;

  Mapper(const cell::Library& lib_in, const TechMapOptions& opt_in,
         WorkGraph& g_in, const std::string& name)
      : lib(lib_in), opt(opt_in), g(g_in), out(name) {
    absorbed.assign(g.nl.gates.size(), false);
  }

  NetId net_for(int signal) {
    if (signal_to_net[signal] == kNoId) {
      signal_to_net[signal] = out.add_net(g.nl.signal_names[signal]);
    }
    return signal_to_net[signal];
  }

  void emit(const std::string& cell_name, const std::vector<int>& in_signals,
            int out_signal) {
    const cell::Cell* c = lib.find(cell_name);
    SASTA_CHECK(c != nullptr) << " library lacks " << cell_name;
    std::vector<NetId> ins;
    ins.reserve(in_signals.size());
    for (int s : in_signals) ins.push_back(net_for(s));
    out.add_instance("g" + std::to_string(inst_counter++), c, ins,
                     net_for(out_signal));
    ++histogram[cell_name];
  }

  /// Direct cell name for a narrow primitive gate.
  static std::string direct_cell(const PrimGate& gate) {
    const int n = static_cast<int>(gate.inputs.size());
    switch (gate.op) {
      case PrimOp::kAnd:
        return "AND" + std::to_string(n);
      case PrimOp::kNand:
        return "NAND" + std::to_string(n);
      case PrimOp::kOr:
        return "OR" + std::to_string(n);
      case PrimOp::kNor:
        return "NOR" + std::to_string(n);
      case PrimOp::kNot:
        return "INV";
      case PrimOp::kBuf:
        return "BUF";
      case PrimOp::kXor:
        return "XOR2";
      case PrimOp::kXnor:
        return "XNOR2";
    }
    return "?";
  }

  /// Tries to fuse `root` (processed in reverse topological order) with
  /// single-fanout AND/OR legs into a complex cell.  Returns true if a
  /// complex instance was emitted.
  bool try_fuse(int root_index, const std::vector<int>& fanout,
                const std::vector<int>& driver) {
    const PrimGate& root = g.nl.gates[root_index];
    if (root.inputs.size() != 2) return false;
    PrimOp leg_op;
    std::string two_leg_cell, one_leg_cell;
    switch (root.op) {
      case PrimOp::kOr:
        leg_op = PrimOp::kAnd;
        two_leg_cell = "AO22";
        one_leg_cell = "AO21";
        break;
      case PrimOp::kNor:
        leg_op = PrimOp::kAnd;
        two_leg_cell = "AOI22";
        one_leg_cell = "AOI21";
        break;
      case PrimOp::kAnd:
        leg_op = PrimOp::kOr;
        two_leg_cell = "OA22";
        one_leg_cell = "OA12";
        break;
      case PrimOp::kNand:
        leg_op = PrimOp::kOr;
        two_leg_cell = "OAI22";
        one_leg_cell = "OAI21";
        break;
      default:
        return false;
    }
    auto leg_gate = [&](int signal) -> int {
      const int di = driver[signal];
      if (di == kNoId || g.dead[di] || absorbed[di]) return kNoId;
      const PrimGate& leg = g.nl.gates[di];
      if (leg.op != leg_op || leg.inputs.size() != 2) return kNoId;
      if (fanout[signal] != 1 || g.is_po[signal]) return kNoId;
      return di;
    };
    const int leg0 = leg_gate(root.inputs[0]);
    const int leg1 = leg_gate(root.inputs[1]);
    if (leg0 != kNoId && leg1 != kNoId) {
      const auto& a = g.nl.gates[leg0];
      const auto& b = g.nl.gates[leg1];
      emit(two_leg_cell,
           {a.inputs[0], a.inputs[1], b.inputs[0], b.inputs[1]}, root.output);
      absorbed[leg0] = absorbed[leg1] = true;
      return true;
    }
    if (leg0 != kNoId || leg1 != kNoId) {
      const int leg = leg0 != kNoId ? leg0 : leg1;
      const int direct = leg0 != kNoId ? root.inputs[1] : root.inputs[0];
      const auto& a = g.nl.gates[leg];
      // AO21/AOI21: Z = (A*B) + C [inverted]; OA12/OAI21: Z = (A+B) * C.
      emit(one_leg_cell, {a.inputs[0], a.inputs[1], direct}, root.output);
      absorbed[leg] = true;
      return true;
    }
    return false;
  }

  void run() {
    signal_to_net.assign(g.nl.num_signals(), kNoId);
    // Ports first so net ids are stable and named.
    for (int s : g.nl.inputs) out.mark_primary_input(net_for(s));

    const std::vector<int> order = topo_gates(g);
    const std::vector<int> fanout = g.nl.fanout_counts();
    const std::vector<int> driver = g.nl.driver_index();

    // Reverse topological order: roots claim their legs before the legs are
    // themselves considered as roots.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const int gi = *it;
      if (absorbed[gi]) continue;
      if (opt.fuse_complex && try_fuse(gi, fanout, driver)) continue;
      const PrimGate& gate = g.nl.gates[gi];
      emit(direct_cell(gate), gate.inputs, gate.output);
    }
    for (int s : g.nl.outputs) out.mark_primary_output(net_for(s));
    out.validate();
  }
};

}  // namespace

TechMapResult tech_map(const PrimNetlist& prim, const cell::Library& lib,
                       const TechMapOptions& options) {
  prim.validate();
  WorkGraph g(prim);
  decompose_wide_gates(g);
  if (options.fold_inverters) fold_inverters(g);

  Mapper mapper(lib, options, g, prim.name);
  mapper.run();

  TechMapResult result{std::move(mapper.out), std::move(mapper.histogram)};
  return result;
}

ResolvedDesign resolve_design(const std::string& name,
                              const cell::Library& lib) {
  ResolvedDesign d;
  const bool exists = std::filesystem::exists(name);
  if (exists && (name.ends_with(".v") || name.ends_with(".verilog"))) {
    d.netlist = parse_verilog_file(name, lib);
    return d;
  }
  PrimNetlist prim;
  if (name == "c17") {
    prim = parse_bench_string(c17_bench_text(), "c17");
  } else if (exists) {
    prim = parse_bench_file(name);
  } else {
    prim = generate_iscas_like(iscas_profile(name));
    d.synthetic = true;
  }
  d.netlist = tech_map(prim, lib).netlist;
  return d;
}

}  // namespace sasta::netlist
