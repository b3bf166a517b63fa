#include "sta/implication.h"

#include <array>

namespace sasta::sta {

using logicsys::NineVal;
using logicsys::TriVal;

DualVal ImplicationEngine::evaluate(netlist::InstId inst) const {
  const netlist::Instance& g = nl_.instance(inst);
  const int n = g.cell->num_inputs();
  std::array<TriVal, 8> init_r, fin_r, init_f, fin_f;
  for (int p = 0; p < n; ++p) {
    const DualVal& v = state_.value(g.inputs[p]);
    init_r[p] = v.r.init;
    fin_r[p] = v.r.fin;
    init_f[p] = v.f.init;
    fin_f[p] = v.f.fin;
  }
  const cell::TruthTable& tt = g.cell->function();
  DualVal out;
  out.r.init = tt.eval3({init_r.data(), static_cast<std::size_t>(n)});
  out.r.fin = tt.eval3({fin_r.data(), static_cast<std::size_t>(n)});
  out.f.init = tt.eval3({init_f.data(), static_cast<std::size_t>(n)});
  out.f.fin = tt.eval3({fin_f.data(), static_cast<std::size_t>(n)});
  return out;
}

ImplicationEngine::Result ImplicationEngine::run_worklist() {
  Result res;
  while (!worklist_.empty()) {
    const netlist::InstId inst = worklist_.back();
    worklist_.pop_back();
    const DualVal implied = evaluate(inst);
    const netlist::NetId out = nl_.instance(inst).output;
    const auto r = state_.refine(out, implied.r, implied.f);
    res.conflict |= r.conflict;
    if (r.changed != kScenarioNone) {
      for (const netlist::Fanout& f : nl_.net(out).fanouts) {
        worklist_.push_back(f.inst);
      }
    }
  }
  return res;
}

ImplicationEngine::Result ImplicationEngine::propagate(netlist::NetId seed) {
  for (const netlist::Fanout& f : nl_.net(seed).fanouts) {
    worklist_.push_back(f.inst);
  }
  return run_worklist();
}

ImplicationEngine::Result ImplicationEngine::assign_steady(netlist::NetId n,
                                                           bool value) {
  const auto r = state_.refine_steady(n, value);
  Result res;
  res.conflict = r.conflict;
  if (r.changed != kScenarioNone) {
    const Result p = propagate(n);
    res.conflict |= p.conflict;
  }
  return res;
}

unsigned ImplicationEngine::assign_steady_goals(std::span<const Goal> goals,
                                                unsigned alive) {
  for (const Goal& g : goals) {
    if (alive == kScenarioNone) break;
    alive &= ~assign_steady(g.net, g.value).conflict;
  }
  return alive;
}

ImplicationEngine::Result ImplicationEngine::assign_dual(netlist::NetId n,
                                                         const NineVal& vr,
                                                         const NineVal& vf) {
  const auto r = state_.refine(n, vr, vf);
  Result res;
  res.conflict = r.conflict;
  if (r.changed != kScenarioNone) {
    const Result p = propagate(n);
    res.conflict |= p.conflict;
  }
  return res;
}

}  // namespace sasta::sta
