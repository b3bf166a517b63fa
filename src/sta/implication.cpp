#include "sta/implication.h"

#include "util/check.h"

namespace sasta::sta {

using logicsys::NineVal;

std::uint32_t ImplicationEngine::eval_word(netlist::InstId inst,
                                           unsigned scenarios) const {
  const LogicView::Gate& g = view_->gate(inst);
  const std::span<const netlist::NetId> ins = view_->inputs(inst);
  // One pass builds the (known, ones) input masks of all four parts: pin p
  // of part k lands on bit 8k + p of `ones` / `xs`.
  std::uint32_t ones = 0;
  std::uint32_t xs = 0;
  for (std::size_t p = 0; p < ins.size(); ++p) {
    const std::uint32_t word = state_.word(ins[p]);
    ones |= (word & kPartLsb) << p;
    xs |= ((word >> 1) & kPartLsb) << p;
  }
  const std::uint32_t pins = (1u << ins.size()) - 1;
  auto part = [&](int k) {
    return static_cast<std::uint32_t>(cell::TruthTable::eval3(
               g.bits, g.domain, ~(xs >> 8 * k) & pins,
               (ones >> 8 * k) & pins))
           << 8 * k;
  };
  std::uint32_t out = 0x02020202u;  // every part X
  if (scenarios & kScenarioR) out = (out & 0xFFFF0000u) | part(0) | part(1);
  if (scenarios & kScenarioF) out = (out & 0x0000FFFFu) | part(2) | part(3);
  return out;
}

DualVal ImplicationEngine::evaluate(netlist::InstId inst) const {
  SASTA_CHECK(inst >= 0 && inst < view_->num_instances())
      << " instance " << inst;
  return dual_from_word(eval_word(inst, kScenarioBoth));
}

ImplicationEngine::Result ImplicationEngine::propagate_from(
    netlist::NetId seed, unsigned changed, unsigned live) {
  Result res;
  for (netlist::InstId i : view_->fanout(seed)) {
    worklist_.push_back({i, changed});
  }
  while (!worklist_.empty()) {
    const Pending p = worklist_.back();
    worklist_.pop_back();
    const unsigned scenarios = p.scenarios & live;
    if (scenarios == kScenarioNone) continue;
    const netlist::NetId out = view_->gate(p.inst).output;
    const auto r =
        state_.refine_word(out, eval_word(p.inst, scenarios), scenarios);
    if (r.conflict != kScenarioNone) {
      // The scenario is dead: its remaining values are never read before
      // the caller rolls back, so it stops propagating here.
      res.conflict |= r.conflict;
      live &= ~r.conflict;
      if (live == kScenarioNone) {
        worklist_.clear();
        break;
      }
    }
    if (r.changed != kScenarioNone) {
      for (netlist::InstId i : view_->fanout(out)) {
        worklist_.push_back({i, r.changed});
      }
    }
  }
  return res;
}

ImplicationEngine::Result ImplicationEngine::assign_steady(netlist::NetId n,
                                                           bool value,
                                                           unsigned scenarios) {
  SASTA_CHECK(n >= 0 && n < view_->num_nets()) << " net " << n;
  const NineVal v = NineVal::stable(value);
  const auto r = state_.refine(n, DualVal{v, v}, scenarios);
  Result res;
  res.conflict = r.conflict;
  if (r.changed != kScenarioNone) {
    res.conflict |=
        propagate_from(n, r.changed, scenarios & ~r.conflict).conflict;
  }
  return res;
}

ImplicationEngine::Result ImplicationEngine::assign_dual(netlist::NetId n,
                                                         const NineVal& vr,
                                                         const NineVal& vf) {
  SASTA_CHECK(n >= 0 && n < view_->num_nets()) << " net " << n;
  const auto r = state_.refine(n, DualVal{vr, vf}, kScenarioBoth);
  Result res;
  res.conflict = r.conflict;
  if (r.changed != kScenarioNone) {
    res.conflict |=
        propagate_from(n, r.changed, kScenarioBoth & ~r.conflict).conflict;
  }
  return res;
}

}  // namespace sasta::sta
