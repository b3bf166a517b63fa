#include "sta/implication.h"

#include <bit>
#include <cstdint>
#include <cstring>

namespace sasta::sta {

using logicsys::NineVal;
using logicsys::TriVal;

// A DualVal is four TriVal bytes (r.init, r.fin, f.init, f.fin); with
// kOne = 1 and kX = 2, bit 0 of a byte says "one" and bit 1 says "X".
static_assert(sizeof(DualVal) == 4 &&
              std::endian::native == std::endian::little);
static_assert(static_cast<int>(TriVal::kOne) == 1 &&
              static_cast<int>(TriVal::kX) == 2);

DualVal ImplicationEngine::evaluate(netlist::InstId inst) const {
  const netlist::Instance& g = nl_.instance(inst);
  const int n = g.cell->num_inputs();
  // One pass builds the (known, ones) input masks of all four parts: pin p
  // of part k lands on bit 8k + p of `ones` / `xs`.
  std::uint32_t ones = 0;
  std::uint32_t xs = 0;
  for (int p = 0; p < n; ++p) {
    std::uint32_t word = 0;
    std::memcpy(&word, &state_.value(g.inputs[p]), sizeof word);
    ones |= (word & 0x01010101u) << p;
    xs |= ((word >> 1) & 0x01010101u) << p;
  }
  const std::uint32_t pins = (1u << n) - 1;
  const cell::TruthTable& tt = g.cell->function();
  auto part = [&](int k) {
    return tt.eval3(~(xs >> 8 * k) & pins, (ones >> 8 * k) & pins);
  };
  DualVal out;
  out.r.init = part(0);
  out.r.fin = part(1);
  out.f.init = part(2);
  out.f.fin = part(3);
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
