// Closure oracle for the implication kernel.  Random assignment sequences
// with random live-scenario masks, interleaved with mark/rollback, run on
// seeded random netlists; after every assignment the engine's state must
// equal, in every live scenario, the closure a naive sweep computes by
// re-evaluating every gate with TruthTable::eval3 until nothing changes.
// Conflict masks must match, a scenario outside the mask must be left
// untouched, and rollback must restore the state word for word.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/implication.h"
#include "test_charlib.h"
#include "util/check.h"
#include "util/rng.h"

namespace sasta::sta {
namespace {

using logicsys::NineVal;
using logicsys::TriVal;

NineVal& part(DualVal& v, unsigned scenario) {
  return scenario == kScenarioR ? v.r : v.f;
}

/// Meets `v` into `cur`: 0 = unchanged, 1 = narrowed, 2 = contradiction.
int naive_meet(NineVal& cur, const NineVal& v) {
  if (!cur.compatible(v)) return 2;
  const NineVal m = cur.meet(v);
  if (m == cur) return 0;
  cur = m;
  return 1;
}

/// Reference closure of one scenario: meets `v` into net `n`, then sweeps
/// every gate until a fixed point.  Returns true on a contradiction (the
/// values are then meaningless).
bool naive_assign(const netlist::Netlist& nl, std::vector<DualVal>& vals,
                  netlist::NetId n, const NineVal& v, unsigned scenario) {
  if (naive_meet(part(vals[n], scenario), v) == 2) return true;
  for (bool changed = true; changed;) {
    changed = false;
    for (const netlist::Instance& inst : nl.instances()) {
      std::array<TriVal, 6> init{};
      std::array<TriVal, 6> fin{};
      const std::size_t k = inst.inputs.size();
      for (std::size_t p = 0; p < k; ++p) {
        const NineVal& in = part(vals[inst.inputs[p]], scenario);
        init[p] = in.init;
        fin[p] = in.fin;
      }
      const cell::TruthTable& tt = inst.cell->function();
      const NineVal out{tt.eval3({init.data(), k}), tt.eval3({fin.data(), k})};
      const int r = naive_meet(part(vals[inst.output], scenario), out);
      if (r == 2) return true;
      changed = changed || r == 1;
    }
  }
  return false;
}

std::vector<DualVal> snapshot(const AssignmentState& s) {
  std::vector<DualVal> v(s.num_nets());
  for (netlist::NetId n = 0; n < s.num_nets(); ++n) v[n] = s.value(n);
  return v;
}

std::vector<std::uint32_t> words(const std::vector<DualVal>& v) {
  std::vector<std::uint32_t> w;
  for (const DualVal& d : v) w.push_back(dual_word(d));
  return w;
}

netlist::Netlist random_netlist(std::uint64_t seed, util::Rng& rng) {
  netlist::GeneratorProfile p;
  p.name = "oracle";
  p.num_inputs = 6 + static_cast<int>(rng.next_below(8));
  p.num_outputs = 3 + static_cast<int>(rng.next_below(4));
  p.num_gates = 20 + static_cast<int>(rng.next_below(50));
  p.depth = 4 + static_cast<int>(rng.next_below(5));
  p.seed = seed;
  return netlist::tech_map(netlist::generate_iscas_like(p),
                           testing::test_library())
      .netlist;
}

/// Checks the engine's state after an assignment against the reference
/// closures computed from `before`.
void expect_closure(const netlist::Netlist& nl, const AssignmentState& st,
                    const std::vector<DualVal>& before,
                    const std::array<std::vector<DualVal>, 2>& ref,
                    unsigned mask, unsigned conflict, const char* what) {
  for (const unsigned s : {kScenarioR, kScenarioF}) {
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      DualVal got = st.value(n);
      if (!(mask & s)) {
        DualVal old = before[n];
        ASSERT_EQ(part(got, s), part(old, s))
            << what << ": scenario " << s << " outside the mask changed at "
            << nl.net(n).name;
      } else if (!(conflict & s)) {
        DualVal want = ref[s - 1][n];
        ASSERT_EQ(part(got, s), part(want, s))
            << what << ": scenario " << s << " differs from the naive closure"
            << " at " << nl.net(n).name;
      }
    }
  }
}

TEST(ImplicationOracle, MaskedClosureMatchesNaiveSweep) {
  util::Rng rng(1807);
  // Coverage of the cases that matter: one-scenario masks, conflicts, a
  // conflict in one scenario of a two-scenario assignment, and assignments
  // that imply beyond the assigned net.
  long single_masks = 0;
  long conflicts = 0;
  long split_conflicts = 0;
  long propagated = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const netlist::Netlist nl = random_netlist(seed, rng);
    AssignmentState st(nl.num_nets());
    ImplicationEngine eng(nl, st);

    // The fresh state is a closure: the sweep finds nothing to imply.
    {
      std::vector<DualVal> vals = snapshot(st);
      for (const unsigned s : {kScenarioR, kScenarioF}) {
        ASSERT_FALSE(naive_assign(nl, vals, nl.primary_inputs()[0],
                                  NineVal::unknown(), s));
      }
      ASSERT_EQ(words(vals), words(snapshot(st))) << "seed " << seed;
    }

    // Launch a transition at a random primary input, as a path search does,
    // and give a few other inputs opposite steady values in the two
    // scenarios, so that the scenarios' closures differ widely and an
    // assignment often conflicts in one scenario only.
    for (int launch = 0; launch < 3; ++launch) {
      const netlist::NetId pi = nl.primary_inputs()[rng.next_below(
          nl.primary_inputs().size())];
      const bool b = rng.next_bool();
      const NineVal vr = launch == 0 ? NineVal::rise() : NineVal::stable(b);
      const NineVal vf = launch == 0 ? NineVal::fall() : NineVal::stable(!b);
      const std::vector<DualVal> before = snapshot(st);
      std::array<std::vector<DualVal>, 2> ref{before, before};
      unsigned want = kScenarioNone;
      if (naive_assign(nl, ref[0], pi, vr, kScenarioR)) want |= kScenarioR;
      if (naive_assign(nl, ref[1], pi, vf, kScenarioF)) want |= kScenarioF;
      if (want != kScenarioNone) break;  // the input was already taken
      const auto got = eng.assign_dual(pi, vr, vf);
      ASSERT_EQ(got.conflict, want);
      expect_closure(nl, st, before, ref, kScenarioBoth, want, "launch");
    }

    // frames[0] is the launched state; deeper frames narrow the live mask
    // the way the DFS and the justifier do.
    struct Frame {
      AssignmentState::Mark mark;
      unsigned live;
      std::vector<DualVal> values;
    };
    std::vector<Frame> frames{{st.mark(), kScenarioBoth, snapshot(st)}};
    unsigned live = kScenarioBoth;
    auto pop = [&] {
      const Frame& f = frames.back();
      st.rollback(f.mark);
      ASSERT_EQ(words(snapshot(st)), words(f.values))
          << "rollback, seed " << seed;
      live = f.live;
      if (frames.size() > 1) frames.pop_back();
    };
    for (int step = 0; step < 600; ++step) {
      const auto action = rng.next_below(10);
      if (action < 2 && frames.size() < 10) {
        frames.push_back({st.mark(), live, snapshot(st)});
        if (live == kScenarioBoth && rng.next_bool(0.4)) {
          live = rng.next_bool() ? kScenarioR : kScenarioF;
        }
      } else if (action < 4) {
        pop();
      } else {
        const auto net = static_cast<netlist::NetId>(
            rng.next_below(static_cast<std::uint64_t>(nl.num_nets())));
        const bool value = rng.next_bool();
        const std::vector<DualVal> before = snapshot(st);
        std::array<std::vector<DualVal>, 2> ref{before, before};
        unsigned want = kScenarioNone;
        for (const unsigned s : {kScenarioR, kScenarioF}) {
          if ((live & s) && naive_assign(nl, ref[s - 1], net,
                                         NineVal::stable(value), s)) {
            want |= s;
          }
        }
        const AssignmentState::Mark m = st.mark();
        const auto got = eng.assign_steady(net, value, live);
        ASSERT_EQ(got.conflict, want)
            << "seed " << seed << " step " << step << " net "
            << nl.net(net).name << " mask " << live;
        expect_closure(nl, st, before, ref, live, want, "assign_steady");
        single_masks += live != kScenarioBoth;
        conflicts += got.conflict != kScenarioNone;
        split_conflicts += live == kScenarioBoth &&
                           (got.conflict == kScenarioR ||
                            got.conflict == kScenarioF);
        propagated += st.mark() > m + 1;
        live &= ~got.conflict;
        if (live == kScenarioNone) pop();
      }
    }
  }
  EXPECT_GT(single_masks, 100);
  EXPECT_GT(conflicts, 100);
  EXPECT_GT(split_conflicts, 20);
  EXPECT_GT(propagated, 100);
}

TEST(ImplicationOracle, EvaluateMatchesSpanEval3) {
  util::Rng rng(2718);
  const netlist::Netlist nl = random_netlist(3, rng);
  AssignmentState st(nl.num_nets());
  ImplicationEngine eng(nl, st);
  auto random_tri = [&] {
    return static_cast<TriVal>(rng.next_below(3));
  };
  for (int round = 0; round < 20; ++round) {
    st.reset();
    for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
      st.refine(n, {random_tri(), random_tri()}, {random_tri(), random_tri()});
    }
    for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
      const netlist::Instance& inst = nl.instance(i);
      const std::size_t k = inst.inputs.size();
      std::array<std::array<TriVal, 6>, 4> parts{};
      for (std::size_t p = 0; p < k; ++p) {
        const DualVal& v = st.value(inst.inputs[p]);
        parts[0][p] = v.r.init;
        parts[1][p] = v.r.fin;
        parts[2][p] = v.f.init;
        parts[3][p] = v.f.fin;
      }
      const cell::TruthTable& tt = inst.cell->function();
      const DualVal got = eng.evaluate(i);
      EXPECT_EQ(got.r.init, tt.eval3({parts[0].data(), k}));
      EXPECT_EQ(got.r.fin, tt.eval3({parts[1].data(), k}));
      EXPECT_EQ(got.f.init, tt.eval3({parts[2].data(), k}));
      EXPECT_EQ(got.f.fin, tt.eval3({parts[3].data(), k}));
    }
  }
  EXPECT_THROW(eng.evaluate(nl.num_instances()), util::Error);
  EXPECT_THROW(eng.assign_steady(-1, true), util::Error);
}

}  // namespace
}  // namespace sasta::sta
