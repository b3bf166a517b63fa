// Google-benchmark microbenchmarks of the algorithmic kernels behind the
// CPU-time columns of paper Table 6:
//   - polynomial model evaluation vs LUT interpolation (the paper's claimed
//     analytical-model speed advantage, Section IV.A),
//   - forward implication, line justification, and full path enumeration,
//   - one transient-simulation timestep (characterization cost driver).
#include <benchmark/benchmark.h>

#include <vector>

#include "baseline/baseline_tool.h"
#include "bench_common.h"
#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "spice/transient.h"
#include "sta/implication.h"
#include "sta/sta_tool.h"
#include "util/rng.h"

namespace sasta::bench {
namespace {

// Microbenches always use the fast profile: kernel timing does not depend
// on characterization fidelity, and this keeps first runs quick.
const charlib::CharLibrary& micro_charlib() {
  static const charlib::CharLibrary cl = charlib::load_or_characterize(
      library(), tech::technology("90nm"),
      [] {
        charlib::CharacterizeOptions o;
        o.profile = charlib::CharacterizeOptions::Profile::kFast;
        return o;
      }(),
      charlib::default_cache_dir());
  return cl;
}

const netlist::Netlist& mapped_c432() {
  static const netlist::TechMapResult r = netlist::tech_map(
      netlist::generate_iscas_like(netlist::iscas_profile("c432")),
      library());
  return r.netlist;
}

void BM_PolyModelEval(benchmark::State& state) {
  const auto& arc = micro_charlib().timing("AO22").arc(0, 1, spice::Edge::kFall);
  charlib::ModelPoint pt{2.3, 60e-12, 25.0, 1.0};
  for (auto _ : state) {
    pt.fo += 1e-9;  // defeat value caching
    benchmark::DoNotOptimize(arc.delay(pt));
  }
}
BENCHMARK(BM_PolyModelEval);

void BM_LutModelEval(benchmark::State& state) {
  const auto& lut = micro_charlib().timing("AO22").lut(0, spice::Edge::kFall);
  double slew = 60e-12;
  for (auto _ : state) {
    slew += 1e-18;
    benchmark::DoNotOptimize(lut.delay(slew, 2.3));
  }
}
BENCHMARK(BM_LutModelEval);

void BM_ForwardImplication(benchmark::State& state) {
  const netlist::Netlist& nl = mapped_c432();
  sta::AssignmentState st(nl.num_nets());
  sta::ImplicationEngine eng(nl, st);
  const netlist::NetId pi = nl.primary_inputs()[0];
  for (auto _ : state) {
    st.reset();
    benchmark::DoNotOptimize(eng.assign_steady(pi, true));
  }
}
BENCHMARK(BM_ForwardImplication);

// One three-valued evaluation of every c432 instance (four init/final
// parts each) over a state where every net holds a random mix of 0, 1 and
// X components — the implication engine's inner kernel.
void BM_GateEval(benchmark::State& state) {
  const netlist::Netlist& nl = mapped_c432();
  sta::AssignmentState st(nl.num_nets());
  sta::ImplicationEngine eng(nl, st);
  util::Rng rng(8080);
  auto random_tri = [&] {
    return static_cast<logicsys::TriVal>(rng.next_below(3));
  };
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    st.refine(n, {random_tri(), random_tri()}, {random_tri(), random_tri()});
  }
  for (auto _ : state) {
    for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
      benchmark::DoNotOptimize(eng.evaluate(i));
    }
  }
  state.SetItemsProcessed(state.iterations() * nl.num_instances());
}
BENCHMARK(BM_GateEval);

void BM_Justification(benchmark::State& state) {
  const netlist::Netlist& nl = mapped_c432();
  // Justify a mid-level net to 1.
  netlist::NetId target = nl.primary_outputs()[0];
  sta::AssignmentState st(nl.num_nets());
  sta::ImplicationEngine eng(nl, st);
  sta::Justifier j(nl, st, eng);
  for (auto _ : state) {
    st.reset();
    benchmark::DoNotOptimize(j.justify(target, true, sta::kScenarioBoth));
  }
}
BENCHMARK(BM_Justification);

void BM_PathEnumerationC17(benchmark::State& state) {
  const auto mapped = netlist::tech_map(
      netlist::parse_bench_string(netlist::c17_bench_text()), library());
  for (auto _ : state) {
    sta::PathFinder finder(mapped.netlist, micro_charlib());
    long count = 0;
    finder.run([&count](const sta::TruePath&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_PathEnumerationC17);

void BM_BaselineArrivalC432(benchmark::State& state) {
  const netlist::Netlist& nl = mapped_c432();
  for (auto _ : state) {
    baseline::ArrivalAnalysis aa(nl, micro_charlib(),
                                 tech::technology("90nm"));
    aa.run();
    benchmark::DoNotOptimize(aa.worst_arrival());
  }
}
BENCHMARK(BM_BaselineArrivalC432);

void BM_TransientInverterStep(benchmark::State& state) {
  const auto& t = tech::technology("90nm");
  spice::Circuit ckt;
  const auto in = ckt.add_node("in");
  const auto out = ckt.add_node("out");
  const auto vdd = ckt.add_node("vdd");
  ckt.drive_dc(vdd, t.vdd);
  ckt.drive(in, spice::Pwl::ramp(0.0, t.vdd, 100e-12, 50e-12));
  spice::MosfetInstance mn;
  mn.type = spice::MosType::kNmos;
  mn.gate = in;
  mn.drain = out;
  mn.source = ckt.ground();
  mn.width_um = t.wn_unit_um;
  mn.length_um = t.lmin_um;
  mn.params = t.nmos;
  ckt.add_mosfet(std::move(mn));
  spice::MosfetInstance mp;
  mp.type = spice::MosType::kPmos;
  mp.gate = in;
  mp.drain = out;
  mp.source = vdd;
  mp.width_um = t.wn_unit_um * t.beta_p;
  mp.length_um = t.lmin_um;
  mp.params = t.pmos;
  ckt.add_mosfet(std::move(mp));
  ckt.add_capacitor(out, ckt.ground(), 2e-15);

  spice::TransientOptions opt;
  opt.t_stop = 500e-12;
  opt.dt = 0.5e-12;
  for (auto _ : state) {
    const auto res = simulate_transient(ckt, opt);
    benchmark::DoNotOptimize(res.steps);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(opt.t_stop / opt.dt));
}
BENCHMARK(BM_TransientInverterStep);

}  // namespace
}  // namespace sasta::bench

BENCHMARK_MAIN();
