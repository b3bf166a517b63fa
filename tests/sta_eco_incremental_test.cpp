// ECO-incremental re-analysis: impact analysis and the bit-identity
// contract of the serve-mode session.
//
// The contract under test (src/sta/eco.h, src/server/session.h): after an
// ECO edit, re-searching only the dirty sources and re-timing only the
// dirty cones must produce byte-for-byte the paths, delays and report text
// of a cold full recompute — while demonstrably reusing the untouched
// cones' cached enumerations.  The battery covers the cone/impact
// computation on hand-analyzable circuits, and a randomized differential
// sweep (incremental vs force_cold) over generated netlists and all three
// ECO operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cell/library_builder.h"
#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "server/session.h"
#include "sta/eco.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "test_charlib.h"
#include "test_paths.h"
#include "util/rng.h"

namespace sasta {
namespace {

using server::Session;

netlist::Netlist mapped_bench(const std::string& text,
                              const std::string& name) {
  return netlist::tech_map(netlist::parse_bench_string(text, name),
                           testing::test_library())
      .netlist;
}

netlist::Netlist c17() {
  return mapped_bench(netlist::c17_bench_text(), "c17");
}

netlist::Netlist generated_circuit(std::uint64_t seed) {
  netlist::GeneratorProfile p;
  p.name = "eco" + std::to_string(seed);
  p.num_inputs = 10;
  p.num_outputs = 5;
  p.num_gates = 40;
  p.depth = 6;
  p.seed = seed;
  return netlist::tech_map(netlist::generate_iscas_like(p),
                           testing::test_library())
      .netlist;
}

netlist::NetId net_by_name(const netlist::Netlist& nl,
                           const std::string& name) {
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    if (nl.net(n).name == name) return n;
  }
  return netlist::kNoId;
}

netlist::InstId inst_by_name(const netlist::Netlist& nl,
                             const std::string& name) {
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    if (nl.instance(i).name == name) return i;
  }
  return netlist::kNoId;
}

/// Instance name of the (unique) driver of the named net.
std::string driver_name(const netlist::Netlist& nl, const std::string& net) {
  const netlist::NetId id = net_by_name(nl, net);
  const netlist::InstId d = nl.net(id).driver;
  return nl.instance(d).name;
}

std::vector<std::string> dirty_names(const netlist::Netlist& nl,
                                     const sta::EcoImpact& impact) {
  std::vector<std::string> out;
  for (const netlist::NetId n : impact.dirty_sources) {
    out.push_back(nl.net(n).name);
  }
  return out;
}

/// Borrow the suite's shared characterized library as a non-owning
/// shared_ptr (the static outlives every session).
std::shared_ptr<const charlib::CharLibrary> borrowed_charlib() {
  return std::shared_ptr<const charlib::CharLibrary>(
      std::shared_ptr<const charlib::CharLibrary>(),
      &testing::test_charlib());
}

Session::Config session_config(int threads) {
  Session::Config cfg;
  cfg.tool.finder.num_threads = threads;
  return cfg;
}

std::unique_ptr<Session> make_session(netlist::Netlist nl, int threads = 2) {
  const std::string name = nl.name();
  return std::make_unique<Session>(name, std::move(nl), borrowed_charlib(),
                                   &testing::test_library(),
                                   &tech::technology("90nm"),
                                   session_config(threads));
}

/// Everything a consumer of an analysis can observe, bit for bit.
std::vector<std::string> outcome_fingerprints(
    const netlist::Netlist& nl, const Session::AnalyzeOutcome& out) {
  std::vector<std::string> fp;
  for (const sta::TimedPath& tp : out.result.paths) {
    fp.push_back(testing::timed_fingerprint(nl, tp));
  }
  fp.push_back("--fastest--");
  for (const sta::TimedPath& tp : out.result.fastest) {
    fp.push_back(testing::timed_fingerprint(nl, tp));
  }
  fp.push_back("--report--");
  fp.push_back(out.report_text);
  return fp;
}

// --- ECO impact on a hand-analyzable circuit -------------------------------

// c17 (mapped): g(10): NAND(1,3)  g(11): NAND(3,6)  g(16): NAND(2,11)
//               g(19): NAND(11,7) g(22): NAND(10,16) g(23): NAND(16,19).
TEST(EcoImpact, C17FaninConeOfTouchedGate) {
  const netlist::Netlist nl = c17();
  // Touch the driver of net 10 (fanout: 22 only).  Its inputs are PIs, so
  // load coupling adds nothing: TFO(A) = {10, 22}.
  const netlist::InstId touched[] = {
      inst_by_name(nl, driver_name(nl, "10"))};
  const sta::EcoImpact impact = sta::compute_eco_impact(nl, touched);
  // Dirty ⟺ the source's fanout cone meets {10, 22}: PIs 1, 3 (feed 10),
  // 2 and 6 (feed 16 which feeds 22) — but never 7 (feeds only 19 → 23).
  EXPECT_EQ(dirty_names(nl, impact),
            (std::vector<std::string>{"1", "2", "3", "6"}));
  EXPECT_EQ(impact.affected_instances, 1u);
}

TEST(EcoImpact, LoadCouplingWidensTheCone) {
  const netlist::Netlist nl = c17();
  // Touch the driver of PO 23.  Without load coupling only sources
  // reaching 23 are dirty; with it, the edit also re-loads the drivers of
  // nets 16 and 19, whose fanout includes 22 — so PI 1 (reaching only
  // 10 → 22) becomes dirty too.
  const netlist::InstId touched[] = {
      inst_by_name(nl, driver_name(nl, "23"))};
  const sta::EcoImpact narrow =
      sta::compute_eco_impact(nl, touched, /*include_load_coupling=*/false);
  EXPECT_EQ(dirty_names(nl, narrow),
            (std::vector<std::string>{"2", "3", "6", "7"}));
  const sta::EcoImpact wide = sta::compute_eco_impact(nl, touched);
  EXPECT_EQ(dirty_names(nl, wide),
            (std::vector<std::string>{"1", "2", "3", "6", "7"}));
  EXPECT_EQ(wide.affected_instances, 3u);  // g(23) + drivers of 16, 19
}

// Two independent copies of a small circuit in one netlist: edits in one
// component must never dirty the other.
constexpr char kTwoComponentBench[] = R"(
INPUT(a1)
INPUT(a2)
INPUT(a3)
OUTPUT(ax)
OUTPUT(ay)
am = NAND(a1, a2)
an = NAND(a2, a3)
ax = NAND(am, an)
ay = NAND(an, a3)
INPUT(b1)
INPUT(b2)
INPUT(b3)
OUTPUT(bx)
OUTPUT(by)
bm = NAND(b1, b2)
bn = NAND(b2, b3)
bx = NAND(bm, bn)
by = NAND(bn, b3)
)";

TEST(EcoImpact, DisjointComponentsHaveDisjointImpact) {
  const netlist::Netlist nl = mapped_bench(kTwoComponentBench, "twocomp");
  const netlist::InstId in_a[] = {inst_by_name(nl, driver_name(nl, "am"))};
  const netlist::InstId in_b[] = {inst_by_name(nl, driver_name(nl, "bm"))};

  const sta::EcoImpact impact_a = sta::compute_eco_impact(nl, in_a);
  EXPECT_EQ(dirty_names(nl, impact_a),
            (std::vector<std::string>{"a1", "a2", "a3"}));

  const sta::EcoImpact impact_b = sta::compute_eco_impact(nl, in_b);
  EXPECT_EQ(dirty_names(nl, impact_b),
            (std::vector<std::string>{"b1", "b2", "b3"}));
}

// Dead logic off an edited cone: w drives no primary output, so PI d
// reaches none and is not a search source.  It must never be reported
// dirty, whichever gate the edit touches.
constexpr char kDeadLogicBench[] = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(y)
y = NAND(a, z)
z = AND(b, c)
w = NAND(z, d)
)";

TEST(EcoImpact, PiDrivingOnlyDeadLogicIsNeverDirty) {
  const netlist::Netlist nl = mapped_bench(kDeadLogicBench, "deadlogic");
  // A = {driver of w, driver of z}: TFO(A) = {w, z, y}, whose PI support
  // is {a, b, c, d} — minus d, which is no source.
  const netlist::InstId touched[] = {inst_by_name(nl, driver_name(nl, "w"))};
  const sta::EcoImpact impact = sta::compute_eco_impact(nl, touched);
  EXPECT_EQ(dirty_names(nl, impact),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_FALSE(impact.dirty[net_by_name(nl, "d")]);
}

// --- Incremental == cold: the differential battery -------------------------

Session::AnalyzeRequest analyze_request() {
  Session::AnalyzeRequest req;
  req.paths = 8;
  req.fastest = 3;
  req.required_ns = 1.0;
  return req;
}

/// Runs the same request cold on the session (force_cold drops every warm
/// path and timing) and returns its fingerprints.
std::vector<std::string> cold_fingerprints(Session& session) {
  Session::AnalyzeRequest req = analyze_request();
  req.force_cold = true;
  const Session::AnalyzeOutcome out = session.analyze(req);
  EXPECT_EQ(out.sources_searched, out.sources_total);
  return outcome_fingerprints(session.netlist(), out);
}

TEST(EcoDifferential, SwapGateIncrementalMatchesColdRecompute) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    auto session = make_session(generated_circuit(seed));
    const Session::AnalyzeOutcome first = session->analyze(analyze_request());
    ASSERT_FALSE(first.truncated);

    // Swap a mid-circuit NAND for a NOR (same pin count, new function).
    const netlist::Netlist& nl = session->netlist();
    util::Rng rng(seed * 7 + 1);
    std::string victim;
    std::string replacement;
    while (victim.empty()) {
      const auto i =
          static_cast<netlist::InstId>(rng.next_below(nl.num_instances()));
      const netlist::Instance& inst = nl.instance(i);
      const int fan = static_cast<int>(inst.inputs.size());
      for (const char* cell : {"NOR2", "NAND2", "AND2", "NOR3", "NAND3"}) {
        const cell::Cell* c = testing::test_library().find(cell);
        if (c != nullptr && c->num_inputs() == fan &&
            !(c->function() == inst.cell->function())) {
          victim = inst.name;
          replacement = cell;
          break;
        }
      }
    }
    Session::EcoRequest eco;
    eco.op = "swap_gate";
    eco.instance = victim;
    eco.cell = replacement;
    eco.analyze = analyze_request();
    const Session::EcoOutcome out = session->apply_eco(eco);
    EXPECT_TRUE(out.function_changed);
    EXPECT_GT(out.dirty_sources, 0u);
    const std::vector<std::string> incremental =
        outcome_fingerprints(session->netlist(), out.analyze);

    EXPECT_EQ(incremental, cold_fingerprints(*session))
        << "seed " << seed << " swap " << victim << " -> " << replacement;
  }
}

TEST(EcoDifferential, ResizeCellRetimesWithoutResearch) {
  for (const std::uint64_t seed : {5u, 6u}) {
    auto session = make_session(generated_circuit(seed));
    ASSERT_FALSE(session->analyze(analyze_request()).truncated);

    util::Rng rng(seed + 99);
    const netlist::Netlist& nl = session->netlist();
    Session::EcoRequest eco;
    eco.op = "resize_cell";
    eco.instance =
        nl.instance(static_cast<netlist::InstId>(
                        rng.next_below(nl.num_instances())))
            .name;
    eco.scale = 2.0;
    eco.analyze = analyze_request();
    const Session::EcoOutcome out = session->apply_eco(eco);
    // Logic untouched: the enumeration cache answers everything.
    EXPECT_EQ(out.analyze.sources_searched, 0u);
    EXPECT_GT(out.analyze.sources_retimed, 0u);
    const std::vector<std::string> incremental =
        outcome_fingerprints(session->netlist(), out.analyze);

    EXPECT_EQ(incremental, cold_fingerprints(*session)) << "seed " << seed;
  }
}

// Every gate of a design with dead logic hanging off the live cone: a
// resize and a function-changing swap each re-analyze incrementally and
// match a cold recompute bit for bit.
TEST(EcoDifferential, DeadLogicEcosMatchColdRecompute) {
  auto session = make_session(mapped_bench(kDeadLogicBench, "deadlogic"));
  ASSERT_FALSE(session->analyze(analyze_request()).truncated);
  const netlist::Netlist& nl = session->netlist();
  for (netlist::InstId i = 0; i < nl.num_instances(); ++i) {
    Session::EcoRequest resize;
    resize.op = "resize_cell";
    resize.instance = nl.instance(i).name;
    resize.scale = 2.0;
    resize.analyze = analyze_request();
    const Session::EcoOutcome resized = session->apply_eco(resize);
    EXPECT_EQ(outcome_fingerprints(nl, resized.analyze),
              cold_fingerprints(*session))
        << "resize " << resize.instance;

    const int fan = static_cast<int>(nl.instance(i).inputs.size());
    for (const char* cell : {"NOR2", "NAND2", "AND2", "INV", "BUF"}) {
      const cell::Cell* c = testing::test_library().find(cell);
      if (c == nullptr || c->num_inputs() != fan ||
          c->function() == nl.instance(i).cell->function()) {
        continue;
      }
      Session::EcoRequest swap;
      swap.op = "swap_gate";
      swap.instance = nl.instance(i).name;
      swap.cell = cell;
      swap.analyze = analyze_request();
      const Session::EcoOutcome swapped = session->apply_eco(swap);
      EXPECT_TRUE(swapped.function_changed);
      EXPECT_EQ(outcome_fingerprints(nl, swapped.analyze),
                cold_fingerprints(*session))
          << "swap " << swap.instance << " -> " << cell;
      break;
    }
  }
}

TEST(EcoDifferential, RetargetCornerRetimesEverySourceWithoutResearch) {
  auto session = make_session(generated_circuit(77));
  ASSERT_FALSE(session->analyze(analyze_request()).truncated);

  Session::EcoRequest eco;
  eco.op = "retarget_corner";
  eco.has_temp = true;
  eco.temp_c = 85.0;
  eco.analyze = analyze_request();
  const Session::EcoOutcome out = session->apply_eco(eco);
  EXPECT_EQ(out.analyze.sources_searched, 0u);
  EXPECT_EQ(out.analyze.sources_retimed, out.analyze.sources_total);
  const std::vector<std::string> incremental =
      outcome_fingerprints(session->netlist(), out.analyze);

  EXPECT_EQ(incremental, cold_fingerprints(*session));
}

TEST(EcoDifferential, ChainedEcosStayBitIdentical) {
  auto session = make_session(generated_circuit(123));
  ASSERT_FALSE(session->analyze(analyze_request()).truncated);
  const netlist::Netlist& nl = session->netlist();
  util::Rng rng(321);

  for (int step = 0; step < 4; ++step) {
    Session::EcoRequest eco;
    eco.analyze = analyze_request();
    switch (step % 3) {
      case 0: {
        std::string victim;
        std::string replacement;
        while (victim.empty()) {
          const auto i = static_cast<netlist::InstId>(
              rng.next_below(nl.num_instances()));
          const netlist::Instance& inst = nl.instance(i);
          for (const char* cell : {"NAND2", "NOR2", "NAND3", "NOR3"}) {
            const cell::Cell* c = testing::test_library().find(cell);
            if (c != nullptr &&
                c->num_inputs() == static_cast<int>(inst.inputs.size()) &&
                !(c->function() == inst.cell->function())) {
              victim = inst.name;
              replacement = cell;
              break;
            }
          }
        }
        eco.op = "swap_gate";
        eco.instance = victim;
        eco.cell = replacement;
        break;
      }
      case 1:
        eco.op = "resize_cell";
        eco.instance =
            nl.instance(static_cast<netlist::InstId>(
                            rng.next_below(nl.num_instances())))
                .name;
        eco.scale = 0.5 + 0.25 * static_cast<double>(rng.next_below(8));
        break;
      default:
        eco.op = "retarget_corner";
        eco.has_temp = true;
        eco.temp_c = 25.0 + 10.0 * static_cast<double>(rng.next_below(8));
        break;
    }
    const Session::EcoOutcome out = session->apply_eco(eco);
    const std::vector<std::string> incremental =
        outcome_fingerprints(session->netlist(), out.analyze);
    EXPECT_EQ(incremental, cold_fingerprints(*session))
        << "step " << step << " op " << eco.op;
  }
}

// --- Scoped reuse: an edit in one component spares the other ---------------

TEST(EcoScopedReuse, SwapInOneComponentSparesTheOtherComponentsCaches) {
  auto session = make_session(mapped_bench(kTwoComponentBench, "twocomp"));
  const Session::AnalyzeOutcome first = session->analyze(analyze_request());
  ASSERT_FALSE(first.truncated);
  ASSERT_EQ(first.sources_total, 6u);  // a1..a3, b1..b3

  // Swap a gate in component A (function changes: NAND -> NOR).
  Session::EcoRequest eco;
  eco.op = "swap_gate";
  eco.instance = driver_name(session->netlist(), "am");
  eco.cell = "NOR2";
  eco.analyze = analyze_request();
  const Session::EcoOutcome out = session->apply_eco(eco);
  ASSERT_TRUE(out.function_changed);

  // Only component A's sources are dirty; B answers from its warm caches.
  EXPECT_EQ(out.dirty_sources, 3u);
  EXPECT_EQ(out.analyze.sources_searched, 3u);
  EXPECT_GE(out.analyze.sources_reused, 3u);

  // And the incremental answer is still the cold answer, bit for bit.
  const std::vector<std::string> incremental =
      outcome_fingerprints(session->netlist(), out.analyze);
  EXPECT_EQ(incremental, cold_fingerprints(*session));
}

}  // namespace
}  // namespace sasta
