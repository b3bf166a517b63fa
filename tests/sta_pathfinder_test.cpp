#include <gtest/gtest.h>

#include <set>

#include "cell/library_builder.h"
#include "charlib/characterizer.h"
#include "test_charlib.h"
#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/levelize.h"
#include "netlist/techmap.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "util/stopwatch.h"

namespace sasta::sta {
namespace {

using netlist::NetId;

const cell::Library& lib() { return sasta::testing::test_library(); }

const charlib::CharLibrary& charlib() {
  return sasta::testing::test_charlib("90nm");
}

/// Logic-simulates the netlist; pi_values maps net -> 0/1.
std::vector<int> simulate(const netlist::Netlist& nl,
                          const std::vector<int>& net_values_in) {
  std::vector<int> value = net_values_in;
  const auto lv = netlist::levelize(nl);
  for (netlist::InstId ii : lv.topo_order) {
    const netlist::Instance& inst = nl.instance(ii);
    std::uint32_t m = 0;
    for (std::size_t p = 0; p < inst.inputs.size(); ++p) {
      if (value[inst.inputs[p]]) m |= 1u << p;
    }
    value[inst.output] = inst.cell->function().value(m) ? 1 : 0;
  }
  return value;
}

/// Validates a reported true path: for EVERY completion of the unassigned
/// PIs, toggling the source PI must toggle every net along the path (the
/// definition of a sensitized path under steady side inputs).
void validate_path(const netlist::Netlist& nl, const TruePath& p) {
  std::vector<NetId> free_pis;
  std::vector<int> base(nl.num_nets(), 0);
  std::set<NetId> assigned;
  for (const auto& [net, val] : p.pi_assignment) {
    base[net] = val ? 1 : 0;
    assigned.insert(net);
  }
  for (NetId pi : nl.primary_inputs()) {
    if (pi != p.source && !assigned.count(pi)) free_pis.push_back(pi);
  }
  ASSERT_LE(free_pis.size(), 12u) << "test circuit too large to enumerate";

  for (std::uint32_t m = 0; m < (1u << free_pis.size()); ++m) {
    std::vector<int> values = base;
    for (std::size_t i = 0; i < free_pis.size(); ++i) {
      values[free_pis[i]] = (m >> i) & 1;
    }
    // Initial and final values of the launching input.
    const int v0 = p.launch_edge == spice::Edge::kRise ? 0 : 1;
    values[p.source] = v0;
    const auto before = simulate(nl, values);
    values[p.source] = 1 - v0;
    const auto after = simulate(nl, values);
    // Every net along the path must toggle.
    NetId net = p.source;
    EXPECT_NE(before[net], after[net]);
    for (const PathStep& s : p.steps) {
      net = nl.instance(s.inst).output;
      EXPECT_NE(before[net], after[net])
          << "path node " << nl.net(net).name << " did not toggle (m=" << m
          << ")";
    }
  }
}

TEST(PathFinder, C17FindsTruePathsAndValidates) {
  const auto prim = netlist::parse_bench_string(netlist::c17_bench_text());
  const auto mapped = netlist::tech_map(prim, lib());
  PathFinder finder(mapped.netlist, charlib());
  const auto paths = finder.find_all();
  ASSERT_GT(paths.size(), 0u);
  // All-NAND2 circuit: one vector per input, so every course has exactly
  // one combination.
  PathFinder finder2(mapped.netlist, charlib());
  PathFinderStats stats = finder2.run([](const TruePath&) {});
  EXPECT_EQ(stats.paths_recorded, static_cast<long>(paths.size()));
  EXPECT_EQ(stats.multi_vector_courses, 0);
  EXPECT_EQ(stats.courses, stats.paths_recorded);
  EXPECT_FALSE(stats.truncated);
  for (const auto& p : paths) validate_path(mapped.netlist, p);
}

/// Path through an AO22 input A with three justifiable side vectors.
struct Ao22Fixture {
  netlist::Netlist nl{"ao22fix"};
  NetId a, b, c, d, e, n1, n2, out;
  Ao22Fixture() {
    a = nl.add_net("a");
    b = nl.add_net("b");
    c = nl.add_net("c");
    d = nl.add_net("d");
    e = nl.add_net("e");
    n1 = nl.add_net("n1");
    n2 = nl.add_net("n2");
    out = nl.add_net("out");
    for (NetId pi : {a, b, c, d, e}) nl.mark_primary_input(pi);
    nl.add_instance("g0", lib().find("INV"), {a}, n1);
    nl.add_instance("g1", lib().find("AO22"), {n1, b, c, d}, n2);
    nl.add_instance("g2", lib().find("NAND2"), {n2, e}, out);
    nl.mark_primary_output(out);
  }
};

TEST(PathFinder, EnumeratesAllSensitizationVectorCombos) {
  Ao22Fixture f;
  PathFinder finder(f.nl, charlib());
  const auto paths = finder.find_all();
  // Paths launched from 'a': 3 AO22 vectors x 2 directions = 6.
  int from_a = 0;
  std::set<int> vector_ids;
  for (const auto& p : paths) {
    if (p.source != f.a) continue;
    ++from_a;
    ASSERT_EQ(p.steps.size(), 3u);
    EXPECT_EQ(p.steps[1].pin, 0);  // AO22 input A
    vector_ids.insert(p.steps[1].vector_id);
    validate_path(f.nl, p);
  }
  EXPECT_EQ(from_a, 6);
  EXPECT_EQ(vector_ids.size(), 3u);
}

TEST(PathFinder, MultiVectorCourseCounting) {
  Ao22Fixture f;
  PathFinder finder(f.nl, charlib());
  PathFinderStats stats = finder.run([](const TruePath&) {});
  // Courses from 'a' (2, one per direction) are multi-vector.
  EXPECT_GE(stats.multi_vector_courses, 2);
  EXPECT_GT(stats.paths_recorded, stats.courses);
}

TEST(PathFinder, FalsePathExcluded) {
  // z = AND2(a, NOT(a)): constant 0, no true path through either pin.
  netlist::Netlist nl("fp");
  const NetId a = nl.add_net("a");
  const NetId na = nl.add_net("na");
  const NetId z = nl.add_net("z");
  nl.mark_primary_input(a);
  nl.add_instance("g0", lib().find("INV"), {a}, na);
  nl.add_instance("g1", lib().find("AND2"), {a, na}, z);
  nl.mark_primary_output(z);
  PathFinder finder(nl, charlib());
  const auto paths = finder.find_all();
  EXPECT_TRUE(paths.empty());
}

TEST(PathFinder, ReconvergentConstraintLimitsVectors) {
  // AO22 with C and D tied through an inverter: C = x, D = NOT(x).
  // For input A: (B,C,D) = (1,0,0) impossible; (1,1,0) and (1,0,1) remain.
  netlist::Netlist nl("recon");
  const NetId a = nl.add_net("a");
  const NetId b = nl.add_net("b");
  const NetId x = nl.add_net("x");
  const NetId nx = nl.add_net("nx");
  const NetId z = nl.add_net("z");
  for (NetId pi : {a, b, x}) nl.mark_primary_input(pi);
  nl.add_instance("g0", lib().find("INV"), {x}, nx);
  nl.add_instance("g1", lib().find("AO22"), {a, b, x, nx}, z);
  nl.mark_primary_output(z);
  PathFinder finder(nl, charlib());
  const auto paths = finder.find_all();
  std::set<int> vecs;
  for (const auto& p : paths) {
    if (p.source != a) continue;
    vecs.insert(p.steps[0].vector_id);
    validate_path(nl, p);
  }
  EXPECT_EQ(vecs.size(), 2u);      // Case 1 (C=D=0) is logically impossible
  EXPECT_EQ(vecs.count(0), 0u);    // vector id 0 == Case 1
}

TEST(PathFinder, MaxPathsTruncates) {
  Ao22Fixture f;
  PathFinderOptions opt;
  opt.max_paths = 3;
  PathFinder finder(f.nl, charlib(), opt);
  PathFinderStats stats = finder.run([](const TruePath&) {});
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.paths_recorded, 3);
}

// Search-order pin: the justifier's cube order decides every
// budget-limited verdict, so a change to how cubes are computed, ranked or
// evaluated must leave these counters exactly where they are.  One heavy
// c432 source (about 1 s) under the default options at one thread:
// vector_trials = 2000, backtracks = 2030687, justify_limited = 849,
// paths_recorded = 344 — the counters the earlier search printed with its
// justification memo cache off (justify_cache = kOff).  A different value
// is a changed search order, not noise: at one thread every counter here
// is deterministic.
TEST(PathFinder, C432HeavySourceSearchOrderIsPinned) {
  const netlist::Netlist nl =
      netlist::tech_map(
          netlist::generate_iscas_like(netlist::iscas_profile("c432")), lib())
          .netlist;
  const NetId source = nl.net_id("I1");
  PathFinderOptions opt;
  opt.num_threads = 1;
  opt.source_filter = [source](NetId n) { return n == source; };
  PathFinder finder(nl, charlib(), opt);
  const PathFinderStats stats = finder.run([](const TruePath&) {});
  EXPECT_EQ(stats.vector_trials, 2000);
  EXPECT_EQ(stats.backtracks, 2030687);
  EXPECT_EQ(stats.justify_limited, 849);
  EXPECT_EQ(stats.paths_recorded, 344);
}

// max_seconds bounds an exact (--budget -1) search: the justifier polls
// the run's stop authority, so a solve in progress cannot hold the run past
// its deadline.  c432 source I13 enters a single exact solve within its
// first 0.3 s that, unpolled, runs for over 20 s.
TEST(PathFinder, DeadlineStopsExactJustification) {
  const netlist::Netlist nl =
      netlist::tech_map(
          netlist::generate_iscas_like(netlist::iscas_profile("c432")), lib())
          .netlist;
  const NetId source = nl.net_id("I13");
  PathFinderOptions opt;
  opt.num_threads = 1;
  opt.justify_backtrack_budget = -1;
  opt.max_seconds = 1.0;
  opt.source_filter = [source](NetId n) { return n == source; };
  PathFinder finder(nl, charlib(), opt);
  util::Stopwatch watch;
  const PathFinderStats stats = finder.run([](const TruePath&) {});
  EXPECT_TRUE(stats.truncated);
  EXPECT_LT(watch.elapsed_seconds(), opt.max_seconds + 1.0);
}

TEST(StaTool, DelaysOrderedAndVectorsDiffer) {
  Ao22Fixture f;
  StaToolOptions opt;
  StaTool tool(f.nl, charlib(), tech::technology("90nm"), opt);
  const StaResult res = tool.run();
  ASSERT_GT(res.paths.size(), 0u);
  for (std::size_t i = 1; i < res.paths.size(); ++i) {
    EXPECT_GE(res.paths[i - 1].delay, res.paths[i].delay);
  }
  EXPECT_GT(res.critical().delay, 0.0);
  // Among the 'a'-sourced falling-launch paths, different AO22 vectors give
  // different delays (the whole point of vector-aware STA).
  std::set<long> distinct;
  for (const auto& tp : res.paths) {
    if (tp.path.source != f.a ||
        tp.path.launch_edge != spice::Edge::kFall) {
      continue;
    }
    distinct.insert(static_cast<long>(tp.delay * 1e15));
  }
  EXPECT_GE(distinct.size(), 2u);
}

TEST(StaTool, KeepWorstLimitsStorage) {
  Ao22Fixture f;
  StaToolOptions opt;
  opt.keep_worst = 2;
  StaTool tool(f.nl, charlib(), tech::technology("90nm"), opt);
  const StaResult res = tool.run();
  EXPECT_EQ(res.paths.size(), 2u);
  // Must be the two slowest: run unrestricted and compare.
  StaToolOptions opt_all;
  StaTool tool_all(f.nl, charlib(), tech::technology("90nm"), opt_all);
  const StaResult res_all = tool_all.run();
  EXPECT_NEAR(res.paths[0].delay, res_all.paths[0].delay, 1e-18);
  EXPECT_NEAR(res.paths[1].delay, res_all.paths[1].delay, 1e-18);
}

TEST(StaTool, StageDelaysSumToTotal) {
  Ao22Fixture f;
  StaTool tool(f.nl, charlib(), tech::technology("90nm"));
  const StaResult res = tool.run();
  for (const auto& tp : res.paths) {
    double sum = 0;
    for (double d : tp.stage_delays) sum += d;
    EXPECT_NEAR(sum, tp.delay, 1e-15);
    EXPECT_EQ(tp.stage_delays.size(), tp.path.steps.size());
  }
}

}  // namespace
}  // namespace sasta::sta
