// --report-json / --profile integration tests: the structured run report
// validates against its documented schema ("sasta-run-report-v1" in
// docs/METRICS.md), its attribution tables reconcile exactly with the
// aggregate PathFinderStats, and rendering is deterministic byte-for-byte
// for fixed inputs.  Sections backed by absent sinks must render as empty
// objects/arrays so the key set is schema-stable.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/pathfinder.h"
#include "sta/run_report.h"
#include "test_charlib.h"
#include "test_json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace sasta::sta {
namespace {

netlist::Netlist generated_circuit(std::uint64_t seed) {
  netlist::GeneratorProfile p;
  p.name = "rr" + std::to_string(seed);
  p.num_inputs = 12;
  p.num_outputs = 6;
  p.num_gates = 60;
  p.depth = 7;
  p.seed = seed;
  return netlist::tech_map(netlist::generate_iscas_like(p),
                           testing::test_library())
      .netlist;
}

struct FullRun {
  PathFinderStats stats;
  SearchAttribution attribution;
  util::MetricsSnapshot metrics;
  std::vector<util::TraceEvent> trace_events;
};

FullRun run_with_all_sinks(const netlist::Netlist& nl, JustifyTier tier,
                           int threads) {
  util::MetricsRegistry registry;
  util::TraceCollector trace;
  FullRun out;
  PathFinderOptions opt;
  opt.num_threads = threads;
  opt.justify_cache = JustifyCacheMode::kShared;
  opt.justify_tier = tier;
  opt.metrics = &registry;
  opt.trace = &trace;
  opt.attribution = &out.attribution;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  out.stats = finder.run([](const TruePath&) {});
  out.metrics = registry.snapshot();
  out.trace_events = trace.events();
  return out;
}

std::string render(const netlist::Netlist& nl, const PathFinderOptions* opt,
                   const FullRun& run) {
  util::TraceCollector trace;
  for (const util::TraceEvent& e : run.trace_events) {
    e.ph == 'X' ? trace.add_complete_event(e.name, e.tid, e.ts_us, e.dur_us)
                : trace.add_instant_event(e.name, e.tid, e.ts_us);
  }
  RunReportInputs in;
  in.circuit = nl.name();
  in.netlist = &nl;
  in.options = opt;
  in.stats = &run.stats;
  in.metrics = &run.metrics;
  in.attribution = &run.attribution;
  in.trace = &trace;
  std::ostringstream os;
  write_run_report(in, os);
  return os.str();
}

// Every key the schema documents must be present even when all sinks ran,
// and the whole artifact must be syntactically valid JSON.
TEST(RunReport, ValidatesAgainstDocumentedSchema) {
  const netlist::Netlist nl = generated_circuit(7);
  PathFinderOptions opt;
  opt.justify_cache = JustifyCacheMode::kShared;
  const FullRun run = run_with_all_sinks(nl, JustifyTier::kBoth, 4);
  const std::string json = render(nl, &opt, run);

  EXPECT_TRUE(testing::is_valid_json(json)) << json;
  for (const char* key :
       {"\"schema\": \"sasta-run-report-v1\"", "\"circuit\"", "\"options\"",
        "\"totals\"", "\"cache\"", "\"controller\"", "\"attribution\"",
        "\"sources\"", "\"hot_gates\"", "\"workers\"", "\"metrics\"",
        "\"refutes_per_escalation\"", "\"shard_occupancy\"",
        "\"escalations_vetoed\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// Null sections must not change the key set: a report with no inputs at
// all is still valid JSON carrying every top-level key.
TEST(RunReport, EmptyInputsRenderSchemaStableSkeleton) {
  RunReportInputs in;
  in.circuit = "none";
  std::ostringstream os;
  write_run_report(in, os);
  const std::string json = os.str();
  EXPECT_TRUE(testing::is_valid_json(json)) << json;
  for (const char* key :
       {"\"schema\"", "\"options\"", "\"totals\"", "\"cache\"",
        "\"controller\"", "\"attribution\"", "\"workers\"", "\"metrics\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// The attribution tables are exact decompositions of the aggregate stats,
// not estimates: per-source rows and per-gate tallies must sum back to the
// PathFinderStats totals they attribute.
TEST(RunReport, AttributionReconcilesWithAggregateStats) {
  const netlist::Netlist nl = generated_circuit(11);
  for (const int threads : {1, 4}) {
    const FullRun run = run_with_all_sinks(nl, JustifyTier::kBoth, threads);
    long src_trials = 0, src_backtracks = 0, src_paths = 0, src_limited = 0;
    for (const SearchAttribution::SourceCost& r : run.attribution.sources) {
      if (r.source == netlist::kNoId) continue;
      src_trials += r.vector_trials;
      src_backtracks += r.backtracks;
      src_paths += r.paths_recorded;
      src_limited += r.justify_limited;
    }
    EXPECT_EQ(src_trials, run.stats.vector_trials) << threads << " threads";
    EXPECT_EQ(src_backtracks, run.stats.backtracks);
    EXPECT_EQ(src_paths, run.stats.paths_recorded);
    EXPECT_EQ(src_limited, run.stats.justify_limited);

    long gate_trials = 0, gate_prunes = 0, gate_escalations = 0;
    for (const SearchAttribution::GateCost& g : run.attribution.gates) {
      gate_trials += g.vector_trials;
      gate_prunes += g.cache_prunes;
      gate_escalations += g.solver_escalations;
    }
    EXPECT_EQ(gate_trials, run.stats.vector_trials);
    EXPECT_EQ(gate_prunes, run.stats.cache_prunes);
    EXPECT_EQ(gate_escalations, run.stats.solver_escalations);

    // The shared cache's occupancy never exceeds its inserts.
    long occupied = 0;
    for (const std::size_t n : run.attribution.cache_shards) {
      occupied += static_cast<long>(n);
    }
    EXPECT_GT(occupied, 0);
    EXPECT_LE(occupied, run.stats.cache_inserts);
  }
}

// Rendering is a pure function of its inputs: same snapshot in, same bytes
// out — the report diffs cleanly across runs that did identical work.
TEST(RunReport, RenderingIsDeterministic) {
  const netlist::Netlist nl = generated_circuit(7);
  PathFinderOptions opt;
  const FullRun run = run_with_all_sinks(nl, JustifyTier::kBoth, 4);
  EXPECT_EQ(render(nl, &opt, run), render(nl, &opt, run));
}

// The adaptive controller surfaces in both artifacts: the report's
// controller section flips active and carries the snapshot; the profile
// summary names its state.
TEST(RunReport, ControllerSectionReflectsAdaptiveTier) {
  const netlist::Netlist nl = generated_circuit(11);
  const FullRun both = run_with_all_sinks(nl, JustifyTier::kBoth, 1);
  const FullRun adaptive = run_with_all_sinks(nl, JustifyTier::kAdaptive, 1);
  EXPECT_FALSE(both.attribution.controller_active);
  EXPECT_TRUE(adaptive.attribution.controller_active);
  // The controller's own ledger agrees with the stats counters.
  EXPECT_EQ(adaptive.attribution.controller.escalations,
            adaptive.stats.solver_escalations);
  EXPECT_EQ(adaptive.attribution.controller.refutes,
            adaptive.stats.escalation_refutes);
  EXPECT_EQ(adaptive.attribution.controller.vetoes,
            adaptive.stats.escalations_vetoed);

  const std::string json = render(nl, nullptr, adaptive);
  EXPECT_NE(json.find("\"active\": true"), std::string::npos);
  EXPECT_NE(json.find("\"payoff\""), std::string::npos);

  RunReportInputs in;
  in.circuit = nl.name();
  in.netlist = &nl;
  in.stats = &adaptive.stats;
  in.attribution = &adaptive.attribution;
  const std::string profile = format_profile_summary(in);
  EXPECT_NE(profile.find("controller:"), std::string::npos);
  EXPECT_NE(profile.find("hot gates"), std::string::npos);
}

}  // namespace
}  // namespace sasta::sta
