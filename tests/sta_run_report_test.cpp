// --report-json / --profile integration tests: the structured run report
// validates against its documented schema ("sasta-run-report-v1" in
// docs/METRICS.md), its attribution tables reconcile exactly with the
// aggregate PathFinderStats, its per-worker table folds the per-source
// rows, and rendering is deterministic byte-for-byte for fixed inputs.
// Sections backed by absent sinks must render as empty objects/arrays so
// the key set is schema-stable.
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
#include "test_paths.h"
#include "util/json.h"
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
};

FullRun run_with_all_sinks(const netlist::Netlist& nl, int threads) {
  util::MetricsRegistry registry;
  util::TraceCollector trace;
  FullRun out;
  PathFinderOptions opt;
  opt.num_threads = threads;
  opt.metrics = &registry;
  opt.trace = &trace;
  opt.attribution = &out.attribution;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  out.stats = finder.run([](const TruePath&) {});
  out.metrics = registry.snapshot();
  return out;
}

std::string render(const netlist::Netlist& nl, const PathFinderOptions* opt,
                   const FullRun& run) {
  RunReportInputs in;
  in.circuit = nl.name();
  in.netlist = &nl;
  in.options = opt;
  in.stats = &run.stats;
  in.metrics = &run.metrics;
  in.attribution = &run.attribution;
  std::ostringstream os;
  write_run_report(in, os);
  return os.str();
}

// Every key the schema documents must be present even when all sinks ran,
// and the whole artifact must be syntactically valid JSON.
TEST(RunReport, ValidatesAgainstDocumentedSchema) {
  const netlist::Netlist nl = generated_circuit(7);
  PathFinderOptions opt;
  const FullRun run = run_with_all_sinks(nl, 4);
  const std::string json = render(nl, &opt, run);

  EXPECT_TRUE(testing::is_valid_json(json)) << json;
  for (const char* key :
       {"\"schema\": \"sasta-run-report-v1\"", "\"circuit\"", "\"options\"",
        "\"totals\"", "\"attribution\"", "\"sources\"", "\"hot_gates\"",
        "\"workers\"", "\"metrics\""}) {
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
       {"\"schema\"", "\"options\"", "\"totals\"", "\"attribution\"",
        "\"workers\"", "\"metrics\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

// The attribution tables are exact decompositions of the aggregate stats,
// not estimates: per-source rows and per-gate tallies must sum back to the
// PathFinderStats totals they attribute.
TEST(RunReport, AttributionReconcilesWithAggregateStats) {
  const netlist::Netlist nl = generated_circuit(11);
  for (const int threads : {1, 4}) {
    const FullRun run = run_with_all_sinks(nl, threads);
    SearchCounters sources_sum;
    for (const SearchAttribution::SourceCost& r : run.attribution.sources) {
      if (r.source != netlist::kNoId) sources_sum += r;
    }
    EXPECT_EQ(sources_sum, SearchCounters(run.stats))
        << threads << " threads";

    long gate_trials = 0;
    for (const SearchAttribution::GateCost& g : run.attribution.gates) {
      gate_trials += g.vector_trials;
    }
    EXPECT_EQ(gate_trials, run.stats.vector_trials);
  }
}

// The `workers` table is folded from the per-source rows: one row per lane
// from 1 to pathfinder.workers (lanes that got no source included), whose
// sources sum to the searched rows and whose busy_seconds is the sum of
// that lane's row seconds.
TEST(RunReport, WorkersTableFoldsTheSourceRows) {
  const netlist::Netlist nl = generated_circuit(11);
  for (const int threads : {1, 4}) {
    const FullRun run = run_with_all_sinks(nl, threads);
    PathFinderOptions opt;
    util::JsonValue report;
    std::string err;
    ASSERT_TRUE(util::JsonValue::parse(render(nl, &opt, run), &report, &err))
        << err;
    const long n_workers = run.metrics.counters.at("pathfinder.workers");
    const util::JsonValue& workers = report.get("workers");
    ASSERT_EQ(static_cast<long>(workers.size()), n_workers)
        << threads << " threads";

    long searched = 0;
    std::vector<double> busy(n_workers, 0.0);
    for (const SearchAttribution::SourceCost& r : run.attribution.sources) {
      if (r.source == netlist::kNoId) continue;
      ++searched;
      ASSERT_LT(static_cast<long>(r.worker), n_workers);
      busy[r.worker] += r.seconds;
    }
    long lane_sources = 0;
    for (long t = 0; t < n_workers; ++t) {
      const util::JsonValue& row = workers.at(static_cast<std::size_t>(t));
      EXPECT_EQ(row.get("lane").as_long(), t + 1);
      lane_sources += row.get("sources").as_long();
      EXPECT_EQ(row.get("busy_seconds").as_double(), busy[t])
          << "lane " << t + 1;
    }
    EXPECT_EQ(lane_sources, searched) << threads << " threads";
  }
}

// Rendering is a pure function of its inputs: same snapshot in, same bytes
// out — the report diffs cleanly across runs that did identical work.
TEST(RunReport, RenderingIsDeterministic) {
  const netlist::Netlist nl = generated_circuit(7);
  PathFinderOptions opt;
  const FullRun run = run_with_all_sinks(nl, 4);
  EXPECT_EQ(render(nl, &opt, run), render(nl, &opt, run));
}

// The --profile summary names the top sources and the hot gates, in
// trial order.
TEST(RunReport, ProfileSummaryListsSourcesAndHotGates) {
  const netlist::Netlist nl = generated_circuit(11);
  const FullRun run = run_with_all_sinks(nl, 1);
  RunReportInputs in;
  in.circuit = nl.name();
  in.netlist = &nl;
  in.stats = &run.stats;
  in.attribution = &run.attribution;
  const std::string profile = format_profile_summary(in);
  EXPECT_NE(profile.find("top sources"), std::string::npos) << profile;
  EXPECT_NE(profile.find("hot gates"), std::string::npos) << profile;
}

}  // namespace
}  // namespace sasta::sta
