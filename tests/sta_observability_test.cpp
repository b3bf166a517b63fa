// End-to-end guarantees of the observability layer: the per-source
// attribution rows reconcile exactly with the aggregate PathFinderStats,
// the enumerated paths are bit-identical with instrumentation on or off at
// every thread count, the emitted trace is valid Chrome trace-event JSON
// whose worker lanes match the rows' workers, and the run monitor's
// --progress lines stay whole beside a multi-worker search.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "test_charlib.h"
#include "test_json.h"
#include "util/flight_recorder.h"
#include "util/log.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace sasta::sta {
namespace {

netlist::Netlist c17() {
  return netlist::tech_map(
             netlist::parse_bench_string(netlist::c17_bench_text(), "c17"),
             testing::test_library())
      .netlist;
}

netlist::Netlist generated_circuit(std::uint64_t seed) {
  netlist::GeneratorProfile p;
  p.name = "obs" + std::to_string(seed);
  p.num_inputs = 12;
  p.num_outputs = 6;
  p.num_gates = 60;
  p.depth = 7;
  p.seed = seed;
  return netlist::tech_map(netlist::generate_iscas_like(p),
                           testing::test_library())
      .netlist;
}

std::string hex_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string fingerprint(const netlist::Netlist& nl, const TimedPath& tp) {
  std::string s = tp.path.full_key(nl);
  s += "|" + hex_double(tp.delay) + "|" + hex_double(tp.arrival_slew);
  for (const auto& [net, val] : tp.path.pi_assignment) {
    s += ";" + nl.net(net).name + "=" + (val ? "1" : "0");
  }
  return s;
}

/// Every search counter summed over the searched attribution rows.
SearchCounters row_totals(const SearchAttribution& attribution) {
  SearchCounters sum;
  for (const SearchAttribution::SourceCost& r : attribution.sources) {
    if (r.source != netlist::kNoId) sum += r;
  }
  return sum;
}

class PerSourceReconciliation : public ::testing::TestWithParam<int> {};

// The per-source rows, summed over all sources, must equal the aggregate
// PathFinderStats bit for bit — at every thread count (sources never span
// workers, so the per-source deltas are exact).
TEST_P(PerSourceReconciliation, SumsEqualAggregateStats) {
  const int threads = GetParam();
  const netlist::Netlist circuits[] = {c17(), generated_circuit(17)};
  for (const netlist::Netlist& nl : circuits) {
    util::MetricsRegistry metrics;
    SearchAttribution attribution;
    PathFinderOptions opt;
    opt.num_threads = threads;
    opt.metrics = &metrics;
    opt.attribution = &attribution;
    PathFinder finder(nl, testing::test_charlib("90nm"), opt);
    const PathFinderStats stats = finder.run([](const TruePath&) {});
    ASSERT_GT(stats.paths_recorded, 0);

    EXPECT_EQ(row_totals(attribution), SearchCounters(stats))
        << nl.name() << " threads=" << threads;
    const util::MetricsSnapshot snap = metrics.snapshot();
    // The justification-depth histogram sees exactly one observation per
    // recorded path.
    EXPECT_EQ(snap.histograms.at("pathfinder.justify_depth").observations,
              stats.paths_recorded);
    // Every source is searched once, by one of the run's workers.
    long searched = 0;
    for (const SearchAttribution::SourceCost& r : attribution.sources) {
      if (r.source == netlist::kNoId) continue;
      ++searched;
      EXPECT_LT(r.worker, attribution.workers);
    }
    EXPECT_EQ(searched, snap.counters.at("pathfinder.sources_total"));
    EXPECT_EQ(static_cast<long>(attribution.workers),
              snap.counters.at("pathfinder.workers"));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PerSourceReconciliation,
                         ::testing::Values(1, 8));

// Acceptance criterion: StaResult::paths is bit-identical with
// instrumentation on vs off, at 1 and 8 threads.  "On" includes the flight
// recorder with a run monitor reading it throughout the run.
TEST(Observability, InstrumentationDoesNotPerturbResults) {
  const netlist::Netlist nl = generated_circuit(23);
  const auto& cl = testing::test_charlib("90nm");
  const auto& tech = tech::technology("90nm");

  for (const int threads : {1, 8}) {
    StaToolOptions plain;
    plain.finder.num_threads = threads;
    const StaResult want = StaTool(nl, cl, tech, plain).run();
    ASSERT_FALSE(want.paths.empty());

    util::MetricsRegistry metrics;
    util::TraceCollector trace;
    util::FlightRecorder::Config cfg;
    cfg.lanes = 8;
    util::FlightRecorder rec(cfg);
    StaToolOptions instrumented = plain;
    instrumented.finder.metrics = &metrics;
    instrumented.finder.trace = &trace;
    instrumented.finder.flight = &rec;
    util::RunMonitor::Options mo;
    mo.progress_seconds = 0.01;
    mo.watchdog_seconds = 0.01;
    mo.on_stall = [](const std::string&) {};
    const StaResult got = [&] {
      util::RunMonitor monitor(rec, mo);
      return StaTool(nl, cl, tech, instrumented).run();
    }();

    ASSERT_EQ(got.paths.size(), want.paths.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < want.paths.size(); ++i) {
      EXPECT_EQ(fingerprint(nl, got.paths[i]), fingerprint(nl, want.paths[i]))
          << "threads=" << threads << " index " << i;
    }
  }
}

// The emitted trace parses as JSON, carries one span per searched source,
// and its worker-lane tid set matches exactly the workers the attribution
// rows name (lane = worker index + 1).
TEST(Observability, TraceLanesMatchAttributionWorkers) {
  const netlist::Netlist nl = generated_circuit(31);
  util::MetricsRegistry metrics;
  util::TraceCollector trace;
  SearchAttribution attribution;
  PathFinderOptions opt;
  opt.num_threads = 4;
  opt.metrics = &metrics;
  opt.trace = &trace;
  opt.attribution = &attribution;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  finder.run([](const TruePath&) {});

  const util::MetricsSnapshot snap = metrics.snapshot();
  std::set<int> row_lanes;
  for (const SearchAttribution::SourceCost& r : attribution.sources) {
    if (r.source != netlist::kNoId) {
      row_lanes.insert(static_cast<int>(r.worker) + 1);
    }
  }

  std::set<int> trace_lanes;
  long source_spans = 0;
  for (const util::TraceEvent& e : trace.events()) {
    if (e.name.rfind("source ", 0) == 0) {
      trace_lanes.insert(e.tid);
      ++source_spans;
      EXPECT_GE(e.dur_us, 0.0);
    }
  }
  EXPECT_EQ(trace_lanes, row_lanes);
  EXPECT_EQ(source_spans, snap.counters.at("pathfinder.sources_total"));

  // Phase spans from the orchestrating thread sit on lane 0.
  bool saw_run_span = false;
  for (const util::TraceEvent& e : trace.events()) {
    if (e.name == "pathfinder/run") {
      saw_run_span = true;
      EXPECT_EQ(e.tid, 0);
    }
  }
  EXPECT_TRUE(saw_run_span);

  std::ostringstream os;
  trace.write_json(os);
  EXPECT_TRUE(testing::is_valid_json(os.str()));
}

// The run monitor beside a multi-worker search with the metrics sink and
// the attribution table armed (the CLI arms all of them for --progress
// --report-json): every stderr line stays whole while the rows still
// reconcile exactly with the aggregate stats and the histogram sees every
// recorded path.  A ticker thread closes monitor ticks while the workers
// run, and one last tick after the run guarantees at least one line.
TEST(Observability, MonitorLinesStayWholeBesideMultiWorkerSearch) {
  const netlist::Netlist nl = generated_circuit(41);
  std::ostringstream captured;
  std::streambuf* old_buf = std::cerr.rdbuf(captured.rdbuf());
  const util::LogLevel old_level = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);

  util::MetricsRegistry metrics;
  SearchAttribution attribution;
  util::FlightRecorder::Config cfg;
  cfg.lanes = 4;
  util::FlightRecorder rec(cfg);
  PathFinderOptions opt;
  opt.num_threads = 4;
  opt.metrics = &metrics;
  opt.attribution = &attribution;
  opt.flight = &rec;
  PathFinderStats stats;
  {
    util::RunMonitor::Options mo;
    mo.manual_tick = true;
    mo.progress_seconds = 2.0;
    mo.net_name = [&](std::uint32_t net) {
      return nl.net(static_cast<netlist::NetId>(net)).name;
    };
    util::RunMonitor monitor(rec, mo);
    std::atomic<bool> done{false};
    std::thread ticker([&] {
      while (!done.load()) {
        monitor.tick_for_testing();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
    PathFinder finder(nl, testing::test_charlib("90nm"), opt);
    stats = finder.run([](const TruePath&) {});
    done.store(true);
    ticker.join();
    monitor.tick_for_testing();
  }

  util::set_log_level(old_level);
  std::cerr.rdbuf(old_buf);

  const std::string out = captured.str();
  std::istringstream lines(out);
  std::string line;
  long progress_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_EQ(line.rfind("[sasta ", 0), 0u) << "sheared line: " << line;
    if (line.find("progress: ") != std::string::npos) {
      ++progress_lines;
      EXPECT_NE(line.find(" sources, "), std::string::npos) << line;
      EXPECT_NE(line.find(" s elapsed | w0 "), std::string::npos) << line;
      EXPECT_NE(line.find(" | w3 "), std::string::npos) << line;
    }
  }
  EXPECT_GT(progress_lines, 0) << out;
  // The last tick came after the run: every source is done and every
  // trial is in the lanes' live sum.
  const std::string last_head =
      "progress: " + std::to_string(rec.run_sources()) + "/" +
      std::to_string(rec.run_sources()) + " sources, " +
      std::to_string(stats.vector_trials) + " vector trials";
  EXPECT_NE(out.find(last_head), std::string::npos) << out;

  // The rows still reconcile exactly, and so does the metrics sink.
  EXPECT_EQ(row_totals(attribution), SearchCounters(stats));
  const util::MetricsSnapshot snap = metrics.snapshot();
  EXPECT_EQ(snap.histograms.at("pathfinder.justify_depth").observations,
            stats.paths_recorded);
}

}  // namespace
}  // namespace sasta::sta
