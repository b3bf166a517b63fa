// Flight recorder integration battery: the recorder is strictly
// result-neutral (report bytes identical on/off at every thread count),
// actually records the expected event kinds during a real search, the
// stall watchdog fires on an injected stall and its dump names the stuck
// worker's source, and the --selfcheck reconciliation passes on honest
// runs while catching injected counter corruption.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/pathfinder.h"
#include "sta/report.h"
#include "sta/run_report.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "test_charlib.h"
#include "test_paths.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"

namespace sasta::sta {
namespace {

netlist::Netlist generated_circuit(std::uint64_t seed, int pis = 12,
                                   int gates = 60, int depth = 7) {
  netlist::GeneratorProfile p;
  p.name = "fr" + std::to_string(seed);
  p.num_inputs = pis;
  p.num_outputs = 6;
  p.num_gates = gates;
  p.depth = depth;
  p.seed = seed;
  return netlist::tech_map(netlist::generate_iscas_like(p),
                           testing::test_library())
      .netlist;
}

// --- Result neutrality ------------------------------------------------------

// Full-pipeline report-byte identity: fingerprints (bit-exact delays
// included), the rendered timing report, and every search counter are
// identical with the recorder on and off, at every thread count.  This is
// the recorder's core contract: it observes the search without being
// observable by it.
TEST(FlightRecorderNeutrality, ReportBytesIdenticalOnAndOffAcrossThreads) {
  const netlist::Netlist nl = generated_circuit(7, 12, 70);
  const auto& cl = testing::test_charlib("90nm");
  const auto& tech = tech::technology("90nm");

  auto render = [&](bool recorder, int threads, PathFinderStats* stats_out) {
    util::FlightRecorder::Config cfg;
    cfg.lanes = 8;
    util::FlightRecorder rec(cfg);
    StaToolOptions opt;
    opt.keep_worst = 10;
    opt.finder.num_threads = threads;
    if (recorder) opt.finder.flight = &rec;
    const StaResult res = StaTool(nl, cl, tech, opt).run();
    if (stats_out != nullptr) *stats_out = res.stats;
    if (recorder) {
      EXPECT_GT(rec.total_events(), 0u) << "recorder attached but silent";
    }
    std::ostringstream os;
    for (const auto& tp : res.paths) {
      os << testing::timed_fingerprint(nl, tp) << "\n";
    }
    const TimingReport rep = build_timing_report(nl, res, 0.9e-9);
    os << format_timing_report(nl, rep);
    for (const auto& ep : rep.endpoints) {
      os << testing::hex_double(ep.slack) << "\n";
    }
    return os.str();
  };

  PathFinderStats base_stats;
  const std::string base = render(false, 1, &base_stats);
  ASSERT_FALSE(base.empty());
  for (const int threads : {1, 4, 8}) {
    PathFinderStats off_stats, on_stats;
    const std::string off = render(false, threads, &off_stats);
    const std::string on = render(true, threads, &on_stats);
    EXPECT_EQ(off, base) << "threads " << threads;
    EXPECT_EQ(on, base) << "threads " << threads;
    // The counter stream must be untouched too, not just the report.
    EXPECT_EQ(on_stats.vector_trials, off_stats.vector_trials);
    EXPECT_EQ(on_stats.paths_recorded, off_stats.paths_recorded);
    EXPECT_EQ(on_stats.courses, off_stats.courses);
  }
}

// --- Recording coverage -----------------------------------------------------

// A real search populates the rings with the expected kinds and the
// activity slots reconcile with the aggregate stats.
TEST(FlightRecorderCoverage, SearchEmitsExpectedKindsAndActivityReconciles) {
  const netlist::Netlist nl = generated_circuit(3);
  util::FlightRecorder::Config cfg;
  cfg.lanes = 4;
  cfg.events_per_lane = 1 << 16;  // big enough that nothing is lapped
  util::FlightRecorder rec(cfg);

  PathFinderOptions opt;
  opt.num_threads = 4;
  opt.flight = &rec;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  const PathFinderStats stats = finder.run([](const TruePath&) {});

  std::set<std::uint8_t> kinds;
  std::uint64_t trials = 0, paths = 0, sources = 0;
  for (unsigned i = 0; i < rec.num_lanes(); ++i) {
    for (const util::FlightEvent& e : rec.lane(i).snapshot(1 << 16)) {
      kinds.insert(e.kind);
    }
    const util::FlightLane::Activity a = rec.lane(i).activity();
    trials += a.trials;
    paths += a.paths;
    sources += a.sources_done;
    EXPECT_EQ(a.source, util::kFlightIdle) << "lane " << i << " not idle "
                                           << "after the run";
  }
  using K = util::FlightEventKind;
  EXPECT_TRUE(kinds.count(static_cast<std::uint8_t>(K::kSourceClaim)));
  EXPECT_TRUE(kinds.count(static_cast<std::uint8_t>(K::kSourceDone)));
  EXPECT_TRUE(kinds.count(static_cast<std::uint8_t>(K::kTrial)));
  EXPECT_TRUE(kinds.count(static_cast<std::uint8_t>(K::kPathRecorded)));

  EXPECT_EQ(trials, static_cast<std::uint64_t>(stats.vector_trials));
  EXPECT_EQ(paths, static_cast<std::uint64_t>(stats.paths_recorded));
  // Every sink-reaching PI is claimed exactly once across the lanes.
  EXPECT_GT(sources, 0u);
  EXPECT_LE(sources, nl.primary_inputs().size());
}

// --- Stall watchdog, end to end ---------------------------------------------

// Inject a stall (the worker blocks on its first vector trial, mid-source)
// and prove the watchdog fires and the dump it writes names the stuck
// worker's source.  Deterministic: the search thread parks on a condition
// variable until the test releases it, and the watchdog runs in manual-tick
// mode, so no assertion races a wall-clock timer.
TEST(FlightRecorderWatchdog, InjectedStallFiresWatchdogAndDumpNamesWorker) {
  const netlist::Netlist nl = generated_circuit(3);
  util::FlightRecorder::Config cfg;
  cfg.lanes = 1;
  util::FlightRecorder rec(cfg);

  const std::string dump_path =
      (std::filesystem::temp_directory_path() / "sasta_stall_injection.dump")
          .string();
  std::filesystem::remove(dump_path);

  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  PathFinderOptions opt;
  opt.num_threads = 1;
  opt.flight = &rec;
  // watchdog_seconds stays off: the test drives its own manual-tick
  // watchdog so the run never creates a wall-clock one.
  opt.test_trial_hook = [&](netlist::InstId) {
    std::unique_lock<std::mutex> lk(mu);
    if (parked) return;  // only the first trial stalls
    parked = true;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
  };

  util::StallWatchdog::Hooks hooks;
  hooks.manual_tick = true;
  hooks.dump_path = dump_path;
  std::vector<std::string> reports;
  hooks.on_stall = [&](const std::string& r) { reports.push_back(r); };
  hooks.net_name = [&](std::uint32_t net) {
    return nl.net(static_cast<netlist::NetId>(net)).name;
  };
  util::StallWatchdog dog(rec, 1.0, hooks);

  std::thread search([&] {
    PathFinder finder(nl, testing::test_charlib("90nm"), opt);
    finder.run([](const TruePath&) {});
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return parked; });
  }
  // The worker is now provably mid-source and blocked.  Window 1 records
  // the progress baseline; window 2 closes with zero progress while the
  // lane is busy, which is the stall definition.
  dog.tick_for_testing();
  dog.tick_for_testing();
  EXPECT_EQ(rec.stalls(), 1) << "watchdog missed a certain stall";
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("no progress for 1.0 s"), std::string::npos)
      << reports[0];

  // tick_for_testing returns only after the window is fully processed, so
  // the dump is complete before the worker is released.
  std::ifstream is(dump_path);
  ASSERT_TRUE(is.good()) << "watchdog wrote no dump";
  std::ostringstream os;
  os << is.rdbuf();
  const std::string dump = os.str();
  std::filesystem::remove(dump_path);

  {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
  }
  cv.notify_all();
  search.join();

  EXPECT_EQ(dump.rfind("sasta-flightdump-v1\n", 0), 0u);
  EXPECT_NE(dump.find("end\n"), std::string::npos) << "truncated dump";
  // The stuck worker was mid-source when the dump was taken: its activity
  // line must name a real source, not '-'.
  EXPECT_NE(dump.find("lane 0 activity source "), std::string::npos);
  EXPECT_EQ(dump.find("lane 0 activity source - "), std::string::npos)
      << "dump shows the stuck worker as idle:\n"
      << dump;
}

// A healthy run never reports a stall: a busy window that makes progress
// and an idle window after completion both pass.  Same manual-tick pacing
// as above — window boundaries are chosen by the test, not a timer, so a
// loaded CI host cannot turn a slow-but-progressing run into a false stall.
TEST(FlightRecorderWatchdog, HealthyRunReportsNoStalls) {
  const netlist::Netlist nl = generated_circuit(5, 10, 40, 6);
  util::FlightRecorder::Config cfg;
  cfg.lanes = 1;
  util::FlightRecorder rec(cfg);

  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  PathFinderOptions opt;
  opt.num_threads = 1;
  opt.flight = &rec;
  opt.test_trial_hook = [&](netlist::InstId) {
    std::unique_lock<std::mutex> lk(mu);
    if (parked) return;
    parked = true;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
  };

  util::StallWatchdog::Hooks hooks;
  hooks.manual_tick = true;
  std::vector<std::string> reports;
  hooks.on_stall = [&](const std::string& r) { reports.push_back(r); };
  util::StallWatchdog dog(rec, 1.0, hooks);

  std::thread search([&] {
    PathFinder finder(nl, testing::test_charlib("90nm"), opt);
    finder.run([](const TruePath&) {});
  });
  {
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return parked; });
  }
  dog.tick_for_testing();  // baseline window, worker busy
  {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
  }
  cv.notify_all();
  search.join();
  // The run recorded paths and finished its sources between the baseline
  // tick and now: progress advanced, so this window must not fire.  The
  // windows after that see an idle recorder, which never stalls.
  dog.tick_for_testing();
  dog.tick_for_testing();
  EXPECT_EQ(rec.stalls(), 0);
  EXPECT_TRUE(reports.empty());
}

// --- Selfcheck reconciliation -----------------------------------------------

// An honest run reconciles across every redundant view (attribution rows,
// per-source metrics, recorder activity, internal invariants); corrupting
// any aggregate is caught with a named diff line.
TEST(FlightRecorderSelfcheck, CleanRunReconcilesAndCorruptionIsCaught) {
  const netlist::Netlist nl = generated_circuit(3);
  util::FlightRecorder::Config cfg;
  cfg.lanes = 4;
  util::FlightRecorder rec(cfg);
  util::MetricsRegistry metrics;
  SearchAttribution attribution;

  PathFinderOptions opt;
  opt.num_threads = 4;
  opt.flight = &rec;
  opt.metrics = &metrics;
  opt.attribution = &attribution;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  const PathFinderStats stats = finder.run([](const TruePath&) {});
  const util::MetricsSnapshot snap = metrics.snapshot();

  RunReportInputs in;
  in.circuit = nl.name();
  in.netlist = &nl;
  in.options = &opt;
  in.stats = &stats;
  in.metrics = &snap;
  in.attribution = &attribution;
  in.flight = &rec;

  const std::vector<std::string> clean = selfcheck_run(in);
  EXPECT_TRUE(clean.empty()) << "unexpected violations, first: " << clean[0];

  // Corrupt the aggregate trial count: attribution, metrics AND recorder
  // views must all disagree now.
  PathFinderStats corrupted = stats;
  corrupted.vector_trials += 1;
  in.stats = &corrupted;
  const std::vector<std::string> caught = selfcheck_run(in);
  EXPECT_FALSE(caught.empty()) << "corruption slipped through selfcheck";
  bool mentions_trials = false;
  for (const std::string& v : caught) {
    if (v.find("vector_trials") != std::string::npos) mentions_trials = true;
  }
  EXPECT_TRUE(mentions_trials) << "diff does not name the corrupted counter";
}

}  // namespace
}  // namespace sasta::sta
