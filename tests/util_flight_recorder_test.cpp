// Flight recorder unit battery: ring wraparound and lapped-window
// discard, activity-slot bookkeeping, torn-read safety under a concurrent
// writer (the TSan matrix runs this file), the async-signal-safe dump
// format, the stall report, the run monitor's two schedules (stall
// watchdog and progress line), and the signal plumbing (SIGUSR1
// on-demand dump, SIGINT cooperative interrupt).
#include "util/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/log.h"

namespace sasta::util {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

FlightRecorder::Config small_config(unsigned lanes, std::size_t events) {
  FlightRecorder::Config cfg;
  cfg.lanes = lanes;
  cfg.events_per_lane = events;
  return cfg;
}

// --- Ring semantics ---------------------------------------------------------

TEST(FlightLaneRing, CapacityRoundsUpToAPowerOfTwoWithFloorEight) {
  EXPECT_EQ(FlightRecorder(small_config(1, 0)).lane(0).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(small_config(1, 5)).lane(0).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(small_config(1, 9)).lane(0).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(small_config(1, 4096)).lane(0).capacity(), 4096u);
}

TEST(FlightLaneRing, WraparoundKeepsNewestAndCountsAllEvents) {
  FlightRecorder rec(small_config(1, 8));
  FlightLane& lane = rec.lane(0);
  for (std::uint32_t i = 0; i < 20; ++i) {
    lane.record(FlightEventKind::kTrial, static_cast<std::uint16_t>(i), i,
                i * 2);
  }
  EXPECT_EQ(lane.events_recorded(), 20u);
  EXPECT_EQ(rec.total_events(), 20u);

  // A full snapshot of a wrapped ring yields capacity-1 events: the slot
  // that physically aliases a hypothetical in-flight write is discarded
  // even in quiescence (the reader cannot tell the difference).
  const std::vector<FlightEvent> all = lane.snapshot(100);
  ASSERT_EQ(all.size(), 7u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::uint64_t seq = 13 + i;  // oldest first: seq 13..19
    EXPECT_EQ(all[i].seq, seq);
    EXPECT_EQ(all[i].kind, static_cast<std::uint8_t>(FlightEventKind::kTrial));
    EXPECT_EQ(all[i].arg, seq);
    EXPECT_EQ(all[i].a, seq);
    EXPECT_EQ(all[i].b, seq * 2);
  }

  const std::vector<FlightEvent> last3 = lane.snapshot(3);
  ASSERT_EQ(last3.size(), 3u);
  EXPECT_EQ(last3.front().seq, 17u);
  EXPECT_EQ(last3.back().seq, 19u);
}

TEST(FlightLaneRing, UnwrappedSnapshotReturnsEverything) {
  FlightRecorder rec(small_config(1, 8));
  FlightLane& lane = rec.lane(0);
  lane.record(FlightEventKind::kSourceClaim, 0, 42, 0);
  lane.record(FlightEventKind::kPathRecorded, 1, 3, 99);
  const std::vector<FlightEvent> all = lane.snapshot(100);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].kind,
            static_cast<std::uint8_t>(FlightEventKind::kSourceClaim));
  EXPECT_EQ(all[0].a, 42u);
  EXPECT_EQ(all[1].kind,
            static_cast<std::uint8_t>(FlightEventKind::kPathRecorded));
  EXPECT_EQ(all[1].arg, 1u);
  EXPECT_EQ(all[1].b, 99u);
}

TEST(FlightLaneActivity, SlotTracksSourceGateAndProgress) {
  FlightRecorder rec(small_config(1, 8));
  FlightLane& lane = rec.lane(0);
  FlightLane::Activity a = lane.activity();
  EXPECT_EQ(a.source, kFlightIdle);
  EXPECT_EQ(a.gate, kFlightIdle);

  lane.set_source(7);
  lane.set_gate(12, 3);
  lane.count_trial();
  lane.count_trial();
  a = lane.activity();
  EXPECT_EQ(a.source, 7u);
  EXPECT_EQ(a.gate, 12u);
  EXPECT_EQ(a.depth, 3u);
  EXPECT_EQ(a.trials, 2u);
  EXPECT_EQ(a.trials - a.progress_trials, 2u) << "no progress yet";

  lane.note_path_recorded();
  a = lane.activity();
  EXPECT_EQ(a.paths, 1u);
  EXPECT_EQ(a.trials - a.progress_trials, 0u) << "path resets the gap";

  lane.count_trial();
  lane.note_source_done();
  a = lane.activity();
  EXPECT_EQ(a.sources_done, 1u);
  EXPECT_EQ(a.trials - a.progress_trials, 0u) << "source done resets too";

  lane.set_idle();
  a = lane.activity();
  EXPECT_EQ(a.source, kFlightIdle);
  EXPECT_EQ(a.gate, kFlightIdle);
  EXPECT_EQ(a.depth, 0u);
}

// Torn-read safety: a writer laps the ring continuously while readers
// snapshot and a dumper serializes.  Every event a snapshot returns must
// be internally consistent (the writer always stores a == b and a valid
// kind), and sequence numbers must be strictly increasing.  Run under
// TSan this also proves the slot/atomic protocol is race-free.
TEST(FlightLaneConcurrency, SnapshotsAreConsistentUnderActiveWriter) {
  FlightRecorder rec(small_config(1, 64));
  FlightLane& lane = rec.lane(0);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    std::uint32_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      lane.record(FlightEventKind::kTrial, 7, i, i);
      lane.set_gate(i, i & 0xff);
      lane.count_trial();
      ++i;
    }
  });

  std::thread dumper([&] {
    const std::string path = temp_path("sasta_flight_concurrent.dump");
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(rec.dump_to_path(path.c_str()));
    }
    std::filesystem::remove(path);
  });

  // On a loaded single-core host the fixed rounds can all run before the
  // writer is ever scheduled, so keep snapshotting (yielding on empty)
  // until at least one populated snapshot was verified.
  long checked = 0;
  for (int round = 0; round < 2000 || checked == 0; ++round) {
    const std::vector<FlightEvent> snap = lane.snapshot(32);
    if (snap.empty()) std::this_thread::yield();
    for (std::size_t i = 0; i < snap.size(); ++i) {
      EXPECT_EQ(snap[i].a, snap[i].b);
      EXPECT_EQ(snap[i].kind,
                static_cast<std::uint8_t>(FlightEventKind::kTrial));
      EXPECT_EQ(snap[i].arg, 7u);
      if (i > 0) {
        EXPECT_LT(snap[i - 1].seq, snap[i].seq);
      }
      ++checked;
    }
    lane.activity();  // concurrent activity reads must be race-free too
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  dumper.join();
  EXPECT_GT(checked, 0) << "the fuzz never observed a populated snapshot";
}

// --- Dump format ------------------------------------------------------------

TEST(FlightDump, DumpToPathEmitsParseableV1Format) {
  FlightRecorder rec(small_config(2, 8));
  rec.set_name_table("net 3 n3\ninst 12 g12\n");
  rec.lane(0).set_source(3);
  rec.lane(0).set_gate(12, 2);
  rec.lane(0).count_trial();
  rec.lane(0).record(FlightEventKind::kTrial, 1, 12, 2);
  rec.lane(1).record(FlightEventKind::kBacktrackBurst, 4, 12, 3);
  rec.note_stall();

  const std::string path = temp_path("sasta_flight_unit.dump");
  ASSERT_TRUE(rec.dump_to_path(path.c_str()));
  const std::string text = slurp(path);
  std::filesystem::remove(path);

  EXPECT_EQ(text.rfind("sasta-flightdump-v1\n", 0), 0u) << text;
  EXPECT_NE(text.find("\nstalls 1\n"), std::string::npos);
  EXPECT_NE(text.find("\nlanes 2 capacity 8\n"), std::string::npos);
  EXPECT_NE(text.find("net 3 n3\n"), std::string::npos);
  EXPECT_NE(text.find("inst 12 g12\n"), std::string::npos);
  EXPECT_NE(text.find("lane 0 activity source 3 gate 12 depth 2 trials 1 "
                      "paths 0 sources 0 since_progress 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("lane 1 activity source - gate - depth 0"),
            std::string::npos);
  EXPECT_NE(
      text.find("lane 0 event 0 ts "), std::string::npos);
  EXPECT_NE(text.find(" kind trial arg 1 a 12 b 2\n"), std::string::npos);
  EXPECT_NE(text.find(" kind backtrack_burst arg 4 a 12 b 3\n"),
            std::string::npos);
  EXPECT_EQ(text.substr(text.size() - 4), "end\n");
}

TEST(FlightDump, KindNamesCoverAllKindsAndFallBackOnGarbage) {
  EXPECT_STREQ(flight_event_kind_name(
                   static_cast<std::uint8_t>(FlightEventKind::kTrial)),
               "trial");
  EXPECT_STREQ(flight_event_kind_name(0xEE), "?");
  // Kind values are part of the dump format: retired 4-8 and 11-12 stay
  // unnamed and the kinds between them keep their numbers.
  for (const int retired : {4, 5, 6, 7, 8, 11, 12}) {
    EXPECT_STREQ(flight_event_kind_name(static_cast<std::uint8_t>(retired)),
                 "?")
        << retired;
  }
  EXPECT_EQ(static_cast<int>(FlightEventKind::kBacktrackBurst), 9);
  EXPECT_EQ(static_cast<int>(FlightEventKind::kPathRecorded), 10);
}

// --- Stall report + watchdog ------------------------------------------------

TEST(StallReport, NamesStuckWorkersAndMarksIdleOnes) {
  FlightRecorder rec(small_config(2, 8));
  rec.lane(0).set_source(3);
  rec.lane(0).set_gate(7, 5);
  rec.lane(0).count_trial();

  const std::string report = format_stall_report(
      rec, 2.0, [](std::uint32_t n) { return "N" + std::to_string(n); },
      [](std::uint32_t i) { return "G" + std::to_string(i); });
  EXPECT_NE(report.find("no progress for 2.0 s"), std::string::npos);
  EXPECT_NE(report.find("w0: source N3, gate G7, depth 5, 1 trials"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("w1: idle"), std::string::npos);

  // Null resolvers print raw ids.
  const std::string raw = format_stall_report(rec, 1.0, nullptr, nullptr);
  EXPECT_NE(raw.find("w0: source 3, gate 7"), std::string::npos) << raw;
}

// Deterministic window pacing: manual_tick hands the monitor exactly one
// evaluation window per tick_for_testing() call, so these tests never race
// a wall-clock timer (the former sleep-loop versions flaked on loaded CI
// hosts where 100 x 10 ms could elapse without the 30 ms timer firing).
TEST(RunMonitor, FiresOnNoProgressWindowAndWritesDump) {
  FlightRecorder rec(small_config(1, 8));
  rec.lane(0).set_source(5);  // busy forever, no progress

  std::vector<std::string> reports;  // manual ticks serialize the callback
  RunMonitor::Options mo;
  mo.manual_tick = true;
  // Manual ticks never wait on the wall clock, so a human-scale window
  // costs nothing and keeps the report's stall accounting readable.
  mo.watchdog_seconds = 1.0;
  mo.on_stall = [&](const std::string& r) { reports.push_back(r); };
  mo.dump_path = temp_path("sasta_watchdog_unit.dump");
  EXPECT_EQ(rec.watchdog_seconds(), -1.0) << "no watchdog armed yet";
  {
    RunMonitor monitor(rec, mo);
    monitor.tick_for_testing();  // window 1 establishes the baseline
    EXPECT_TRUE(reports.empty());
    monitor.tick_for_testing();  // window 2: busy lane, unchanged signature
    ASSERT_EQ(reports.size(), 1u) << "no-progress window must fire";
    monitor.tick_for_testing();  // still stuck: the stall persists and re-fires
    ASSERT_EQ(reports.size(), 2u);
  }
  EXPECT_NE(reports[0].find("no progress for 1.0 s"), std::string::npos)
      << reports[0];
  EXPECT_NE(reports[1].find("no progress for 2.0 s"), std::string::npos)
      << reports[1];
  EXPECT_NE(reports[0].find("w0: source 5"), std::string::npos);
  EXPECT_EQ(rec.stalls(), 2);
  // The armed window outlives the monitor: the run report reads it after.
  EXPECT_EQ(rec.watchdog_seconds(), 1.0);
  const std::string dump = slurp(mo.dump_path);
  std::filesystem::remove(mo.dump_path);
  EXPECT_NE(dump.find("sasta-flightdump-v1\n"), std::string::npos);
  EXPECT_NE(dump.find("stalls "), std::string::npos);
  EXPECT_NE(dump.find("end\n"), std::string::npos);
}

TEST(RunMonitor, StaysQuietWhenIdleOrProgressing) {
  FlightRecorder rec(small_config(2, 8));
  std::atomic<int> fires{0};
  RunMonitor::Options mo;
  mo.manual_tick = true;
  mo.watchdog_seconds = 0.02;
  mo.on_stall = [&](const std::string&) { ++fires; };

  {
    // All lanes idle: never a stall, no matter how many windows close.
    RunMonitor monitor(rec, mo);
    for (int i = 0; i < 5; ++i) monitor.tick_for_testing();
  }
  EXPECT_EQ(fires.load(), 0);

  {
    // Busy but progressing: each window sees a new progress signature.
    rec.lane(0).set_source(1);
    RunMonitor monitor(rec, mo);
    monitor.tick_for_testing();  // baseline
    for (int i = 0; i < 10; ++i) {
      rec.lane(0).note_path_recorded();
      monitor.tick_for_testing();
    }
  }
  EXPECT_EQ(fires.load(), 0);
  EXPECT_EQ(rec.stalls(), 0);
}

// A destructor racing a pending tick must not deadlock: stop wins.
TEST(RunMonitor, DestructionWithNoTicksIsClean) {
  FlightRecorder rec(small_config(1, 8));
  RunMonitor::Options mo;
  mo.manual_tick = true;
  mo.watchdog_seconds = 0.02;
  RunMonitor monitor(rec, mo);
  // No ticks at all: the thread is parked on the manual-tick wait and must
  // be released by ~RunMonitor.
}

/// Runs `body` with std::cerr captured at INFO level; returns what it logged.
template <typename Body>
std::string capture_info_log(Body&& body) {
  std::ostringstream captured;
  std::streambuf* old_buf = std::cerr.rdbuf(captured.rdbuf());
  const LogLevel old_level = log_level();
  set_log_level(LogLevel::kInfo);
  body();
  set_log_level(old_level);
  std::cerr.rdbuf(old_buf);
  return captured.str();
}

// One progress tick reads only the lanes: D and N are the lanes' live sums
// (a busy lane's trials count before its source finishes), T comes from
// begin_run(), and every lane gets a segment naming its source and depth.
TEST(RunMonitor, ProgressLineSumsTheLanes) {
  FlightRecorder rec(small_config(2, 8));
  rec.begin_run(7);
  rec.lane(0).set_source(3);
  rec.lane(0).set_gate(9, 4);
  for (int i = 0; i < 5; ++i) rec.lane(0).count_trial();
  for (int i = 0; i < 2; ++i) rec.lane(1).count_trial();
  rec.lane(1).note_source_done();

  RunMonitor::Options mo;
  mo.manual_tick = true;
  mo.progress_seconds = 2.0;
  mo.net_name = [](std::uint32_t n) { return "N" + std::to_string(n); };
  const std::string out = capture_info_log([&] {
    RunMonitor monitor(rec, mo);
    monitor.tick_for_testing();
  });
  EXPECT_EQ(out.rfind("[sasta INFO] progress: 1/7 sources, 7 vector trials (",
                      0),
            0u)
      << out;
  EXPECT_NE(out.find(" s elapsed | w0 N3 d4 "), std::string::npos) << out;
  EXPECT_NE(out.find(" | w1 idle "), std::string::npos) << out;
  EXPECT_EQ(out.find("watchdog"), std::string::npos) << "no watchdog armed";
  EXPECT_EQ(rec.stalls(), 0);
  EXPECT_EQ(rec.watchdog_seconds(), -1.0);
}

// On the wall clock both schedules run on the one monitor thread: a stuck
// busy lane yields progress lines and stall reports alike.
TEST(RunMonitor, BothSchedulesFireOnTheWallClock) {
  FlightRecorder rec(small_config(1, 8));
  rec.begin_run(1);
  rec.lane(0).set_source(2);  // busy forever, no progress
  std::atomic<int> stalls{0};
  RunMonitor::Options mo;
  mo.progress_seconds = 0.01;
  mo.watchdog_seconds = 0.01;
  mo.on_stall = [&](const std::string&) { ++stalls; };
  const std::string out = capture_info_log([&] {
    RunMonitor monitor(rec, mo);
    for (int i = 0; i < 500 && stalls.load() < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  EXPECT_GE(stalls.load(), 2);
  EXPECT_GE(rec.stalls(), 2);
  EXPECT_NE(out.find("progress: 0/1 sources"), std::string::npos) << out;
}

// --- Signal plumbing --------------------------------------------------------

TEST(FlightSignals, Sigusr1WritesAnOnDemandDumpAndExecutionContinues) {
  FlightRecorder rec(small_config(1, 8));
  rec.set_name_table("net 0 pi0\n");
  rec.lane(0).record(FlightEventKind::kSourceClaim, 0, 0, 0);

  const std::string path = temp_path("sasta_usr1_unit.dump");
  install_flight_signal_handlers(&rec, path);
  ASSERT_EQ(raise(SIGUSR1), 0);

  const std::string text = slurp(path);
  std::filesystem::remove(path);
  EXPECT_EQ(text.rfind("# signal usr1 ", 0), 0u) << text;
  EXPECT_NE(text.find("sasta-flightdump-v1\n"), std::string::npos);
  EXPECT_NE(text.find("net 0 pi0\n"), std::string::npos);
  EXPECT_NE(text.find("kind source_claim"), std::string::npos);
  EXPECT_NE(text.find("end\n"), std::string::npos);
}

TEST(FlightSignals, FirstSigintSetsTheCooperativeFlag) {
  clear_interrupt_for_testing();
  install_interrupt_handler();
  EXPECT_FALSE(interrupt_requested());
  ASSERT_EQ(raise(SIGINT), 0);  // first delivery: flag only, no termination
  EXPECT_TRUE(interrupt_requested());
  clear_interrupt_for_testing();
  EXPECT_FALSE(interrupt_requested());
}

TEST(FlightSignals, RequestInterruptIsTheProgrammaticEquivalent) {
  clear_interrupt_for_testing();
  EXPECT_FALSE(interrupt_requested());
  request_interrupt();
  EXPECT_TRUE(interrupt_requested());
  clear_interrupt_for_testing();
}

}  // namespace
}  // namespace sasta::util
