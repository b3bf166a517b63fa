// Determinism-under-stealing battery for --schedule=steal.
//
// The work-stealing scheduler's contract is that scheduling is invisible
// in the results: whichever worker executes whichever frontier chunk, the
// enumerated path set, its order, every delay bit, the course census, and
// the rendered timing report are bit-identical to --schedule=source.  The
// battery locks that down across the schedule x thread-count matrix on
// seeded random netlists, then proves report-byte identity on c17 and a c432-scale circuit through
// the StaTool pipeline with N-worst pruning armed.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/pathfinder.h"
#include "sta/report.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "test_charlib.h"
#include "test_paths.h"

namespace sasta::sta {
namespace {

netlist::Netlist generated_circuit(std::uint64_t seed, int pis = 12,
                                   int gates = 60, int depth = 7) {
  netlist::GeneratorProfile p;
  p.name = "ws" + std::to_string(seed);
  p.num_inputs = pis;
  p.num_outputs = 6;
  p.num_gates = gates;
  p.depth = depth;
  p.seed = seed;
  return netlist::tech_map(netlist::generate_iscas_like(p),
                           testing::test_library())
      .netlist;
}

netlist::Netlist c17() {
  return netlist::tech_map(
             netlist::parse_bench_string(netlist::c17_bench_text(), "c17"),
             testing::test_library())
      .netlist;
}

netlist::Netlist c432_scale() {
  return netlist::tech_map(
             netlist::generate_iscas_like(netlist::iscas_profile("c432")),
             testing::test_library())
      .netlist;
}

struct EnumRun {
  std::vector<std::string> fingerprints;
  PathFinderStats stats;
};

EnumRun enumerate(const netlist::Netlist& nl, ScheduleMode schedule,
                  int threads) {
  PathFinderOptions opt;
  opt.schedule = schedule;
  opt.num_threads = threads;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  EnumRun run;
  std::vector<TruePath> paths;
  run.stats = finder.run([&](const TruePath& p) { paths.push_back(p); });
  run.fingerprints = testing::path_fingerprints(nl, paths);
  return run;
}

// The headline property: on seeded random netlists, every point of the
// schedule x threads matrix enumerates byte-identical paths in identical
// order with identical course censuses, and the steal schedule's search
// cost (trials, backtracks) equals the source schedule's — stealing moves
// work between workers, it never changes the work.
TEST(StealScheduleDifferential, MatrixIsResultIdentical) {
  for (const std::uint64_t seed : {2u, 9u, 17u, 23u, 31u}) {
    const netlist::Netlist nl = generated_circuit(seed);
    const EnumRun base = enumerate(nl, ScheduleMode::kSource, 1);
    ASSERT_FALSE(base.fingerprints.empty()) << "seed " << seed;

    for (const ScheduleMode schedule :
         {ScheduleMode::kSource, ScheduleMode::kSteal}) {
      for (const int threads : {1, 4, 8}) {
        const EnumRun run = enumerate(nl, schedule, threads);
        const std::string where =
            "seed " + std::to_string(seed) + " schedule " +
            std::to_string(static_cast<int>(schedule)) + " threads " +
            std::to_string(threads);
        EXPECT_EQ(run.fingerprints, base.fingerprints) << where;
        EXPECT_EQ(run.stats.paths_recorded, base.stats.paths_recorded)
            << where;
        EXPECT_EQ(run.stats.courses, base.stats.courses) << where;
        EXPECT_EQ(run.stats.multi_vector_courses,
                  base.stats.multi_vector_courses)
            << where;
        EXPECT_EQ(run.stats.vector_trials, base.stats.vector_trials)
            << where;
        EXPECT_EQ(run.stats.backtracks, base.stats.backtracks) << where;
        if (schedule == ScheduleMode::kSource) {
          EXPECT_EQ(run.stats.tasks_spawned, 0) << where;
          EXPECT_EQ(run.stats.tasks_stolen, 0) << where;
          EXPECT_EQ(run.stats.steal_failures, 0) << where;
        } else if (threads > 1) {
          EXPECT_GT(run.stats.tasks_spawned, 0) << where;
          EXPECT_LE(run.stats.tasks_stolen, run.stats.tasks_spawned)
              << where;
        }
      }
    }
  }
}

// Full-pipeline report-byte identity on c17: fingerprints with bit-exact
// delays, the rendered timing report, and every endpoint slack are
// byte-identical between schedules at every tested thread count.
TEST(StealScheduleDifferential, C17ReportBytesIdenticalAcrossSchedules) {
  const netlist::Netlist nl = c17();
  const auto& cl = testing::test_charlib("90nm");
  const auto& tech = tech::technology("90nm");

  auto render = [&](ScheduleMode schedule, int threads) {
    StaToolOptions opt;
    opt.keep_worst = 10;
    opt.finder.schedule = schedule;
    opt.finder.num_threads = threads;
    const StaResult res = StaTool(nl, cl, tech, opt).run();
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

  const std::string base = render(ScheduleMode::kSource, 1);
  ASSERT_FALSE(base.empty());
  for (const int threads : {1, 2, 4, 8}) {
    EXPECT_EQ(render(ScheduleMode::kSteal, threads), base)
        << "steal, threads " << threads;
    EXPECT_EQ(render(ScheduleMode::kSource, threads), base)
        << "source, threads " << threads;
  }
}

// Same report-byte identity at c432 scale with the N-worst pruned search
// armed — the pruning floor has to stay sound while frontier chunks
// migrate between workers.  (The *recorded superset*
// under n_worst is thread-count-dependent by design, so the comparison is
// the kept top-N report, not raw search counters.)
TEST(StealScheduleDifferential, C432ScalePrunedReportBytesIdentical) {
  const netlist::Netlist nl = c432_scale();
  const auto& cl = testing::test_charlib("90nm");
  const auto& tech = tech::technology("90nm");
  constexpr long kN = 12;

  auto render = [&](ScheduleMode schedule, int threads) {
    StaToolOptions opt;
    opt.keep_worst = kN;
    opt.finder.schedule = schedule;
    opt.finder.num_threads = threads;
    opt.finder.n_worst = kN;
    const StaResult res = StaTool(nl, cl, tech, opt).run();
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

  const std::string base = render(ScheduleMode::kSource, 8);
  ASSERT_FALSE(base.empty());
  for (const int threads : {4, 8}) {
    EXPECT_EQ(render(ScheduleMode::kSteal, threads), base)
        << "steal, threads " << threads;
  }
}

}  // namespace
}  // namespace sasta::sta
