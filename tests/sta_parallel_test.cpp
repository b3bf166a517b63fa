// Determinism and equivalence guarantees of the source-parallel path
// finder: every thread count must deliver the single-worker result — paths,
// search counters and rendered report bytes — and the N-worst pruned search
// must return exactly the exhaustive top-N set.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/report.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "test_charlib.h"
#include "test_paths.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace sasta::sta {
namespace {

netlist::Netlist generated_circuit(std::uint64_t seed, int pis = 12,
                                   int gates = 60, int depth = 7) {
  netlist::GeneratorProfile p;
  p.name = "par" + std::to_string(seed);
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

using testing::hex_double;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

std::vector<std::string> run_sta(const netlist::Netlist& nl,
                                 StaToolOptions opt) {
  StaTool tool(nl, testing::test_charlib("90nm"), tech::technology("90nm"),
               opt);
  const StaResult res = tool.run();
  std::vector<std::string> prints;
  prints.reserve(res.paths.size());
  for (const auto& tp : res.paths) {
    prints.push_back(testing::timed_fingerprint(nl, tp));
  }
  return prints;
}

// Unpruned enumeration: StaResult::paths must be identical — order
// included, delays bit-exact — for every thread count.
TEST(ParallelPathFinder, ThreadCountsProduceIdenticalResults) {
  const netlist::Netlist nl = generated_circuit(5);
  ASSERT_GE(nl.primary_inputs().size(), 8u);

  StaToolOptions opt;  // keep everything
  const auto sequential = run_sta(nl, opt);
  ASSERT_FALSE(sequential.empty());
  for (const int threads : {2, 8}) {
    StaToolOptions topt = opt;
    topt.finder.num_threads = threads;
    EXPECT_EQ(run_sta(nl, topt), sequential) << "threads=" << threads;
  }
}

// Same guarantee at the raw finder level: find_all delivers the exact
// sequential order (source PI index, then discovery order).
TEST(ParallelPathFinder, FindAllOrderMatchesSequential) {
  const netlist::Netlist nl = generated_circuit(21);
  const auto& cl = testing::test_charlib("90nm");

  PathFinderOptions seq_opt;
  seq_opt.num_threads = 1;
  PathFinder sequential(nl, cl, seq_opt);
  const auto want = sequential.find_all();
  ASSERT_FALSE(want.empty());

  PathFinderOptions par_opt;
  par_opt.num_threads = 4;
  PathFinder parallel(nl, cl, par_opt);
  const auto got = parallel.find_all();

  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].full_key(nl), want[i].full_key(nl)) << "index " << i;
    EXPECT_EQ(got[i].pi_assignment, want[i].pi_assignment) << "index " << i;
  }
}

struct EnumRun {
  std::vector<std::string> fingerprints;
  PathFinderStats stats;
};

EnumRun enumerate(const netlist::Netlist& nl, int threads) {
  PathFinderOptions opt;
  opt.num_threads = threads;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  EnumRun run;
  std::vector<TruePath> paths;
  run.stats = finder.run([&](const TruePath& p) { paths.push_back(p); });
  run.fingerprints = testing::path_fingerprints(nl, paths);
  return run;
}

// On seeded random netlists every thread count enumerates byte-identical
// paths in identical order with identical course censuses and identical
// search cost (trials, backtracks): workers change who searches a source,
// never what is searched.
TEST(ParallelPathFinder, SeededMatrixIsResultIdentical) {
  for (const std::uint64_t seed : {2u, 9u, 17u, 23u, 31u}) {
    const netlist::Netlist nl = generated_circuit(seed);
    const EnumRun base = enumerate(nl, 1);
    ASSERT_FALSE(base.fingerprints.empty()) << "seed " << seed;
    for (const int threads : kThreadCounts) {
      const EnumRun run = enumerate(nl, threads);
      const std::string where =
          "seed " + std::to_string(seed) + " threads " +
          std::to_string(threads);
      EXPECT_EQ(run.fingerprints, base.fingerprints) << where;
      EXPECT_EQ(SearchCounters(run.stats), SearchCounters(base.stats))
          << where;
      EXPECT_FALSE(run.stats.truncated) << where;
    }
  }
}

/// Worst-path fingerprints, the rendered timing report and every endpoint
/// slack (bit-exact) of one StaTool run.
std::string render_report(const netlist::Netlist& nl, StaToolOptions opt) {
  const StaResult res = StaTool(nl, testing::test_charlib("90nm"),
                                tech::technology("90nm"), opt)
                            .run();
  std::ostringstream os;
  for (const auto& tp : res.paths) {
    os << testing::timed_fingerprint(nl, tp) << "\n";
  }
  const TimingReport rep = build_timing_report(nl, res, 0.9e-9);
  os << format_timing_report(nl, rep);
  for (const auto& ep : rep.endpoints) {
    os << hex_double(ep.slack) << "\n";
  }
  return os.str();
}

// Full-pipeline report-byte identity on c17 at every thread count.
TEST(ParallelPathFinder, C17ReportBytesIdenticalAcrossThreadCounts) {
  const netlist::Netlist nl = c17();
  StaToolOptions opt;
  opt.keep_worst = 10;
  opt.finder.num_threads = 1;
  const std::string base = render_report(nl, opt);
  ASSERT_FALSE(base.empty());
  for (const int threads : kThreadCounts) {
    opt.finder.num_threads = threads;
    EXPECT_EQ(render_report(nl, opt), base) << "threads " << threads;
  }
}

// Report-byte identity at c432 scale with the N-worst pruned search armed:
// the shared pruning floor must stay sound at every thread count.  (The
// *recorded superset* under n_worst is thread-count-dependent by design,
// so the comparison is the kept top-N report, not raw search counters.)
TEST(ParallelPathFinder, C432ScalePrunedReportBytesIdentical) {
  const netlist::Netlist nl = c432_scale();
  constexpr long kN = 12;
  StaToolOptions opt;
  opt.keep_worst = kN;
  opt.finder.n_worst = kN;
  opt.finder.num_threads = 1;
  const std::string base = render_report(nl, opt);
  ASSERT_FALSE(base.empty());
  for (const int threads : kThreadCounts) {
    opt.finder.num_threads = threads;
    EXPECT_EQ(render_report(nl, opt), base) << "threads " << threads;
  }
}

// Workers search whole sources, so a pool never starts more workers than
// there are sources to claim — and the result is still the single-worker
// one.
TEST(ParallelPathFinder, WorkersCappedAtSourceCount) {
  const netlist::Netlist nl = generated_circuit(9, 4, 60, 6);
  ASSERT_EQ(nl.primary_inputs().size(), 4u);
  const EnumRun base = enumerate(nl, 1);
  ASSERT_FALSE(base.fingerprints.empty());

  util::MetricsRegistry metrics;
  SearchAttribution attribution;
  PathFinderOptions opt;
  opt.num_threads = 8;
  opt.metrics = &metrics;
  opt.attribution = &attribution;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  std::vector<TruePath> paths;
  finder.run([&](const TruePath& p) { paths.push_back(p); });
  EXPECT_EQ(testing::path_fingerprints(nl, paths), base.fingerprints);

  const util::MetricsSnapshot snap = metrics.snapshot();
  const auto workers = snap.counters.find("pathfinder.workers");
  ASSERT_NE(workers, snap.counters.end());
  EXPECT_LE(workers->second, 4);
  EXPECT_LE(attribution.workers, 4u);
  for (const SearchAttribution::SourceCost& r : attribution.sources) {
    EXPECT_LT(r.worker, 4u) << "source " << r.source;
  }
}

/// Top-N (course_key, vector, delay) set of an StaTool run.
std::set<std::string> top_n_set(const netlist::Netlist& nl,
                                const StaResult& res) {
  std::set<std::string> keys;
  for (const auto& tp : res.paths) {
    keys.insert(tp.path.full_key(nl) + "|" + hex_double(tp.delay));
  }
  return keys;
}

class PrunedEquivalence : public ::testing::TestWithParam<int> {};

// The branch-and-bound pruned search must return exactly the same top-N
// (course_key, vector, delay) set as the unpruned exhaustive run — on c17
// and a generated ISCAS-style circuit, at several thread counts.
TEST_P(PrunedEquivalence, MatchesExhaustiveTopNSet) {
  const int threads = GetParam();
  const auto& cl = testing::test_charlib("90nm");
  const auto& tech = tech::technology("90nm");
  constexpr long kN = 8;

  const netlist::Netlist circuits[] = {c17(), generated_circuit(13, 14, 70)};
  for (const netlist::Netlist& nl : circuits) {
    StaToolOptions exhaustive;
    exhaustive.keep_worst = kN;
    exhaustive.finder.num_threads = threads;
    const StaResult full = StaTool(nl, cl, tech, exhaustive).run();
    ASSERT_FALSE(full.paths.empty());

    StaToolOptions pruned = exhaustive;
    pruned.finder.n_worst = kN;
    const StaResult res = StaTool(nl, cl, tech, pruned).run();

    EXPECT_EQ(top_n_set(nl, res), top_n_set(nl, full))
        << nl.name() << " threads=" << threads;
    EXPECT_LE(res.stats.vector_trials, full.stats.vector_trials);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PrunedEquivalence,
                         ::testing::Values(1, 2, 8));

// max_paths is an exact global quota: the workers collectively record
// exactly that many paths, never more.
TEST(ParallelPathFinder, MaxPathsIsExactAcrossWorkers) {
  const netlist::Netlist nl = generated_circuit(5);
  const auto& cl = testing::test_charlib("90nm");

  PathFinderOptions unlimited;
  PathFinder all(nl, cl, unlimited);
  const long total = all.run([](const TruePath&) {}).paths_recorded;
  ASSERT_GT(total, 20);

  PathFinderOptions capped;
  capped.max_paths = 20;
  capped.num_threads = 4;
  PathFinder finder(nl, cl, capped);
  std::atomic<long> delivered{0};
  const PathFinderStats stats =
      finder.run([&](const TruePath&) { ++delivered; });
  EXPECT_EQ(stats.paths_recorded, 20);
  EXPECT_EQ(delivered.load(), 20);
  EXPECT_TRUE(stats.truncated);
}

// Parallel runs share one set of helper threads, and a run never waits for
// a helper that has not started: while every helper is held inside another
// run, a two-worker run finishes on its calling thread alone, with the
// single-worker result.
TEST(ParallelPathFinder, RunCompletesWhileEveryHelperIsBusy) {
  const netlist::Netlist nl = generated_circuit(9);
  const EnumRun base = enumerate(nl, 1);
  ASSERT_FALSE(base.fingerprints.empty());

  // The holding run parks each of its 8 workers at its first trial, which
  // occupies every helper thread the shared pool has (no test here asks
  // for more than 8 threads, so the pool holds at most 7).
  constexpr int kHoldWorkers = 8;
  std::mutex mu;
  std::condition_variable cv;
  int parked = 0;
  bool released = false;
  PathFinderOptions hold;
  hold.num_threads = kHoldWorkers;
  hold.test_trial_hook = [&](netlist::InstId) {
    std::unique_lock<std::mutex> lk(mu);
    ++parked;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
  };
  std::vector<std::string> held_fingerprints;
  std::thread holder([&] {
    PathFinder finder(nl, testing::test_charlib("90nm"), hold);
    std::vector<TruePath> paths;
    finder.run([&](const TruePath& p) { paths.push_back(p); });
    held_fingerprints = testing::path_fingerprints(nl, paths);
  });

  bool all_parked = false;
  {
    std::unique_lock<std::mutex> lk(mu);
    all_parked = cv.wait_for(lk, std::chrono::seconds(60),
                             [&] { return parked >= kHoldWorkers; });
  }
  std::future<EnumRun> second;
  bool finished = false;
  if (all_parked) {
    second = std::async(std::launch::async, [&nl] { return enumerate(nl, 2); });
    finished = second.wait_for(std::chrono::seconds(60)) ==
               std::future_status::ready;
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    released = true;
  }
  cv.notify_all();
  holder.join();

  ASSERT_TRUE(all_parked) << "the holding run did not start " << kHoldWorkers
                          << " workers";
  EXPECT_TRUE(finished) << "a run waited for a helper that could not start";
  const EnumRun run = second.get();
  EXPECT_EQ(run.fingerprints, base.fingerprints);
  EXPECT_EQ(SearchCounters(run.stats), SearchCounters(base.stats));
  EXPECT_EQ(held_fingerprints, base.fingerprints);
}

TEST(ThreadPool, GrowsOnDemandAndNeverShrinks) {
  util::ThreadPool pool(1);
  pool.grow_to(3);
  EXPECT_EQ(pool.size(), 3u);
  pool.grow_to(2);
  EXPECT_EQ(pool.size(), 3u);
  // Three tasks that each wait for all three to start can only finish on
  // three distinct threads.
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  std::atomic<int> met{0};
  for (int i = 0; i < 3; ++i) {
    pool.submit([&] {
      std::unique_lock<std::mutex> lk(mu);
      ++started;
      cv.notify_all();
      if (cv.wait_for(lk, std::chrono::seconds(30),
                      [&] { return started == 3; })) {
        met.fetch_add(1);
      }
    });
  }
  pool.wait_idle();
  EXPECT_EQ(met.load(), 3);
}

TEST(ThreadPool, RunsAllTasksAndWaitsIdle) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
  // The pool is reusable after wait_idle.
  pool.submit([&done] { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 101);
}

TEST(ThreadPool, ResolveMapsZeroToHardware) {
  EXPECT_GE(util::ThreadPool::hardware_threads(), 1u);
  EXPECT_EQ(util::ThreadPool::resolve(0),
            util::ThreadPool::hardware_threads());
  EXPECT_EQ(util::ThreadPool::resolve(3), 3u);
}

}  // namespace
}  // namespace sasta::sta
