// Lock-free justification memo cache: differential/property battery.
//
// The cache's contract is strict result-neutrality — the enumerated path
// set, its order, every delay bit, and the rendered timing report must be
// identical with --justify-cache off and shared at every thread count — plus a monotone work guarantee (cached runs attempt at
// most as many vector trials as uncached ones).  The battery locks both
// down on randomized ISCAS-style netlists, then unit-tests the lock-free
// table itself (CAS insert races, capacity overflow, epoch invalidation)
// and fuzzes goal-set canonicalization against a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/assignment.h"
#include "sta/implication.h"
#include "sta/justify.h"
#include "sta/justify_cache.h"
#include "sta/pathfinder.h"
#include "sta/report.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "test_charlib.h"
#include "test_paths.h"
#include "util/rng.h"

namespace sasta::sta {
namespace {

netlist::Netlist generated_circuit(std::uint64_t seed, int pis = 12,
                                   int gates = 60, int depth = 7) {
  netlist::GeneratorProfile p;
  p.name = "jc" + std::to_string(seed);
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

struct EnumRun {
  std::vector<std::string> fingerprints;
  PathFinderStats stats;
};

EnumRun enumerate(const netlist::Netlist& nl, JustifyCacheMode mode,
                  int threads, std::size_t capacity = std::size_t{1} << 16,
                  JustifyTier tier = JustifyTier::kBoth) {
  PathFinderOptions opt;
  opt.num_threads = threads;
  opt.justify_cache = mode;
  opt.justify_cache_capacity = capacity;
  opt.justify_tier = tier;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  EnumRun run;
  std::vector<TruePath> paths;
  run.stats = finder.run([&](const TruePath& p) { paths.push_back(p); });
  run.fingerprints = testing::path_fingerprints(nl, paths);
  return run;
}

// The headline differential property: for several randomized circuits,
// every (cache mode, thread count) combination enumerates byte-identical
// paths in identical order; cached runs never attempt more vector trials
// than the uncached reference; and because verdicts are pure functions of
// the goal set, the cached trial count is identical across thread counts.
TEST(JustifyCacheDifferential, ModesAndThreadsAreResultIdentical) {
  for (const std::uint64_t seed : {3u, 11u, 27u}) {
    const netlist::Netlist nl = generated_circuit(seed);
    const EnumRun base = enumerate(nl, JustifyCacheMode::kOff, 1);
    ASSERT_FALSE(base.fingerprints.empty()) << "seed " << seed;

    long cached_trials = -1;
    for (const JustifyCacheMode mode :
         {JustifyCacheMode::kOff, JustifyCacheMode::kShared}) {
      for (const int threads : {1, 4, 8}) {
        const EnumRun run = enumerate(nl, mode, threads);
        EXPECT_EQ(run.fingerprints, base.fingerprints)
            << "seed " << seed << " mode " << static_cast<int>(mode)
            << " threads " << threads;
        EXPECT_EQ(run.stats.paths_recorded, base.stats.paths_recorded);
        EXPECT_EQ(run.stats.courses, base.stats.courses);
        if (mode == JustifyCacheMode::kOff) {
          EXPECT_EQ(run.stats.vector_trials, base.stats.vector_trials);
          EXPECT_EQ(run.stats.cache_hits + run.stats.cache_misses, 0);
          EXPECT_EQ(run.stats.cache_prunes, 0);
        } else {
          EXPECT_LE(run.stats.vector_trials, base.stats.vector_trials);
          // Each prune skips one counted trial directly — and possibly the
          // whole subtree the uncached run explored below it (its joint
          // conjunction is infeasible, but the new-goals-only incremental
          // solve can pass), so the uncached count may exceed
          // trials + prunes.
          EXPECT_LE(run.stats.vector_trials + run.stats.cache_prunes,
                    base.stats.vector_trials);
          if (cached_trials < 0) cached_trials = run.stats.vector_trials;
          EXPECT_EQ(run.stats.vector_trials, cached_trials)
              << "verdict purity makes prune decisions "
               "thread-count-independent";
        }
      }
    }
  }
}

// Full-pipeline differential: the StaTool timing report — the actual user
// artifact, slacks included — is byte-identical across every cache mode,
// refutation tier, and thread count (the --justify-tier x --justify-cache
// x threads result-neutrality matrix).
TEST(JustifyCacheDifferential, TimingReportBytesIdenticalAcrossModes) {
  const netlist::Netlist nl = generated_circuit(7, 12, 70);
  const auto& cl = testing::test_charlib("90nm");
  const auto& tech = tech::technology("90nm");

  auto render = [&](JustifyCacheMode mode, JustifyTier tier, int threads) {
    StaToolOptions opt;
    opt.keep_worst = 10;
    opt.finder.num_threads = threads;
    opt.finder.justify_cache = mode;
    opt.finder.justify_tier = tier;
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

  const std::string base =
      render(JustifyCacheMode::kOff, JustifyTier::kBoth, 1);
  ASSERT_FALSE(base.empty());
  for (const JustifyTier tier :
       {JustifyTier::kImplication, JustifyTier::kBoth,
        JustifyTier::kAdaptive}) {
    for (const int threads : {1, 4, 8}) {
      EXPECT_EQ(render(JustifyCacheMode::kShared, tier, threads), base)
          << "tier " << static_cast<int>(tier) << " threads " << threads;
    }
  }
  // Adaptive with the cache off degenerates to the plain pipeline (there is
  // no miss path for the controller to veto) and must also render the same
  // bytes.
  for (const int threads : {1, 4, 8}) {
    EXPECT_EQ(render(JustifyCacheMode::kOff, JustifyTier::kAdaptive, threads),
              base)
        << "cache off, adaptive, threads " << threads;
  }
}

// The N-worst pruned search with the shared cache still returns exactly
// the exhaustive top-N set (both optimizations prune independently; both
// are sound).
TEST(JustifyCacheDifferential, NWorstTopSetUnchanged) {
  const auto& cl = testing::test_charlib("90nm");
  const auto& tech = tech::technology("90nm");
  constexpr long kN = 8;
  for (const netlist::Netlist& nl : {c17(), generated_circuit(13, 14, 70)}) {
    auto top_set = [&](JustifyCacheMode mode, bool prune) {
      StaToolOptions opt;
      opt.keep_worst = kN;
      opt.finder.num_threads = 8;
      opt.finder.justify_cache = mode;
      if (prune) opt.finder.n_worst = kN;
      const StaResult res = StaTool(nl, cl, tech, opt).run();
      std::set<std::string> keys;
      for (const auto& tp : res.paths) {
        keys.insert(tp.path.full_key(nl) + "|" +
                    testing::hex_double(tp.delay));
      }
      return keys;
    };
    const auto want = top_set(JustifyCacheMode::kOff, false);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(top_set(JustifyCacheMode::kShared, true), want) << nl.name();
    EXPECT_EQ(top_set(JustifyCacheMode::kShared, false), want) << nl.name();
  }
}

// A tiny table must also be result-neutral: overflow may only drop
// verdicts (fewer prunes), never corrupt results.
TEST(JustifyCacheDifferential, TinyCapacityOnlyCostsPrunes) {
  const netlist::Netlist nl = generated_circuit(11);
  const EnumRun base = enumerate(nl, JustifyCacheMode::kOff, 1);
  const EnumRun big = enumerate(nl, JustifyCacheMode::kShared, 4);
  const EnumRun tiny = enumerate(nl, JustifyCacheMode::kShared, 4, 64);
  EXPECT_EQ(tiny.fingerprints, base.fingerprints);
  EXPECT_EQ(big.fingerprints, base.fingerprints);
  EXPECT_LE(tiny.stats.vector_trials, base.stats.vector_trials);
  EXPECT_GE(tiny.stats.vector_trials, big.stats.vector_trials)
      << "a smaller table can only lose prunes, never gain them";
  EXPECT_GT(tiny.stats.cache_full_drops, 0)
      << "64 slots should overflow on this circuit";
}

// --- Tiered refutation ------------------------------------------------------

// The tier knob must be invisible in the results: every tier enumerates
// byte-identical paths, and within one tier the trial count is identical
// across thread counts (verdict purity).  The tiers differ only in which
// counter absorbs each miss: the implication tier never runs the solver.
TEST(JustifyTierDifferential, TiersAreResultIdentical) {
  for (const std::uint64_t seed : {3u, 27u}) {
    const netlist::Netlist nl = generated_circuit(seed);
    const EnumRun base = enumerate(nl, JustifyCacheMode::kOff, 1);
    ASSERT_FALSE(base.fingerprints.empty()) << "seed " << seed;

    for (const JustifyTier tier :
         {JustifyTier::kImplication, JustifyTier::kBoth}) {
      long tier_trials = -1;
      for (const int threads : {1, 8}) {
        const EnumRun run = enumerate(nl, JustifyCacheMode::kShared, threads,
                                      std::size_t{1} << 16, tier);
        EXPECT_EQ(run.fingerprints, base.fingerprints)
            << "seed " << seed << " tier " << static_cast<int>(tier)
            << " threads " << threads;
        EXPECT_LE(run.stats.vector_trials + run.stats.cache_prunes,
                  base.stats.vector_trials);
        if (tier_trials < 0) tier_trials = run.stats.vector_trials;
        EXPECT_EQ(run.stats.vector_trials, tier_trials)
            << "per-tier verdict purity keeps prune decisions "
               "thread-count-independent";
        if (tier == JustifyTier::kImplication) {
          EXPECT_EQ(run.stats.solver_escalations, 0)
              << "closure-only tier must never run the solver";
        }
        EXPECT_EQ(run.stats.cache_inserts + run.stats.cache_insert_races +
                      run.stats.cache_full_drops,
                  run.stats.cache_misses)
            << "every miss resolves to exactly one insert outcome in "
               "every tier";
      }
    }
  }
}

// The soundness core of the implication-first tier, checked differentially
// on seeded random netlists and goal sets: whenever the zero-backtracking
// implication closure refutes a conjunction, the exact (budget-free)
// backtracking solver refutes it too.  Closure conflicts are complete
// refutations — the closure derives only logical consequences — so the
// fast tier may never disagree with the ground truth.
TEST(JustifyTierDifferential, ImplicationConflictImpliesSolverConflict) {
  util::Rng rng(0x71E2);
  int closure_refutes = 0;
  for (const std::uint64_t seed : {2u, 5u, 8u, 21u}) {
    const netlist::Netlist nl = generated_circuit(seed, 10, 40, 6);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Goal> goals;
      const int k = 1 + static_cast<int>(rng.next_below(5));
      for (int g = 0; g < k; ++g) {
        goals.push_back({static_cast<netlist::NetId>(
                             rng.next_below(nl.num_nets())),
                         rng.next_bool()});
      }

      AssignmentState closure_state(nl.num_nets());
      ImplicationEngine closure_engine(nl, closure_state);
      const unsigned closure_alive =
          closure_engine.assign_steady_goals(goals, kScenarioBoth);
      if (closure_alive != kScenarioNone) continue;  // not refuted
      ++closure_refutes;

      AssignmentState solver_state(nl.num_nets());
      ImplicationEngine solver_engine(nl, solver_state);
      Justifier solver(nl, solver_state, solver_engine);
      const Justifier::Result exact =
          solver.justify_all(goals, kScenarioBoth, /*backtrack_budget=*/-1);
      EXPECT_EQ(exact.alive, kScenarioNone)
          << "seed " << seed << " trial " << trial
          << ": closure refuted a conjunction the exact solver satisfies";
      EXPECT_FALSE(exact.backtrack_limited);
    }
  }
  EXPECT_GT(closure_refutes, 20)
      << "the fuzz should actually exercise closure refutations";
}

// Conflict-subset learning: misses are resolved per support-disjoint
// component and each component verdict is cached under its own key, so a
// refuted component re-refutes every future superset via a probe.  On a
// circuit whose prefixes recombine refuted components, that must surface
// as subset_hits; the closure tier must also refute some misses without
// the solver.
TEST(JustifyTierDifferential, SubsetLearningAndClosureAbsorbEscalations) {
  // Same profile shape as the bench's memo16 circuit: deep enough that
  // accumulated prefix conjunctions split into multiple components.
  const netlist::Netlist nl = generated_circuit(42, 16, 80, 8);
  const EnumRun both = enumerate(nl, JustifyCacheMode::kShared, 4,
                                 std::size_t{1} << 16, JustifyTier::kBoth);
  const EnumRun closure_only =
      enumerate(nl, JustifyCacheMode::kShared, 4, std::size_t{1} << 16,
                JustifyTier::kImplication);

  EXPECT_GT(both.stats.subset_hits, 0)
      << "multi-component misses should re-refute via cached components";
  EXPECT_GT(both.stats.implication_refutes, 0)
      << "the closure tier must absorb some misses";
  // The closure-only tier negatively memoizes what it cannot refute, and
  // those entries answer repeat misses (negative hits).
  EXPECT_GT(closure_only.stats.negative_hits, 0);
  // Conflicts found by closure are a subset of the solver's, so the
  // closure-only tier can only lose prunes relative to the full pipeline.
  EXPECT_LE(closure_only.stats.cache_prunes, both.stats.cache_prunes);
  EXPECT_EQ(closure_only.fingerprints, both.fingerprints);
}

// --- Adaptive escalation controller ----------------------------------------

EnumRun enumerate_adaptive(const netlist::Netlist& nl, int threads,
                           double payoff) {
  PathFinderOptions opt;
  opt.num_threads = threads;
  opt.justify_cache = JustifyCacheMode::kShared;
  opt.justify_tier = JustifyTier::kAdaptive;
  opt.escalation_payoff = payoff;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  EnumRun run;
  std::vector<TruePath> paths;
  run.stats = finder.run([&](const TruePath& p) { paths.push_back(p); });
  run.fingerprints = testing::path_fingerprints(nl, paths);
  return run;
}

// The adaptive tier's one hard guarantee: whatever the controller decides,
// the enumerated result is byte-identical to every other tier — a veto only
// degrades a refutation opportunity into an inconclusive memo, exactly what
// the implication tier records for every miss it cannot close.
TEST(AdaptiveEscalation, ResultsIdenticalAtEveryPayoffAndThreadCount) {
  const netlist::Netlist nl = generated_circuit(42, 16, 80, 8);
  const EnumRun base = enumerate(nl, JustifyCacheMode::kOff, 1);
  ASSERT_FALSE(base.fingerprints.empty());
  for (const double payoff : {0.0, 0.5, 1e9}) {
    for (const int threads : {1, 4, 8}) {
      const EnumRun run = enumerate_adaptive(nl, threads, payoff);
      EXPECT_EQ(run.fingerprints, base.fingerprints)
          << "payoff " << payoff << " threads " << threads;
      EXPECT_EQ(run.stats.paths_recorded, base.stats.paths_recorded);
    }
  }
}

// payoff = 0 can never disable escalation (the window ratio is >= 0 and the
// exact threshold stays enabled), so single-threaded adaptive must degrade
// to the kBoth pipeline *exactly* — same trials, same escalations, same
// refutes, zero vetoes.  Cost counters are only deterministic at one
// thread; at higher counts controller state depends on arrival order.
TEST(AdaptiveEscalation, ZeroThresholdIsBothAtOneThread) {
  const netlist::Netlist nl = generated_circuit(42, 16, 80, 8);
  const EnumRun both = enumerate(nl, JustifyCacheMode::kShared, 1,
                                 std::size_t{1} << 16, JustifyTier::kBoth);
  const EnumRun adaptive = enumerate_adaptive(nl, 1, 0.0);
  EXPECT_EQ(adaptive.fingerprints, both.fingerprints);
  EXPECT_EQ(adaptive.stats.vector_trials, both.stats.vector_trials);
  EXPECT_EQ(adaptive.stats.solver_escalations, both.stats.solver_escalations);
  EXPECT_EQ(adaptive.stats.escalation_refutes, both.stats.escalation_refutes);
  EXPECT_EQ(adaptive.stats.escalations_vetoed, 0);
}

// An unreachable threshold makes the controller disable escalation after
// the first full window: vetoes appear and solver escalations drop well
// below kBoth's, while the result stays identical (checked above).
TEST(AdaptiveEscalation, UnreachableThresholdShedsEscalations) {
  const netlist::Netlist nl = generated_circuit(42, 16, 80, 8);
  const EnumRun both = enumerate(nl, JustifyCacheMode::kShared, 1,
                                 std::size_t{1} << 16, JustifyTier::kBoth);
  const EnumRun adaptive = enumerate_adaptive(nl, 1, 1e9);
  ASSERT_GT(both.stats.solver_escalations, 0)
      << "circuit too easy to exercise the controller";
  EXPECT_GT(adaptive.stats.escalations_vetoed, 0);
  EXPECT_LT(adaptive.stats.solver_escalations,
            both.stats.solver_escalations);
  // Probing keeps a trickle of escalations alive so the estimate can
  // recover; the controller never fully blinds itself.
  EXPECT_GT(adaptive.stats.solver_escalations, 0);
}

// --- Lock-free table unit tests -------------------------------------------

GoalSetKey key_of(std::uint32_t a, bool va, std::uint32_t b, bool vb) {
  const Goal goals[] = {{static_cast<netlist::NetId>(a), va},
                        {static_cast<netlist::NetId>(b), vb}};
  return canonicalize_goals(goals);
}

TEST(JustifyCacheTable, InsertThenProbeRoundTripsEveryVerdict) {
  JustifyCache cache;
  const JustifyVerdict verdicts[] = {JustifyVerdict::kJustifiable,
                                     JustifyVerdict::kConflict,
                                     JustifyVerdict::kBudgetLimited,
                                     JustifyVerdict::kInconclusive};
  for (std::uint32_t i = 0; i < 4; ++i) {
    const GoalSetKey key = key_of(2 * i, false, 2 * i + 1, true);
    EXPECT_EQ(cache.probe(key), JustifyVerdict::kUnknown);
    EXPECT_EQ(cache.insert(key, verdicts[i]),
              JustifyCache::InsertOutcome::kInserted);
    EXPECT_EQ(cache.probe(key), verdicts[i]);
  }
  // Re-inserting an existing key reports the race, not a second insert.
  EXPECT_EQ(cache.insert(key_of(0, false, 1, true),
                         JustifyVerdict::kJustifiable),
            JustifyCache::InsertOutcome::kRaced);
}

// N threads hammer the same key set concurrently: for every key exactly
// one thread wins the CAS claim, everyone else observes kRaced, and every
// subsequent probe returns the (unique, key-derived) verdict — never a
// verdict belonging to a different key.
TEST(JustifyCacheTable, ConcurrentInsertRacesResolveToOneWinner) {
  constexpr int kThreads = 8;
  constexpr std::uint32_t kKeys = 512;
  JustifyCache::Config cfg;
  cfg.capacity = 4096;
  JustifyCache cache(cfg);

  auto verdict_for = [](std::uint32_t i) {
    switch (i % 3) {
      case 0: return JustifyVerdict::kJustifiable;
      case 1: return JustifyVerdict::kConflict;
      default: return JustifyVerdict::kBudgetLimited;
    }
  };

  std::vector<std::vector<int>> inserted(kThreads,
                                         std::vector<int>(kKeys, 0));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kKeys; ++i) {
        const GoalSetKey key = key_of(2 * i, false, 2 * i + 1, i % 2 == 0);
        const auto out = cache.insert(key, verdict_for(i));
        if (out == JustifyCache::InsertOutcome::kInserted) {
          inserted[t][i] = 1;
        }
        // A probe racing other inserts may miss (pending publishes) but
        // must never return a foreign verdict.
        const JustifyVerdict v = cache.probe(key);
        EXPECT_TRUE(v == JustifyVerdict::kUnknown || v == verdict_for(i));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  int full_drops = 0;
  for (std::uint32_t i = 0; i < kKeys; ++i) {
    int winners = 0;
    for (int t = 0; t < kThreads; ++t) winners += inserted[t][i];
    const JustifyVerdict v = cache.probe(
        key_of(2 * i, false, 2 * i + 1, i % 2 == 0));
    if (v == JustifyVerdict::kUnknown) {
      // Dropped on a full probe window — legal, but then nobody won.
      EXPECT_EQ(winners, 0) << "key " << i;
      ++full_drops;
    } else {
      EXPECT_EQ(winners, 1) << "key " << i;
      EXPECT_EQ(v, verdict_for(i)) << "key " << i;
    }
  }
  // With 4096 slots for 512 keys, overflow should be the rare exception.
  EXPECT_LT(full_drops, 32);
}

// Overflow behavior: a probe window that is full fails the insert with
// kFull (and the verdict is simply dropped — probes return kUnknown);
// nothing blocks and resident entries are untouched.
TEST(JustifyCacheTable, CapacityOverflowReturnsFullNeverBlocks) {
  JustifyCache::Config cfg;
  cfg.capacity = 16;
  cfg.shards = 1;
  cfg.max_probe = 16;
  JustifyCache cache(cfg);
  ASSERT_EQ(cache.capacity(), 16u);
  ASSERT_EQ(cache.shard_count(), 1u);

  std::vector<GoalSetKey> stored;
  int full = 0;
  for (std::uint32_t i = 0; i < 256; ++i) {
    const GoalSetKey key = key_of(2 * i, true, 2 * i + 1, false);
    const auto out = cache.insert(key, JustifyVerdict::kConflict);
    if (out == JustifyCache::InsertOutcome::kInserted) {
      stored.push_back(key);
    } else {
      EXPECT_EQ(out, JustifyCache::InsertOutcome::kFull);
      ++full;
      EXPECT_EQ(cache.probe(key), JustifyVerdict::kUnknown);
    }
  }
  EXPECT_EQ(stored.size(), 16u) << "every slot should end up occupied";
  EXPECT_EQ(full, 256 - 16);
  for (const GoalSetKey& key : stored) {
    EXPECT_EQ(cache.probe(key), JustifyVerdict::kConflict);
  }
}

TEST(JustifyCacheTable, ClearInvalidatesByEpochBump) {
  JustifyCache cache;
  const GoalSetKey key = key_of(4, true, 9, false);
  ASSERT_EQ(cache.insert(key, JustifyVerdict::kConflict),
            JustifyCache::InsertOutcome::kInserted);
  ASSERT_EQ(cache.probe(key), JustifyVerdict::kConflict);

  const std::uint32_t before = cache.epoch();
  cache.clear();
  EXPECT_NE(cache.epoch(), before);
  EXPECT_EQ(cache.probe(key), JustifyVerdict::kUnknown);

  // Stale slots are reclaimed: the same key inserts cleanly again.
  EXPECT_EQ(cache.insert(key, JustifyVerdict::kJustifiable),
            JustifyCache::InsertOutcome::kInserted);
  EXPECT_EQ(cache.probe(key), JustifyVerdict::kJustifiable);

  // The epoch wraps 1..0xFFFF and must never land on 0 (the "never used"
  // tag sentinel).
  for (int i = 0; i < 0x10000 + 10; ++i) cache.clear();
  EXPECT_NE(cache.epoch(), 0u);
  EXPECT_LE(cache.epoch(), 0xFFFFu);
}

// Negative memos (kBudgetLimited from a budget abort, kInconclusive from
// the closure-only tier) are cached verdicts like any other: probes hit
// them until an epoch bump, after which the conjunction is re-evaluated —
// a stale "could not refute" must not outlive a clear() any more than a
// stale CONFLICT may.
TEST(JustifyCacheTable, NegativeMemosInvalidatedByEpochBump) {
  JustifyCache cache;
  const GoalSetKey limited = key_of(10, true, 21, false);
  const GoalSetKey inconclusive = key_of(12, false, 33, true);
  ASSERT_EQ(cache.insert(limited, JustifyVerdict::kBudgetLimited),
            JustifyCache::InsertOutcome::kInserted);
  ASSERT_EQ(cache.insert(inconclusive, JustifyVerdict::kInconclusive),
            JustifyCache::InsertOutcome::kInserted);
  ASSERT_EQ(cache.probe(limited), JustifyVerdict::kBudgetLimited);
  ASSERT_EQ(cache.probe(inconclusive), JustifyVerdict::kInconclusive);

  cache.clear();
  EXPECT_EQ(cache.probe(limited), JustifyVerdict::kUnknown);
  EXPECT_EQ(cache.probe(inconclusive), JustifyVerdict::kUnknown);

  // Post-bump the slots are reclaimable and a re-solve can upgrade the
  // verdict (e.g. a larger budget now refutes the conjunction).
  EXPECT_EQ(cache.insert(limited, JustifyVerdict::kConflict),
            JustifyCache::InsertOutcome::kInserted);
  EXPECT_EQ(cache.probe(limited), JustifyVerdict::kConflict);
}

// --- Canonicalization ------------------------------------------------------

TEST(GoalCanonicalization, OrderAndDuplicateInsensitive) {
  const std::vector<Goal> sorted = {{2, false}, {5, true}, {9, false}};
  std::vector<Goal> shuffled = {{9, false}, {2, false}, {5, true}};
  std::vector<Goal> duplicated = {{5, true},  {2, false}, {9, false},
                                  {2, false}, {5, true},  {9, false}};
  const GoalSetKey want = canonicalize_goals(sorted);
  EXPECT_FALSE(want.contradictory);
  EXPECT_FALSE(want.empty);
  EXPECT_EQ(canonicalize_goals(shuffled), want);
  EXPECT_EQ(canonicalize_goals(duplicated), want);
}

TEST(GoalCanonicalization, DetectsContradictionsAndEmpty) {
  const std::vector<Goal> contradictory = {{3, true}, {7, false}, {3, false}};
  EXPECT_TRUE(canonicalize_goals(contradictory).contradictory);
  EXPECT_TRUE(canonicalize_goals({}).empty);
  // Value matters: same net at the same value twice is NOT a contradiction.
  const std::vector<Goal> dup_same = {{3, true}, {3, true}};
  EXPECT_FALSE(canonicalize_goals(dup_same).contradictory);
  // ... and flipping one value of a set changes the key.
  const std::vector<Goal> a = {{2, false}, {5, true}};
  const std::vector<Goal> b = {{2, false}, {5, false}};
  EXPECT_NE(canonicalize_goals(a), canonicalize_goals(b));
}

// Seeded fuzz against a reference model: a goal list's key must depend on
// exactly its *set* of (net, value) pairs — invariant under shuffling and
// duplication, contradictory iff some net appears with both values, and
// distinct for distinct sets (a 128-bit fingerprint collision across a few
// thousand small sets would indicate a broken hash chain, not bad luck).
TEST(GoalCanonicalization, FuzzMatchesReferenceModel) {
  util::Rng rng(0xC0FFEE);
  std::vector<std::pair<std::set<std::pair<std::uint32_t, bool>>,
                        GoalSetKey>> seen;
  int contradictions = 0;
  for (int round = 0; round < 2000; ++round) {
    // Small universes on purpose: collisions in net choice are what
    // exercise dedup and contradiction handling.
    const int n = 1 + static_cast<int>(rng.next_below(6));
    std::vector<Goal> goals;
    std::set<std::pair<std::uint32_t, bool>> model;
    for (int i = 0; i < n; ++i) {
      const auto net = static_cast<netlist::NetId>(rng.next_below(12));
      const bool value = rng.next_bool();
      goals.push_back({net, value});
      model.insert({static_cast<std::uint32_t>(net), value});
    }
    // Duplicate a random subset, then shuffle with the seeded Rng.
    const std::size_t base_size = goals.size();
    for (std::size_t i = 0; i < base_size; ++i) {
      if (rng.next_bool(0.3)) goals.push_back(goals[i]);
    }
    for (std::size_t i = goals.size(); i > 1; --i) {
      std::swap(goals[i - 1], goals[rng.next_below(i)]);
    }

    const GoalSetKey key = canonicalize_goals(goals);
    bool model_contradictory = false;
    for (const auto& [net, value] : model) {
      if (model.count({net, !value}) > 0) model_contradictory = true;
    }
    EXPECT_EQ(key.contradictory, model_contradictory) << "round " << round;
    if (model_contradictory) {
      ++contradictions;
      continue;  // degenerate keys are flagged, not hashed
    }
    // Same set -> same key; different set -> different key.
    for (const auto& [other_model, other_key] : seen) {
      if (other_model == model) {
        EXPECT_EQ(key, other_key) << "round " << round;
      } else {
        EXPECT_NE(key, other_key) << "round " << round;
      }
    }
    seen.emplace_back(model, key);
    // Scratch and allocating overloads must agree bit for bit.
    std::vector<std::uint64_t> scratch;
    const GoalSetKey scratch_key = canonicalize_goals(goals, scratch);
    EXPECT_EQ(scratch_key, key);
  }
  EXPECT_GT(contradictions, 100) << "fuzz should exercise contradictions";
  EXPECT_GT(seen.size(), 200u);
}

// --- Cache counters --------------------------------------------------------

TEST(JustifyCacheStats, CountersArePlumbedIntoStatsAndMetrics) {
  const netlist::Netlist nl = generated_circuit(27);
  util::MetricsRegistry metrics;
  PathFinderOptions opt;
  opt.num_threads = 4;
  opt.justify_cache = JustifyCacheMode::kShared;
  opt.metrics = &metrics;
  PathFinder finder(nl, testing::test_charlib("90nm"), opt);
  const PathFinderStats stats = finder.run([](const TruePath&) {});

  EXPECT_GT(stats.cache_hits + stats.cache_misses, 0);
  EXPECT_EQ(stats.cache_inserts + stats.cache_insert_races +
                stats.cache_full_drops,
            stats.cache_misses)
      << "every miss resolves to exactly one insert outcome";

  std::ostringstream os;
  metrics.write_json(os);
  const std::string json = os.str();
  for (const char* key :
       {"pathfinder.justify_cache.hits", "pathfinder.justify_cache.misses",
        "pathfinder.justify_cache.prunes",
        "pathfinder.justify_cache.inserts",
        "pathfinder.justify_cache.insert_races",
        "pathfinder.justify_cache.full_drops",
        "pathfinder.justify_cache.implication_refutes",
        "pathfinder.justify_cache.solver_escalations",
        "pathfinder.justify_cache.subset_hits",
        "pathfinder.justify_cache.negative_hits"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace sasta::sta
