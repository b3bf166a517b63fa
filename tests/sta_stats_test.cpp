// Direct unit coverage of PathFinderStats::operator+= — the merge the
// parallel finder applies to per-worker stats at join time.  Counter fields
// sum exactly (sources never span workers), cpu_seconds keeps the max
// (workers overlap in wall time), and truncated OR-folds.
#include <gtest/gtest.h>

#include "sta/path.h"

namespace sasta::sta {
namespace {

PathFinderStats sample(long base) {
  PathFinderStats s;
  s.paths_recorded = base + 1;
  s.courses = base + 2;
  s.multi_vector_courses = base + 3;
  s.backtracks = base + 4;
  s.vector_trials = base + 5;
  s.justify_limited = base + 6;
  s.tasks_spawned = base + 7;
  s.tasks_stolen = base + 8;
  s.steal_failures = base + 9;
  s.cpu_seconds = static_cast<double>(base);
  return s;
}

TEST(PathFinderStats, CounterFieldsSum) {
  PathFinderStats total = sample(10);
  total += sample(100);
  EXPECT_EQ(total.paths_recorded, 11 + 101);
  EXPECT_EQ(total.courses, 12 + 102);
  EXPECT_EQ(total.multi_vector_courses, 13 + 103);
  EXPECT_EQ(total.backtracks, 14 + 104);
  EXPECT_EQ(total.vector_trials, 15 + 105);
  EXPECT_EQ(total.justify_limited, 16 + 106);
  EXPECT_EQ(total.tasks_spawned, 17 + 107);
  EXPECT_EQ(total.tasks_stolen, 18 + 108);
  EXPECT_EQ(total.steal_failures, 19 + 109);
}

TEST(PathFinderStats, CpuSecondsMergesAsMax) {
  PathFinderStats slow;
  slow.cpu_seconds = 4.5;
  PathFinderStats fast;
  fast.cpu_seconds = 1.25;

  PathFinderStats a = slow;
  a += fast;
  EXPECT_DOUBLE_EQ(a.cpu_seconds, 4.5);

  PathFinderStats b = fast;
  b += slow;  // max, not last-wins: order must not matter
  EXPECT_DOUBLE_EQ(b.cpu_seconds, 4.5);
}

TEST(PathFinderStats, TruncatedOrFolds) {
  PathFinderStats clean_run;
  PathFinderStats truncated_run;
  truncated_run.truncated = true;

  PathFinderStats a = clean_run;
  a += clean_run;
  EXPECT_FALSE(a.truncated);

  a += truncated_run;
  EXPECT_TRUE(a.truncated);

  // Once set, merging further clean workers must not clear it.
  a += clean_run;
  EXPECT_TRUE(a.truncated);
}

TEST(PathFinderStats, DefaultIsIdentityForAccumulation) {
  PathFinderStats total;
  const PathFinderStats w = sample(7);
  total += w;
  EXPECT_EQ(total.paths_recorded, w.paths_recorded);
  EXPECT_EQ(total.vector_trials, w.vector_trials);
  EXPECT_DOUBLE_EQ(total.cpu_seconds, w.cpu_seconds);
  EXPECT_FALSE(total.truncated);
}

TEST(PathFinderStats, SelfMergeDoubles) {
  PathFinderStats s = sample(1);
  s += s;
  EXPECT_EQ(s.paths_recorded, 4);
  EXPECT_EQ(s.vector_trials, 12);
  EXPECT_DOUBLE_EQ(s.cpu_seconds, 1.0);
}

}  // namespace
}  // namespace sasta::sta
