// Direct unit coverage of the search-counter table and of
// PathFinderStats::operator+= — the merge the parallel finder applies to
// per-worker stats at join time.  Every table counter sums exactly
// (sources never span workers), cpu_seconds keeps the max (workers overlap
// in wall time), and truncated OR-folds.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "sta/path.h"
#include "test_paths.h"

namespace sasta::sta {
namespace {

/// Counter i of the table holds base + i + 1, so every counter differs.
PathFinderStats sample(long base) {
  PathFinderStats s;
  long i = 0;
  for (const SearchCounter& c : kSearchCounters) s.*c.field = base + ++i;
  s.cpu_seconds = static_cast<double>(base);
  return s;
}

TEST(SearchCounters, TableNamesAndFieldsAreDistinct) {
  std::set<std::string_view> names;
  for (const SearchCounter& c : kSearchCounters) {
    EXPECT_TRUE(names.insert(c.name).second) << c.name;
    EXPECT_FALSE(c.unit.empty()) << c.name;
    EXPECT_FALSE(c.meaning.empty()) << c.name;
    EXPECT_EQ(counter_name(c.field), c.name);
  }
  // Writing through each row's field touches exactly that counter.
  for (const SearchCounter& c : kSearchCounters) {
    SearchCounters one;
    one.*c.field = 1;
    long sum = 0;
    for (const SearchCounter& d : kSearchCounters) sum += one.*d.field;
    EXPECT_EQ(sum, 1) << c.name;
  }
}

TEST(SearchCounters, EqualityComparesEveryCounter) {
  const PathFinderStats base = sample(10);
  for (const SearchCounter& c : kSearchCounters) {
    SearchCounters moved = base;
    EXPECT_EQ(moved, SearchCounters(base));
    moved.*c.field += 1;
    EXPECT_NE(moved, SearchCounters(base)) << c.name;
  }
}

TEST(SearchCounters, SubtractionUndoesAddition) {
  SearchCounters total = sample(10);
  total += sample(100);
  total -= sample(100);
  EXPECT_EQ(total, SearchCounters(sample(10)));
}

TEST(PathFinderStats, CounterFieldsSum) {
  PathFinderStats total = sample(10);
  total += sample(100);
  long i = 0;
  for (const SearchCounter& c : kSearchCounters) {
    ++i;
    EXPECT_EQ(total.*c.field, (10 + i) + (100 + i)) << c.name;
  }
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
  EXPECT_EQ(SearchCounters(total), SearchCounters(w));
  EXPECT_DOUBLE_EQ(total.cpu_seconds, w.cpu_seconds);
  EXPECT_FALSE(total.truncated);
}

TEST(PathFinderStats, SelfMergeDoubles) {
  PathFinderStats s = sample(1);
  s += s;
  long i = 0;
  for (const SearchCounter& c : kSearchCounters) {
    EXPECT_EQ(s.*c.field, 2 * (1 + ++i)) << c.name;
  }
  EXPECT_DOUBLE_EQ(s.cpu_seconds, 1.0);
}

}  // namespace
}  // namespace sasta::sta
