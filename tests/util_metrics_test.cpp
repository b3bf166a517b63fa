// Metrics registry (one locked table, histogram bucket edges, JSON) and
// Chrome trace-event collector.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace sasta::util {
namespace {

TEST(Metrics, CountersAccumulate) {
  MetricsRegistry reg;
  const CounterId hits = reg.counter("hits");
  const CounterId misses = reg.counter("misses");
  reg.add(hits, 3);
  reg.add(misses);
  reg.add(hits, 4);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hits"), 7);
  EXPECT_EQ(snap.counters.at("misses"), 1);
}

TEST(Metrics, RegistrationIsIdempotentByName) {
  MetricsRegistry reg;
  const CounterId first = reg.counter("n");
  const CounterId again = reg.counter("n");
  EXPECT_EQ(first.index, again.index);

  reg.add(first, 2);
  reg.add(again, 3);
  EXPECT_EQ(reg.snapshot().counters.at("n"), 5);
}

TEST(Metrics, GaugesSetAndAdd) {
  MetricsRegistry reg;
  const GaugeId busy = reg.gauge("busy_seconds");
  reg.set(busy, 1.5);
  reg.add(busy, 0.25);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("busy_seconds"), 1.75);
  // set() replaces the value; it does not accumulate.
  reg.set(busy, 2.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("busy_seconds"), 2.0);
}

TEST(Metrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("depth", {1.0, 2.0, 4.0});
  // Bucket 0: <= 1, bucket 1: (1, 2], bucket 2: (2, 4], bucket 3: > 4.
  for (const double v : {0.5, 1.0}) reg.observe(h, v);
  for (const double v : {1.5, 2.0}) reg.observe(h, v);
  reg.observe(h, 3.0);
  for (const double v : {4.5, 100.0}) reg.observe(h, v);

  const MetricsSnapshot::Histogram snap = reg.snapshot().histograms.at("depth");
  EXPECT_EQ(snap.bounds, (std::vector<double>{1.0, 2.0, 4.0}));
  EXPECT_EQ(snap.counts, (std::vector<long>{2, 2, 1, 2}));
  EXPECT_EQ(snap.observations, 7);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.5 + 100.0);
}

TEST(Metrics, LateRegistrationIsRecordable) {
  MetricsRegistry reg;
  const CounterId early = reg.counter("early");
  reg.add(early, 1);
  // Registered after writes began: the id is recordable at once, and the
  // earlier metric keeps its value.
  const CounterId late = reg.counter("late");
  reg.add(late, 2);
  const HistogramId h = reg.histogram("late_hist", {1.0});
  reg.observe(h, 0.5);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("early"), 1);
  EXPECT_EQ(snap.counters.at("late"), 2);
  EXPECT_EQ(snap.histograms.at("late_hist").observations, 1);
}

TEST(Metrics, InvalidIdsAreIgnored) {
  MetricsRegistry reg;
  reg.add(CounterId{}, 7);
  reg.set(GaugeId{}, 1.0);
  reg.add(GaugeId{}, 1.0);
  reg.observe(HistogramId{}, 1.0);
  // An index past the table is as invalid as a default handle.
  reg.add(CounterId{5}, 7);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(Metrics, ConcurrentWritesAreExact) {
  MetricsRegistry reg;
  const CounterId n = reg.counter("n");
  const HistogramId h = reg.histogram("h", {0.5});
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::atomic<int> snapshots{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &snapshots, n, h, t] {
      // Each thread writes its own gauge: one writer per gauge.
      const GaugeId g = reg.gauge("g" + std::to_string(t));
      for (int i = 0; i < kIncrements; ++i) {
        reg.add(n);
        reg.observe(h, static_cast<double>(i % 3));
        reg.add(g, 1.0);
        // Snapshots taken mid-run must be safe and never run ahead of
        // what has been written.
        if (i % 1024 == 0) {
          const MetricsSnapshot mid = reg.snapshot();
          EXPECT_LE(mid.counters.at("n"), long{kThreads} * kIncrements);
          const auto& mh = mid.histograms.at("h");
          long counted = 0;
          for (const long c : mh.counts) counted += c;
          EXPECT_EQ(counted, mh.observations);
          ++snapshots;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const MetricsSnapshot snap = reg.snapshot();
  const long total = long{kThreads} * kIncrements;
  EXPECT_EQ(snap.counters.at("n"), total);
  const MetricsSnapshot::Histogram& hist = snap.histograms.at("h");
  EXPECT_EQ(hist.observations, total);
  // i % 3 is 0 for ceil(kIncrements / 3) of each thread's values.
  const long zeros = long{kThreads} * ((kIncrements + 2) / 3);
  EXPECT_EQ(hist.counts, (std::vector<long>{zeros, total - zeros}));
  // Small integers sum exactly in any interleaving.
  long expected_sum = 0;
  for (int i = 0; i < kIncrements; ++i) expected_sum += i % 3;
  EXPECT_EQ(hist.sum, static_cast<double>(expected_sum * kThreads));
  EXPECT_EQ(hist.max, 2.0);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.gauges.at("g" + std::to_string(t)), kIncrements);
  }
  EXPECT_EQ(snapshots.load(), kThreads * ((kIncrements + 1023) / 1024));
}

TEST(Metrics, HistogramPercentilesFromKnownDistribution) {
  MetricsRegistry reg;
  // Bucket edges 1, 2, 4, 8; feed 100 observations with a known shape:
  // 50 in (<=1], 30 in (1,2], 15 in (2,4], 4 in (4,8], 1 overflow.
  const HistogramId h = reg.histogram("d", {1.0, 2.0, 4.0, 8.0});
    for (int i = 0; i < 50; ++i) reg.observe(h, 0.5);
  for (int i = 0; i < 30; ++i) reg.observe(h, 1.5);
  for (int i = 0; i < 15; ++i) reg.observe(h, 3.0);
  for (int i = 0; i < 4; ++i) reg.observe(h, 5.0);
  reg.observe(h, 100.0);

  const MetricsSnapshot::Histogram snap = reg.snapshot().histograms.at("d");
  // Percentiles resolve to the inclusive upper edge of the first bucket
  // whose cumulative count reaches q * observations.
  EXPECT_DOUBLE_EQ(snap.percentile(0.50), 1.0);   // 50th obs is in bucket 0
  EXPECT_DOUBLE_EQ(snap.percentile(0.51), 2.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.80), 2.0);   // cumulative 80 at edge 2
  EXPECT_DOUBLE_EQ(snap.percentile(0.90), 4.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.99), 8.0);
  // The overflow bucket has no finite upper edge; report the observed max
  // (the last bound would under-state the tail by 12.5x here).
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), 1.0);
}

// Regression: percentile() used to clamp overflow-bucket quantiles to the
// last finite bound, so a histogram whose mass sat entirely past its edges
// reported every percentile as bounds.back() no matter how large the
// observations actually were.
TEST(Metrics, AllOverflowDistributionReportsObservedMax) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("d", {1.0, 2.0});
    for (const double v : {50.0, 300.0, 7.5}) reg.observe(h, v);

  const MetricsSnapshot::Histogram snap = reg.snapshot().histograms.at("d");
  EXPECT_EQ(snap.counts, (std::vector<long>{0, 0, 3}));
  EXPECT_DOUBLE_EQ(snap.max, 300.0);
  // Every quantile lands in the overflow bucket.
  EXPECT_DOUBLE_EQ(snap.percentile(0.01), 300.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.50), 300.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.99), 300.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 300.0);
}

TEST(Metrics, MixedDistributionOnlyTailQuantilesUseMax) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("d", {1.0, 2.0});
    for (int i = 0; i < 9; ++i) reg.observe(h, 0.5);
  reg.observe(h, 64.0);

  const MetricsSnapshot::Histogram snap = reg.snapshot().histograms.at("d");
  // In-range quantiles still resolve to bucket edges...
  EXPECT_DOUBLE_EQ(snap.percentile(0.50), 1.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.90), 1.0);
  // ...and only the quantile that reaches the overflow mass reports max.
  EXPECT_DOUBLE_EQ(snap.percentile(0.95), 64.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 64.0);
}

TEST(Metrics, HistogramMaxIsLargestObservation) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("d", {10.0});
  for (const double v : {11.0, 900.0, 3.0}) reg.observe(h, v);
  const MetricsSnapshot::Histogram snap = reg.snapshot().histograms.at("d");
  EXPECT_DOUBLE_EQ(snap.max, 900.0);
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 900.0);
}

TEST(Metrics, EmptyHistogramMaxIsZero) {
  MetricsRegistry reg;
  (void)reg.histogram("d", {1.0});
  // No observation, no max: the snapshot reports 0.
  EXPECT_DOUBLE_EQ(reg.snapshot().histograms.at("d").max, 0.0);
}

TEST(Metrics, EmptyHistogramPercentileIsZero) {
  MetricsRegistry reg;
  (void)reg.histogram("d", {1.0});
  const MetricsSnapshot::Histogram snap = reg.snapshot().histograms.at("d");
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 0.0);
}

TEST(Metrics, JsonExportsPercentiles) {
  MetricsRegistry reg;
  const HistogramId h = reg.histogram("depth", {1.0, 2.0});
    for (int i = 0; i < 10; ++i) reg.observe(h, 0.5);
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_TRUE(testing::is_valid_json(os.str())) << os.str();
  EXPECT_NE(os.str().find("\"p50\": 1"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("\"p90\""), std::string::npos);
  EXPECT_NE(os.str().find("\"p99\""), std::string::npos);
  EXPECT_NE(os.str().find("\"max\": 0.5"), std::string::npos) << os.str();
}

TEST(Metrics, JsonOutputIsValidAndDeterministic) {
  MetricsRegistry reg;
  const CounterId c = reg.counter("count.with \"quotes\"\n");
  const GaugeId g = reg.gauge("gauge");
  const HistogramId h = reg.histogram("hist", {1.0, 8.0});
  reg.add(c, 42);
  reg.set(g, 0.125);
  reg.observe(h, 3.0);

  std::ostringstream os1, os2;
  reg.write_json(os1);
  reg.write_json(os2);
  EXPECT_EQ(os1.str(), os2.str());
  EXPECT_TRUE(testing::is_valid_json(os1.str())) << os1.str();
  EXPECT_NE(os1.str().find("\"gauge\": 0.125"), std::string::npos);
  EXPECT_NE(os1.str().find("\"counts\": [0, 1, 0]"), std::string::npos);
}

TEST(Metrics, EmptyRegistryJsonIsValid) {
  MetricsRegistry reg;
  std::ostringstream os;
  reg.write_json(os);
  EXPECT_TRUE(testing::is_valid_json(os.str())) << os.str();
}

TEST(Metrics, JsonNumberNeverEmitsNonFinite) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::nan("")), "0");
  EXPECT_TRUE(testing::is_valid_json(json_number(1.5e-300)));
  EXPECT_TRUE(testing::is_valid_json(json_number(-2.75)));
}

TEST(Trace, SpansRecordCompleteEventsWithDistinctTids) {
  TraceCollector trace;
  {
    TraceSpan outer(&trace, "outer", 0);
    TraceSpan worker(&trace, "source N1", 3);
  }
  EXPECT_EQ(trace.num_events(), 2u);
  std::ostringstream os;
  trace.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(testing::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"tid\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"source N1\""), std::string::npos);
}

TEST(Trace, NullCollectorSpanIsANoOp) {
  TraceSpan span(nullptr, "ignored", 7);  // must not crash or allocate state
}

TEST(Trace, ConcurrentEventRecordingIsSafe) {
  TraceCollector trace;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&trace, t] {
      for (int i = 0; i < 250; ++i) {
        TraceSpan span(&trace, "work", t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(trace.num_events(), 1000u);
  std::ostringstream os;
  trace.write_json(os);
  EXPECT_TRUE(testing::is_valid_json(os.str()));
}

}  // namespace
}  // namespace sasta::util
