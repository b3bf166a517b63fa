// TraceCollector under concurrent TraceSpan open/close across worker
// threads: the emitted Chrome-trace JSON must stay syntactically valid, no
// event may be torn (mixed fields from two writers), and serialization
// must be safe while writers are still recording.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "test_json.h"
#include "util/trace.h"

namespace sasta::util {
namespace {

// Each worker opens nested spans whose names encode the worker id, so a
// torn event (name from one writer, tid from another) is detectable by
// cross-checking the two fields on every recorded event.
TEST(TraceConcurrency, NestedSpansAcrossWorkersAreNeverTorn) {
  TraceCollector trace;
  constexpr int kWorkers = 8;
  constexpr int kOuterSpans = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&trace, t] {
      const std::string tag = "worker" + std::to_string(t);
      for (int i = 0; i < kOuterSpans; ++i) {
        TraceSpan outer(&trace, tag + ".outer", t + 1);
        TraceSpan inner(&trace, tag + ".inner", t + 1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<TraceEvent> events = trace.events();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kWorkers) * kOuterSpans * 2);
  std::set<int> tids;
  for (const TraceEvent& e : events) {
    // Tear check: the name's worker tag must agree with the tid lane.
    const std::string want = "worker" + std::to_string(e.tid - 1) + ".";
    EXPECT_EQ(e.name.rfind(want, 0), 0u)
        << "event name " << e.name << " recorded under tid " << e.tid;
    EXPECT_GE(e.dur_us, 0.0);
    EXPECT_GE(e.ts_us, 0.0);
    EXPECT_EQ(e.ph, 'X');
    tids.insert(e.tid);
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kWorkers));
}

// write_json is documented as safe while writers run; the snapshot it
// serializes must itself be valid JSON at any interleaving point.
TEST(TraceConcurrency, SerializationWhileWritersRunIsValidJson) {
  TraceCollector trace;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  // Each writer stops after a bounded number of spans: unbounded writers
  // can outrun the serializations below (each one walks every recorded
  // event), growing the trace by gigabytes before stop is ever set.
  constexpr int kMaxSpansPerWriter = 20000;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&trace, &stop, t] {
      for (int n = 0;
           n < kMaxSpansPerWriter && !stop.load(std::memory_order_relaxed);
           ++n) {
        TraceSpan span(&trace, "hot \"span\"\n", t + 1);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    std::ostringstream os;
    trace.write_json(os);
    const std::string json = os.str();
    EXPECT_TRUE(testing::is_valid_json(json)) << json.substr(0, 400);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();

  // The final quiescent serialization carries every recorded event intact.
  std::ostringstream os;
  trace.write_json(os);
  EXPECT_TRUE(testing::is_valid_json(os.str()));
  EXPECT_EQ(trace.events().size(), trace.num_events());
}

}  // namespace
}  // namespace sasta::util
