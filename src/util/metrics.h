// Metrics registry: named counters, gauges and fixed-bucket histograms
// with JSON serialization.
//
// The registry is one table guarded by one mutex, the model
// util::TraceCollector uses: every write (add / set / observe) takes the
// lock and updates its slot in place, and snapshot() copies the table under
// the same lock, so it is safe while writers are still running.  Nearly
// every metric is written once per run from one thread; the one metric
// written from the search's worker threads, `pathfinder.justify_depth`, is
// observed once per recorded path, and at that granularity the lock is
// uncontended noise.
//
// Values do not depend on the order in which threads write them: counters
// and histogram bucket counts are integer sums, every gauge has one writer,
// and the histogram sums written from several threads add small integers,
// which is exact in any order.
//
// Instrumentation is observational only and optional: every consumer holds
// a `MetricsRegistry*` that may be null, in which case the recording sites
// reduce to a pointer test.  Metrics must never feed back into algorithmic
// decisions — results are required to be bit-identical with instrumentation
// on or off.
//
// Registration (by name, idempotent) may happen at any time; a handle is an
// index into the table and stays valid for the registry's lifetime.
#pragma once

#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace sasta::util {

/// Typed handles into the registry's table.  Default-constructed handles
/// are invalid and ignored by every write.
struct CounterId {
  int index = -1;
};
struct GaugeId {
  int index = -1;
};
struct HistogramId {
  int index = -1;
};

/// A copy of the registry's table.  Keys are sorted, so serialization is
/// deterministic given the same recorded values.
struct MetricsSnapshot {
  struct Histogram {
    std::vector<double> bounds;  ///< inclusive upper bucket edges
    std::vector<long> counts;    ///< bounds.size() + 1, last = overflow
    long observations = 0;
    double sum = 0.0;
    double max = 0.0;  ///< largest observed value; 0 when empty

    /// Bucket-resolution quantile estimate for `q` in (0, 1]: the
    /// inclusive upper edge of the first bucket at which the cumulative
    /// count reaches ⌈q · observations⌉.  A quantile that lands in the
    /// overflow bucket reports the observed `max` — the bucket has no
    /// finite upper edge, and clamping to the last bound used to
    /// under-report overflow-heavy distributions (a p99 of "128" when the
    /// real tail sat at 1e4).  0 when the histogram is empty.
    double percentile(double q) const;
  };

  std::map<std::string, long> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  /// Serializes as one JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {"bounds": [...], "counts": [...],
  /// "observations": N, "sum": S, "max": M, "p50": ..., "p90": ...,
  /// "p99": ...}}}.  The percentile fields are bucket-resolution (see
  /// Histogram::percentile).
  void write_json(std::ostream& os) const;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or looks up — registration is idempotent by name) a named
  /// metric and returns its handle.  Thread-safe; resolve handles once,
  /// outside loops.
  CounterId counter(const std::string& name);
  GaugeId gauge(const std::string& name);
  /// `bounds` are strictly increasing inclusive upper bucket edges; one
  /// overflow bucket is added past the last bound.  Re-registering an
  /// existing histogram name returns the original id (bounds unchanged).
  HistogramId histogram(const std::string& name, std::vector<double> bounds);

  void add(CounterId id, long delta = 1);
  void set(GaugeId id, double value);
  void add(GaugeId id, double delta);
  /// Records one histogram observation: the first bucket whose upper bound
  /// is >= value counts it (inclusive upper edges); values above the last
  /// bound land in the overflow bucket.
  void observe(HistogramId id, double value);

  /// A copy of the table, taken under the lock.
  MetricsSnapshot snapshot() const;

  /// snapshot() serialized with MetricsSnapshot::write_json.
  void write_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, long>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<std::pair<std::string, MetricsSnapshot::Histogram>> histograms_;
  std::map<std::string, int> counter_index_;
  std::map<std::string, int> gauge_index_;
  std::map<std::string, int> histogram_index_;
};

/// Escapes a string for embedding in a JSON document (quotes included).
std::string json_quote(const std::string& s);

/// Formats a double as a valid JSON number (shortest round-trip form;
/// non-finite values degrade to 0 — JSON has no inf/nan).
std::string json_number(double v);

}  // namespace sasta::util
