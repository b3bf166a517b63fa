#include "util/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.h"

namespace sasta::util {

namespace {

/// Registers `name` in `table` (idempotent) and returns its index.
template <typename Value>
int intern(std::map<std::string, int>& index,
           std::vector<std::pair<std::string, Value>>& table,
           const std::string& name, Value initial) {
  const auto [it, inserted] =
      index.emplace(name, static_cast<int>(table.size()));
  if (inserted) table.emplace_back(name, std::move(initial));
  return it->second;
}

/// The value a handle names, or null for an invalid handle.
template <typename Value>
Value* slot(std::vector<std::pair<std::string, Value>>& table, int index) {
  if (index < 0 || index >= static_cast<int>(table.size())) return nullptr;
  return &table[index].second;
}

}  // namespace

CounterId MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return {intern(counter_index_, counters_, name, 0L)};
}

GaugeId MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  return {intern(gauge_index_, gauges_, name, 0.0)};
}

HistogramId MetricsRegistry::histogram(const std::string& name,
                                       std::vector<double> bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return {it->second};
  SASTA_CHECK(!bounds.empty())
      << " histogram '" << name << "' needs at least one bucket bound";
  SASTA_CHECK(std::is_sorted(bounds.begin(), bounds.end()) &&
              std::adjacent_find(bounds.begin(), bounds.end()) ==
                  bounds.end())
      << " histogram '" << name << "' bounds must be strictly increasing";
  MetricsSnapshot::Histogram h;
  h.counts.assign(bounds.size() + 1, 0);
  h.bounds = std::move(bounds);
  return {intern(histogram_index_, histograms_, name, std::move(h))};
}

void MetricsRegistry::add(CounterId id, long delta) {
  std::lock_guard<std::mutex> lk(mu_);
  if (long* v = slot(counters_, id.index)) *v += delta;
}

void MetricsRegistry::set(GaugeId id, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  if (double* v = slot(gauges_, id.index)) *v = value;
}

void MetricsRegistry::add(GaugeId id, double delta) {
  std::lock_guard<std::mutex> lk(mu_);
  if (double* v = slot(gauges_, id.index)) *v += delta;
}

void MetricsRegistry::observe(HistogramId id, double value) {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot::Histogram* h = slot(histograms_, id.index);
  if (h == nullptr) return;
  ++h->counts[std::lower_bound(h->bounds.begin(), h->bounds.end(), value) -
              h->bounds.begin()];
  h->sum += value;
  h->max = h->observations == 0 ? value : std::max(h->max, value);
  ++h->observations;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot snap;
  snap.counters.insert(counters_.begin(), counters_.end());
  snap.gauges.insert(gauges_.begin(), gauges_.end());
  snap.histograms.insert(histograms_.begin(), histograms_.end());
  return snap;
}

double MetricsSnapshot::Histogram::percentile(double q) const {
  if (observations <= 0 || bounds.empty()) return 0.0;
  const double target = q * static_cast<double>(observations);
  long cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    cumulative += counts[b];
    if (static_cast<double>(cumulative) >= target) {
      // The overflow bucket has no finite upper edge; the observed max is
      // the only honest estimate there.  (Clamping to bounds.back() used
      // to under-report every quantile that landed past the last bound.)
      return b < bounds.size() ? bounds[b] : max;
    }
  }
  return max;
}

void MetricsRegistry::write_json(std::ostream& os) const {
  snapshot().write_json(os);
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += "\"";
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  const char* sep = "";
  for (const auto& [name, value] : counters) {
    os << sep << "\n    " << json_quote(name) << ": " << value;
    sep = ",";
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  sep = "";
  for (const auto& [name, value] : gauges) {
    os << sep << "\n    " << json_quote(name) << ": " << json_number(value);
    sep = ",";
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  sep = "";
  for (const auto& [name, h] : histograms) {
    os << sep << "\n    " << json_quote(name) << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      os << (i ? ", " : "") << json_number(h.bounds[i]);
    }
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      os << (i ? ", " : "") << h.counts[i];
    }
    os << "], \"observations\": " << h.observations
       << ", \"sum\": " << json_number(h.sum)
       << ", \"max\": " << json_number(h.max)
       << ", \"p50\": " << json_number(h.percentile(0.50))
       << ", \"p90\": " << json_number(h.percentile(0.90))
       << ", \"p99\": " << json_number(h.percentile(0.99)) << "}";
    sep = ",";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
}

}  // namespace sasta::util
