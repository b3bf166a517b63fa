#include "sta/run_report.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/strings.h"

namespace sasta::sta {

namespace {

/// Every schema key is emitted through jkey() so tools/check_docs_sync can
/// grep the report surface out of this file and hold docs/METRICS.md to it.
/// Counter keys come from kSearchCounters, which the checker reads too.
std::string jkey(std::string_view name) {
  return util::json_quote(std::string(name));
}

/// The K gates with the most vector trials, totally ordered (trials
/// descending, instance id ascending) so the table is deterministic for
/// fixed tallies.
std::vector<SearchAttribution::GateCost> top_gates(
    const SearchAttribution& attribution, int k) {
  std::vector<SearchAttribution::GateCost> gates = attribution.gates;
  std::sort(gates.begin(), gates.end(),
            [](const SearchAttribution::GateCost& a,
               const SearchAttribution::GateCost& b) {
              return a.vector_trials != b.vector_trials
                         ? a.vector_trials > b.vector_trials
                         : a.inst < b.inst;
            });
  if (k >= 0 && gates.size() > static_cast<std::size_t>(k)) {
    gates.resize(k);
  }
  return gates;
}

}  // namespace

void write_run_report(const RunReportInputs& in, std::ostream& os) {
  const auto num = [](double v) { return util::json_number(v); };
  os << "{\n";
  os << "  " << jkey("schema") << ": \"sasta-run-report-v1\",\n";
  os << "  " << jkey("circuit") << ": " << util::json_quote(in.circuit)
     << ",\n";

  // --- options echo: enough to reproduce the run's search configuration.
  os << "  " << jkey("options") << ": {";
  if (in.options != nullptr) {
    const PathFinderOptions& o = *in.options;
    os << "\n    " << jkey("threads") << ": " << o.num_threads << ",\n    "
       << jkey("backtrack_budget") << ": " << o.justify_backtrack_budget
       << "\n  ";
  }
  os << "},\n";

  // --- aggregate totals (PathFinderStats).
  os << "  " << jkey("totals") << ": {";
  if (in.stats != nullptr) {
    const PathFinderStats& s = *in.stats;
    for (const SearchCounter& c : kSearchCounters) {
      os << "\n    " << jkey(c.name) << ": " << s.*c.field << ",";
    }
    os << "\n    " << jkey("cpu_seconds") << ": " << num(s.cpu_seconds)
       << ",\n    " << jkey("truncated") << ": "
       << (s.truncated ? "true" : "false") << "\n  ";
  }
  os << "},\n";

  // --- attribution tables.
  os << "  " << jkey("attribution") << ": {\n    " << jkey("sources")
     << ": [";
  if (in.attribution != nullptr && in.netlist != nullptr) {
    const char* sep = "";
    for (const SearchAttribution::SourceCost& r : in.attribution->sources) {
      if (r.source == netlist::kNoId) continue;  // source never searched
      os << sep << "\n      {" << jkey("name") << ": "
         << util::json_quote(in.netlist->net(r.source).name) << ", ";
      for (const SearchCounter& c : kSearchCounters) {
        os << jkey(c.name) << ": " << r.*c.field << ", ";
      }
      os << jkey("seconds") << ": " << num(r.seconds) << "}";
      sep = ",";
    }
    if (*sep != '\0') os << "\n    ";
  }
  os << "],\n    " << jkey("hot_gates") << ": [";
  if (in.attribution != nullptr && in.netlist != nullptr) {
    const auto gates = top_gates(*in.attribution, in.top_k_gates);
    const char* sep = "";
    for (const SearchAttribution::GateCost& g : gates) {
      os << sep << "\n      {" << jkey("name") << ": "
         << util::json_quote(in.netlist->instance(g.inst).name) << ", "
         << jkey(counter_name(&SearchCounters::vector_trials)) << ": "
         << g.vector_trials << "}";
      sep = ",";
    }
    if (*sep != '\0') os << "\n    ";
  }
  os << "]\n  },\n";

  // --- per-worker table, folded from the source rows: one row per lane
  // (lane = worker index + 1, the trace's tid), starved lanes included.
  os << "  " << jkey("workers") << ": [";
  if (in.attribution != nullptr) {
    const SearchAttribution& a = *in.attribution;
    std::vector<long> sources(a.workers, 0);
    std::vector<double> busy(a.workers, 0.0);
    for (const SearchAttribution::SourceCost& r : a.sources) {
      if (r.source == netlist::kNoId) continue;  // source never searched
      ++sources[r.worker];
      busy[r.worker] += r.seconds;
    }
    // busy_fraction divides by the run's wall clock: it answers "was this
    // worker starved" (a dominant source keeps one worker busy while the
    // others run out of sources).
    const double wall = in.stats != nullptr ? in.stats->cpu_seconds : 0.0;
    const char* sep = "";
    for (unsigned t = 0; t < a.workers; ++t) {
      os << sep << "\n    {" << jkey("lane") << ": " << t + 1 << ", "
         << jkey("sources") << ": " << sources[t] << ", "
         << jkey("busy_seconds") << ": " << num(busy[t]) << ", "
         << jkey("busy_fraction") << ": "
         << num(wall > 0.0 ? busy[t] / wall : 0.0) << "}";
      sep = ",";
    }
    if (a.workers > 0) os << "\n  ";
  }
  os << "],\n";

  // --- flight-recorder summary.  The key set is fixed: a disabled
  // recorder renders {"enabled": false} and nothing else, so the schema
  // stays a pure function of which sinks were armed.
  os << "  " << jkey("recorder") << ": {";
  {
    const bool enabled = in.flight != nullptr;
    os << "\n    " << jkey("enabled") << ": " << (enabled ? "true" : "false");
    if (enabled) {
      os << ",\n    " << jkey("lanes") << ": " << in.flight->num_lanes()
         << ",\n    " << jkey("events_per_lane") << ": "
         << in.flight->events_per_lane() << ",\n    "
         << jkey("events_recorded") << ": " << in.flight->total_events()
         << ",\n    " << jkey("stalls") << ": " << in.flight->stalls()
         << ",\n    " << jkey("watchdog_seconds") << ": "
         << num(in.flight->watchdog_seconds());
    }
    os << "\n  ";
  }
  os << "},\n";

  // --- the full metrics snapshot, embedded verbatim.
  os << "  " << jkey("metrics") << ": ";
  if (in.metrics != nullptr) {
    in.metrics->write_json(os);
  } else {
    os << "{}\n";
  }
  os << "}\n";
}

std::string format_profile_summary(const RunReportInputs& in) {
  std::ostringstream os;
  os << "search-cost profile";
  if (!in.circuit.empty()) os << " (" << in.circuit << ")";
  os << ":\n";

  if (in.attribution != nullptr && in.netlist != nullptr) {
    // Top sources by attributed wall clock.
    std::vector<SearchAttribution::SourceCost> sources;
    for (const SearchAttribution::SourceCost& r : in.attribution->sources) {
      if (r.source != netlist::kNoId) sources.push_back(r);
    }
    std::sort(sources.begin(), sources.end(),
              [](const SearchAttribution::SourceCost& a,
                 const SearchAttribution::SourceCost& b) {
                return a.seconds != b.seconds ? a.seconds > b.seconds
                                              : a.source < b.source;
              });
    os << "  top sources (by seconds):\n";
    const std::size_t n_sources = std::min<std::size_t>(sources.size(), 8);
    for (std::size_t i = 0; i < n_sources; ++i) {
      const SearchAttribution::SourceCost& r = sources[i];
      os << "    " << in.netlist->net(r.source).name << ": "
         << util::format_fixed(r.seconds * 1e3, 2) << " ms, "
         << r.vector_trials << " trials, " << r.backtracks
         << " backtracks, " << r.paths_recorded << " paths\n";
    }

    os << "  hot gates (by vector trials):\n";
    for (const SearchAttribution::GateCost& g :
         top_gates(*in.attribution, std::min(in.top_k_gates, 8))) {
      os << "    " << in.netlist->instance(g.inst).name << ": "
         << g.vector_trials << " trials\n";
    }
  }

  return os.str();
}

std::vector<std::string> selfcheck_run(const RunReportInputs& in) {
  std::vector<std::string> violations;
  const auto eq = [&violations](const std::string& name, long got,
                                long want) {
    if (got != want) {
      violations.push_back(name + ": got " + std::to_string(got) + " want " +
                           std::to_string(want));
    }
  };
  if (in.stats == nullptr) return violations;
  const PathFinderStats& s = *in.stats;
  const auto name = [](long SearchCounters::*field) {
    return std::string(counter_name(field));
  };

  // Internal stats invariants (always checkable): a course needs a record,
  // a multi-vector course is a course.
  const auto le = [&](long SearchCounters::*lhs, long SearchCounters::*rhs) {
    if (s.*lhs > s.*rhs) {
      violations.push_back(name(lhs) + " <= " + name(rhs) + ": " +
                           std::to_string(s.*lhs) + " exceeds bound " +
                           std::to_string(s.*rhs));
    }
  };
  le(&SearchCounters::courses, &SearchCounters::paths_recorded);
  le(&SearchCounters::multi_vector_courses, &SearchCounters::courses);

  // Attribution rows vs aggregates: every counter is charged to exactly
  // one source and (for trials) exactly one gate.
  if (in.attribution != nullptr) {
    SearchCounters sum;
    for (const SearchAttribution::SourceCost& r : in.attribution->sources) {
      if (r.source != netlist::kNoId) sum += r;
    }
    for (const SearchCounter& c : kSearchCounters) {
      const std::string n(c.name);
      eq("sum(sources." + n + ") == " + n, sum.*c.field, s.*c.field);
    }

    long gate_trials = 0;
    for (const SearchAttribution::GateCost& g : in.attribution->gates) {
      gate_trials += g.vector_trials;
    }
    const std::string trials = name(&SearchCounters::vector_trials);
    eq("sum(gates." + trials + ") == " + trials, gate_trials,
       s.vector_trials);
  }

  // Recorder activity slots vs aggregates: count_trial() and
  // note_path_recorded() fire at the same sites as the stats counters.
  if (in.flight != nullptr) {
    long rec_trials = 0, rec_paths = 0;
    for (unsigned i = 0; i < in.flight->num_lanes(); ++i) {
      const util::FlightLane::Activity a = in.flight->lane(i).activity();
      rec_trials += static_cast<long>(a.trials);
      rec_paths += static_cast<long>(a.paths);
    }
    eq("sum(recorder lane trials) == " + name(&SearchCounters::vector_trials),
       rec_trials, s.vector_trials);
    eq("sum(recorder lane paths) == " + name(&SearchCounters::paths_recorded),
       rec_paths, s.paths_recorded);
  }
  return violations;
}

}  // namespace sasta::sta
