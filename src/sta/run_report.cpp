#include "sta/run_report.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "util/strings.h"

namespace sasta::sta {

namespace {

/// Every schema key is emitted through jkey() so tools/check_docs_sync can
/// grep the report surface out of this file and hold docs/METRICS.md to it.
std::string jkey(const char* name) { return util::json_quote(name); }

const char* tier_name(JustifyTier t) {
  switch (t) {
    case JustifyTier::kImplication:
      return "implication";
    case JustifyTier::kBoth:
      return "both";
    case JustifyTier::kAdaptive:
      return "adaptive";
  }
  return "?";
}

const char* schedule_name(ScheduleMode s) {
  switch (s) {
    case ScheduleMode::kSource:
      return "source";
    case ScheduleMode::kSteal:
      return "steal";
  }
  return "?";
}

const char* mode_name(JustifyCacheMode m) {
  switch (m) {
    case JustifyCacheMode::kOff:
      return "off";
    case JustifyCacheMode::kShared:
      return "shared";
  }
  return "?";
}

double live_ratio(long numerator, long denominator) {
  return denominator > 0
             ? static_cast<double>(numerator) /
                   static_cast<double>(denominator)
             : 0.0;
}

/// Attributed cost of one gate row: every unit is roughly one unit of
/// search work — a vector trial attempted, a trial pruned at the gate, or
/// one solver backtrack spent escalating the gate's conjunctions.
long gate_cost(const SearchAttribution::GateCost& g) {
  return g.vector_trials + g.cache_prunes + g.escalation_backtracks;
}

/// The K hottest gates, totally ordered (cost descending, instance id
/// ascending) so the table is deterministic for fixed tallies.
std::vector<SearchAttribution::GateCost> top_gates(
    const SearchAttribution& attribution, int k) {
  std::vector<SearchAttribution::GateCost> gates = attribution.gates;
  std::sort(gates.begin(), gates.end(),
            [](const SearchAttribution::GateCost& a,
               const SearchAttribution::GateCost& b) {
              const long ca = gate_cost(a), cb = gate_cost(b);
              return ca != cb ? ca > cb : a.inst < b.inst;
            });
  if (k >= 0 && gates.size() > static_cast<std::size_t>(k)) {
    gates.resize(k);
  }
  return gates;
}

/// Per-worker timeline row recovered from the metrics snapshot (lane =
/// worker index + 1, matching the trace's tid lanes).
struct WorkerRow {
  int lane = 0;
  long sources = 0;
  double busy_seconds = 0.0;
  long spans = 0;
};

std::vector<WorkerRow> worker_rows(const RunReportInputs& in) {
  std::vector<WorkerRow> rows;
  if (in.metrics == nullptr) return rows;
  const std::string prefix = "pathfinder.worker.";
  const std::string sources_suffix = ".sources";
  for (const auto& [name, value] : in.metrics->counters) {
    if (name.rfind(prefix, 0) != 0 || !name.ends_with(sources_suffix)) {
      continue;
    }
    WorkerRow row;
    row.lane =
        std::stoi(name.substr(prefix.size(),
                              name.size() - prefix.size() -
                                  sources_suffix.size())) +
        1;
    row.sources = value;
    const auto busy = in.metrics->gauges.find(
        prefix + std::to_string(row.lane - 1) + ".busy_seconds");
    if (busy != in.metrics->gauges.end()) row.busy_seconds = busy->second;
    if (in.trace != nullptr) {
      for (const util::TraceEvent& e : in.trace->events()) {
        if (e.tid == row.lane) ++row.spans;
      }
    }
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const WorkerRow& a, const WorkerRow& b) {
              return a.lane < b.lane;
            });
  return rows;
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
       << jkey("schedule") << ": \"" << schedule_name(o.schedule)
       << "\",\n    "
       << jkey("cache") << ": \"" << mode_name(o.justify_cache) << "\",\n    "
       << jkey("tier") << ": \"" << tier_name(o.justify_tier) << "\",\n    "
       << jkey("cache_capacity") << ": " << o.justify_cache_capacity
       << ",\n    " << jkey("cache_budget") << ": " << o.justify_cache_budget
       << ",\n    " << jkey("backtrack_budget") << ": "
       << o.justify_backtrack_budget << ",\n    " << jkey("escalation_payoff")
       << ": " << num(o.escalation_payoff) << "\n  ";
  }
  os << "},\n";

  // --- aggregate totals (PathFinderStats).
  os << "  " << jkey("totals") << ": {";
  if (in.stats != nullptr) {
    const PathFinderStats& s = *in.stats;
    os << "\n    " << jkey("paths_recorded") << ": " << s.paths_recorded
       << ",\n    " << jkey("courses") << ": " << s.courses << ",\n    "
       << jkey("multi_vector_courses") << ": " << s.multi_vector_courses
       << ",\n    " << jkey("vector_trials") << ": " << s.vector_trials
       << ",\n    " << jkey("backtracks") << ": " << s.backtracks << ",\n    "
       << jkey("justify_limited") << ": " << s.justify_limited << ",\n    "
       << jkey("tasks_spawned") << ": " << s.tasks_spawned << ",\n    "
       << jkey("tasks_stolen") << ": " << s.tasks_stolen << ",\n    "
       << jkey("steal_failures") << ": " << s.steal_failures << ",\n    "
       << jkey("cpu_seconds") << ": " << num(s.cpu_seconds) << ",\n    "
       << jkey("truncated") << ": " << (s.truncated ? "true" : "false")
       << "\n  ";
  }
  os << "},\n";

  // --- cache/tier decision points, with the payoff ratio live.
  os << "  " << jkey("cache") << ": {";
  if (in.stats != nullptr) {
    const PathFinderStats& s = *in.stats;
    os << "\n    " << jkey("hits") << ": " << s.cache_hits << ",\n    "
       << jkey("misses") << ": " << s.cache_misses << ",\n    "
       << jkey("prunes") << ": " << s.cache_prunes << ",\n    "
       << jkey("inserts") << ": " << s.cache_inserts << ",\n    "
       << jkey("insert_races") << ": " << s.cache_insert_races << ",\n    "
       << jkey("full_drops") << ": " << s.cache_full_drops << ",\n    "
       << jkey("implication_refutes") << ": " << s.implication_refutes
       << ",\n    " << jkey("solver_escalations") << ": "
       << s.solver_escalations << ",\n    " << jkey("subset_hits") << ": "
       << s.subset_hits << ",\n    " << jkey("negative_hits") << ": "
       << s.negative_hits << ",\n    " << jkey("escalation_refutes") << ": "
       << s.escalation_refutes << ",\n    " << jkey("escalations_vetoed")
       << ": " << s.escalations_vetoed << ",\n    "
       << jkey("refutes_per_escalation") << ": "
       << num(live_ratio(s.escalation_refutes, s.solver_escalations))
       << ",\n    " << jkey("shard_occupancy") << ": [";
    if (in.attribution != nullptr) {
      for (std::size_t i = 0; i < in.attribution->cache_shards.size(); ++i) {
        os << (i ? ", " : "") << in.attribution->cache_shards[i];
      }
    }
    os << "]\n  ";
  }
  os << "},\n";

  // --- adaptive escalation controller.
  os << "  " << jkey("controller") << ": {";
  {
    const bool active =
        in.attribution != nullptr && in.attribution->controller_active;
    os << "\n    " << jkey("active") << ": " << (active ? "true" : "false");
    if (active) {
      const EscalationController::Snapshot& c = in.attribution->controller;
      os << ",\n    " << jkey("escalations") << ": " << c.escalations
         << ",\n    " << jkey("refutes") << ": " << c.refutes << ",\n    "
         << jkey("vetoes") << ": " << c.vetoes << ",\n    "
         << jkey("windows") << ": " << c.windows << ",\n    "
         << jkey("disables") << ": " << c.disables << ",\n    "
         << jkey("payoff") << ": " << num(c.payoff) << ",\n    "
         << jkey("enabled") << ": " << (c.enabled ? "true" : "false");
    }
    os << "\n  ";
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
         << util::json_quote(in.netlist->net(r.source).name) << ", "
         << jkey("vector_trials") << ": " << r.vector_trials << ", "
         << jkey("backtracks") << ": " << r.backtracks << ", "
         << jkey("paths_recorded") << ": " << r.paths_recorded << ", "
         << jkey("justify_limited") << ": " << r.justify_limited << ", "
         << jkey("seconds") << ": " << num(r.seconds) << "}";
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
         << jkey("cost") << ": " << gate_cost(g) << ", "
         << jkey("vector_trials") << ": " << g.vector_trials << ", "
         << jkey("cache_prunes") << ": " << g.cache_prunes << ", "
         << jkey("solver_escalations") << ": " << g.solver_escalations
         << ", " << jkey("escalation_backtracks") << ": "
         << g.escalation_backtracks << "}";
      sep = ",";
    }
    if (*sep != '\0') os << "\n    ";
  }
  os << "]\n  },\n";

  // --- per-worker phase timeline (metrics lanes + trace span counts).
  os << "  " << jkey("workers") << ": [";
  {
    const std::vector<WorkerRow> rows = worker_rows(in);
    const char* sep = "";
    // busy_fraction divides by the run's wall clock: it answers "was this
    // worker starved", which is the figure the steal scheduler exists to
    // move toward 1.0 on skewed circuits.
    const double wall =
        in.stats != nullptr ? in.stats->cpu_seconds : 0.0;
    for (const WorkerRow& r : rows) {
      os << sep << "\n    {" << jkey("lane") << ": " << r.lane << ", "
         << jkey("sources") << ": " << r.sources << ", "
         << jkey("busy_seconds") << ": " << num(r.busy_seconds) << ", "
         << jkey("busy_fraction") << ": "
         << num(wall > 0.0 ? r.busy_seconds / wall : 0.0) << ", "
         << jkey("spans") << ": " << r.spans << "}";
      sep = ",";
    }
    if (!rows.empty()) os << "\n  ";
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
         << num(in.options != nullptr ? in.options->watchdog_seconds : -1.0);
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

    os << "  hot gates (by attributed cost = trials + prunes + "
          "escalation backtracks):\n";
    for (const SearchAttribution::GateCost& g :
         top_gates(*in.attribution, std::min(in.top_k_gates, 8))) {
      os << "    " << in.netlist->instance(g.inst).name << ": cost "
         << gate_cost(g) << " (" << g.vector_trials << " trials, "
         << g.cache_prunes << " prunes, " << g.solver_escalations
         << " escalations)\n";
    }
  }

  if (in.stats != nullptr) {
    const PathFinderStats& s = *in.stats;
    const long probes = s.cache_hits + s.cache_misses;
    os << "  cache: " << s.cache_hits << "/" << probes << " probes hit, "
       << s.cache_prunes << " prunes, " << s.negative_hits
       << " negative hits, " << s.subset_hits << " subset hits\n";
    os << "  tiers: " << s.implication_refutes << " implication refutes, "
       << s.solver_escalations << " solver escalations ("
       << s.escalation_refutes << " refuting, payoff "
       << util::format_fixed(
              live_ratio(s.escalation_refutes, s.solver_escalations), 3)
       << ")";
    if (s.escalations_vetoed > 0) {
      os << ", " << s.escalations_vetoed << " vetoed";
    }
    os << "\n";
  }

  if (in.attribution != nullptr && in.attribution->controller_active) {
    const EscalationController::Snapshot& c = in.attribution->controller;
    os << "  controller: " << (c.enabled ? "enabled" : "DISABLED")
       << ", payoff " << util::format_fixed(c.payoff, 3) << " over "
       << c.windows << " windows, " << c.vetoes << " vetoes, " << c.disables
       << " disables\n";
  }
  return os.str();
}

std::vector<std::string> selfcheck_run(const RunReportInputs& in) {
  std::vector<std::string> violations;
  const auto eq = [&violations](const char* name, long got, long want) {
    if (got != want) {
      violations.push_back(std::string(name) + ": got " +
                           std::to_string(got) + " want " +
                           std::to_string(want));
    }
  };
  const auto le = [&violations](const char* name, long lhs, long rhs) {
    if (lhs > rhs) {
      violations.push_back(std::string(name) + ": " + std::to_string(lhs) +
                           " exceeds bound " + std::to_string(rhs));
    }
  };
  if (in.stats == nullptr) return violations;
  const PathFinderStats& s = *in.stats;

  // Internal stats invariants (always checkable).
  le("courses <= paths_recorded", s.courses, s.paths_recorded);
  le("multi_vector_courses <= courses", s.multi_vector_courses, s.courses);
  le("negative_hits <= cache_hits", s.negative_hits, s.cache_hits);
  le("subset_hits <= cache_hits", s.subset_hits, s.cache_hits);
  le("escalation_refutes <= solver_escalations", s.escalation_refutes,
     s.solver_escalations);
  // Every miss is accounted for by exactly one insert outcome.
  eq("cache_misses == inserts + insert_races + full_drops", s.cache_misses,
     s.cache_inserts + s.cache_insert_races + s.cache_full_drops);
  // A stolen task is one some worker spawned; the source scheduler spawns
  // no tasks at all.
  le("tasks_stolen <= tasks_spawned", s.tasks_stolen, s.tasks_spawned);
  if (in.options != nullptr &&
      in.options->schedule == ScheduleMode::kSource) {
    eq("tasks_spawned (source schedule)", s.tasks_spawned, 0);
    eq("tasks_stolen (source schedule)", s.tasks_stolen, 0);
    eq("steal_failures (source schedule)", s.steal_failures, 0);
  }
  if (in.options != nullptr &&
      in.options->justify_tier != JustifyTier::kAdaptive) {
    eq("escalations_vetoed (non-adaptive tier)", s.escalations_vetoed, 0);
  }

  // Attribution rows vs aggregates: every cost unit is charged to exactly
  // one source and (for trials/prunes/escalations) exactly one gate.
  if (in.attribution != nullptr) {
    long src_trials = 0, src_backtracks = 0, src_paths = 0, src_limited = 0;
    for (const SearchAttribution::SourceCost& r : in.attribution->sources) {
      if (r.source == netlist::kNoId) continue;
      src_trials += r.vector_trials;
      src_backtracks += r.backtracks;
      src_paths += r.paths_recorded;
      src_limited += r.justify_limited;
    }
    eq("sum(sources.vector_trials) == vector_trials", src_trials,
       s.vector_trials);
    eq("sum(sources.backtracks) == backtracks", src_backtracks,
       s.backtracks);
    eq("sum(sources.paths_recorded) == paths_recorded", src_paths,
       s.paths_recorded);
    eq("sum(sources.justify_limited) == justify_limited", src_limited,
       s.justify_limited);

    long gate_trials = 0, gate_prunes = 0, gate_escalations = 0;
    for (const SearchAttribution::GateCost& g : in.attribution->gates) {
      gate_trials += g.vector_trials;
      gate_prunes += g.cache_prunes;
      gate_escalations += g.solver_escalations;
    }
    eq("sum(gates.vector_trials) == vector_trials", gate_trials,
       s.vector_trials);
    eq("sum(gates.cache_prunes) == cache_prunes", gate_prunes,
       s.cache_prunes);
    eq("sum(gates.solver_escalations) == solver_escalations",
       gate_escalations, s.solver_escalations);
  }

  // Per-source metrics vs aggregates (the metrics layer's own view).
  if (in.metrics != nullptr) {
    const std::string prefix = "pathfinder.source.";
    long m_trials = 0, m_backtracks = 0, m_paths = 0, m_limited = 0;
    bool any = false;
    for (const auto& [name, value] : in.metrics->counters) {
      if (name.rfind(prefix, 0) != 0) continue;
      any = true;
      if (name.ends_with(".vector_trials")) m_trials += value;
      if (name.ends_with(".backtracks")) m_backtracks += value;
      if (name.ends_with(".paths_recorded")) m_paths += value;
      if (name.ends_with(".justify_limited")) m_limited += value;
    }
    if (any) {
      eq("sum(metrics source vector_trials) == vector_trials", m_trials,
         s.vector_trials);
      eq("sum(metrics source backtracks) == backtracks", m_backtracks,
         s.backtracks);
      eq("sum(metrics source paths_recorded) == paths_recorded", m_paths,
         s.paths_recorded);
      eq("sum(metrics source justify_limited) == justify_limited",
         m_limited, s.justify_limited);
    }
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
    eq("sum(recorder lane trials) == vector_trials", rec_trials,
       s.vector_trials);
    eq("sum(recorder lane paths) == paths_recorded", rec_paths,
       s.paths_recorded);
  }
  return violations;
}

}  // namespace sasta::sta
