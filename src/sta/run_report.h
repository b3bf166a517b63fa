// Structured run report (--report-json) and the --profile terminal
// summary.
//
// The report is the one machine-readable artifact that merges everything
// the observability layer knows about a run: the aggregate
// PathFinderStats, the metrics snapshot, the search-cost attribution
// tables (per-source rows, top-K hot gates) and the per-worker table
// folded from the per-source rows.  Its schema is versioned
// ("sasta-run-report-v1") and documented in docs/METRICS.md ("Run report
// schema"); tools/check_docs_sync greps the jkey() call sites in
// run_report.cpp to hold the docs to the emitted key set.
//
// Rendering is deterministic for fixed inputs: keys are emitted in fixed
// order, doubles go through util::json_number, and the hot-gate table has
// a total order (vector trials descending, instance id ascending).
#pragma once

#include <ostream>
#include <string>

#include "netlist/netlist.h"
#include "sta/path.h"
#include "sta/pathfinder.h"
#include "util/metrics.h"

namespace sasta::sta {

/// Everything the report renders.  Every pointer is optional and
/// borrowed: a null section renders as an empty object/array, so the
/// schema's key set is fixed regardless of which sinks were enabled.
struct RunReportInputs {
  std::string circuit;
  const netlist::Netlist* netlist = nullptr;      ///< names for ids
  const PathFinderOptions* options = nullptr;     ///< echoed into "options"
  const PathFinderStats* stats = nullptr;         ///< "totals"
  const util::MetricsSnapshot* metrics = nullptr; ///< "metrics"
  const SearchAttribution* attribution = nullptr; ///< "attribution" + "workers"
  const util::FlightRecorder* flight = nullptr;   ///< "recorder" summary
  /// Hot-gate table size: the K gates with the most vector trials.
  int top_k_gates = 16;
};

/// Writes the versioned run-report JSON.
void write_run_report(const RunReportInputs& in, std::ostream& os);

/// Counter-reconciliation pass (--selfcheck): cross-checks every redundant
/// view of the run — attribution source rows and gate rows vs aggregate
/// stats, recorder activity slots vs stats, and the internal stats
/// invariants (course arithmetic).  Returns one human-readable
/// "name: got X want Y" line per violation; an empty vector means every
/// available view reconciles.  Sections whose inputs are null are skipped,
/// never failed.
std::vector<std::string> selfcheck_run(const RunReportInputs& in);

/// Renders the --profile summary: top sources by seconds and hot gates by
/// vector trials.
std::string format_profile_summary(const RunReportInputs& in);

}  // namespace sasta::sta
