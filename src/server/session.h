// Serve-mode session: one loaded design held resident with warm caches.
//
// A session owns the mapped netlist, a borrowed characterized library and
// a per-source result cache: the complete true-path enumeration and its
// timing for every source PI.
// Against that state, a request is answered in three strictly separated
// stages —
//
//   search   re-enumerate true paths, but only for *dirty* sources (cold
//            start: all of them; warm repeat: none; after an ECO: the
//            cones sta::compute_eco_impact dirties).  Runs the unchanged
//            PathFinder (either schedule) restricted via
//            PathFinderOptions::source_filter.
//   re-time  recompute TimedPaths for sources whose timing is stale
//            (delay options or drive scales moved) from cached TruePaths.
//   merge    replay every per-source buffer, in source-PI order, through
//            sta::PathSelection — the exact streaming selection batch
//            StaTool::run applies to the same delivery sequence.
//
// Bit-identity: per-source enumerations are independent and
// order-deterministic, the merge order equals the finder's canonical
// source order, and selection is shared code — so a warm (or
// ECO-incremental) response carries byte-for-byte the paths, delays and
// report text of a cold full recompute.  The enforced preconditions:
// n_worst stays off (full per-source enumeration; ranking is merge-time,
// so a warm request may change `paths`/`fastest` freely) and a truncated
// search never marks its sources' caches valid.
//
// ECO semantics (docs/SERVER.md):
//   swap_gate        replace a cell, same pin count.  Dirty cones re-search
//                    + re-time.
//   resize_cell      per-instance drive scale.  Logic is untouched, so NO
//                    re-search — dirty cones only re-time their cached
//                    paths.
//   retarget_corner  new temperature/vdd.  Every source re-times; nothing
//                    is re-searched (the search never reads the corner).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cell/cell.h"
#include "charlib/charlibrary.h"
#include "netlist/netlist.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"

namespace sasta::server {

/// Typed failure for the dispatcher to map onto a protocol error code
/// (the codes in server/protocol.h).
struct SessionError {
  std::string code;
  std::string message;
};

class Session {
 public:
  struct Config {
    /// Search and delay defaults.  finder.n_worst and finder.max_paths are
    /// forced off (see file comment); keep_worst/keep_fastest are taken
    /// from each request instead.
    sta::StaToolOptions tool;
  };

  struct AnalyzeRequest {
    long paths = 10;          ///< N worst to report (<0: all)
    long fastest = 0;         ///< N fastest (hold side) to report
    double required_ns = 0.0; ///< slack constraint for the endpoint table
    bool want_report = true;  ///< render the report_timing-style text
    bool force_cold = false;  ///< drop all warm state first (full recompute)
    int threads = 0;          ///< > 0 overrides the session default
    double max_seconds = 0.0; ///< > 0 overrides the session default
  };

  struct AnalyzeOutcome {
    sta::StaResult result;
    /// format_path(critical) + "\n" + format_timing_report — the same
    /// renderings the batch CLI --report prints.  Empty when want_report
    /// is off or no path exists.
    std::string report_text;
    std::string run_report_json;  ///< sasta-run-report-v1 for this request
    std::size_t sources_total = 0;
    std::size_t sources_searched = 0;  ///< dirty: re-enumerated this request
    std::size_t sources_reused = 0;    ///< warm: answered from cache
    std::size_t sources_retimed = 0;   ///< timing recomputed (>= searched)
    bool truncated = false;
    double seconds = 0.0;
  };

  struct EcoRequest {
    std::string op;        ///< kEcoSwapGate / kEcoResizeCell / kEcoRetargetCorner
    std::string instance;  ///< swap/resize target (instance name)
    std::string cell;      ///< swap replacement cell name
    double scale = 1.0;    ///< resize drive scale (> 0)
    bool has_temp = false;
    double temp_c = 0.0;
    bool has_vdd = false;
    double vdd = 0.0;
    AnalyzeRequest analyze;  ///< the re-analysis to run after the edit
  };

  struct EcoOutcome {
    AnalyzeOutcome analyze;
    std::size_t dirty_sources = 0;
    std::size_t affected_instances = 0;
    bool function_changed = false;  ///< swap_gate: logic actually moved
  };

  /// `charlib` is shared with the server's library cache; `library` and
  /// `tech` are borrowed and must outlive the session.
  Session(std::string circuit, netlist::Netlist nl,
          std::shared_ptr<const charlib::CharLibrary> charlib,
          const cell::Library* library, const tech::Technology* tech,
          Config cfg);

  /// Runs (or answers from cache) one analysis.  Throws SessionError.
  AnalyzeOutcome analyze(const AnalyzeRequest& req);

  /// Applies one ECO edit and re-analyzes incrementally.  Throws
  /// SessionError (the netlist is untouched on error).
  EcoOutcome apply_eco(const EcoRequest& req);

  const std::string& circuit() const { return circuit_; }
  const netlist::Netlist& netlist() const { return nl_; }
  std::size_t num_sources() const { return sources_.size(); }

 private:
  struct SourceState {
    netlist::NetId source = netlist::kNoId;
    bool paths_valid = false;  ///< true_paths is the complete enumeration
    bool timed_valid = false;  ///< timed matches the current corner/scales
    std::vector<sta::TruePath> true_paths;
    std::vector<sta::TimedPath> timed;
  };

  std::string circuit_;
  netlist::Netlist nl_;
  std::shared_ptr<const charlib::CharLibrary> charlib_;
  const cell::Library* library_;
  const tech::Technology* tech_;
  Config cfg_;
  sta::DelayCalcOptions delay_opt_;  ///< live corner (retarget_corner moves it)
  std::vector<SourceState> sources_;  ///< reach-filtered PIs, in PI order
  std::unordered_map<netlist::NetId, std::size_t> source_index_;
  std::unordered_map<std::string, netlist::InstId> inst_by_name_;
};

}  // namespace sasta::server
