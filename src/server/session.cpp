#include "server/session.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "server/protocol.h"
#include "sta/delaycalc.h"
#include "sta/eco.h"
#include "sta/pathfinder.h"
#include "sta/report.h"
#include "sta/run_report.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace sasta::server {

Session::Session(std::string circuit, netlist::Netlist nl,
                 std::shared_ptr<const charlib::CharLibrary> charlib,
                 const cell::Library* library, const tech::Technology* tech,
                 Config cfg)
    : circuit_(std::move(circuit)),
      nl_(std::move(nl)),
      ctx_(nl_),
      charlib_(std::move(charlib)),
      library_(library),
      tech_(tech),
      cfg_(std::move(cfg)),
      delay_opt_(cfg_.tool.delay) {
  // Full per-source enumeration is the warm-cache contract (see header).
  cfg_.tool.finder.n_worst = -1;
  cfg_.tool.finder.max_paths = -1;
  // The source universe mirrors PathFinder::run's: reach-filtered PIs in
  // PI order.  ECO edits never change connectivity, so it is stable for
  // the session's lifetime.
  for (netlist::NetId pi : nl_.primary_inputs()) {
    if (!ctx_.reach()[pi]) continue;
    source_index_.emplace(pi, sources_.size());
    sources_.emplace_back();
    sources_.back().source = pi;
  }
  for (netlist::InstId i = 0; i < nl_.num_instances(); ++i) {
    inst_by_name_.emplace(nl_.instance(i).name, i);
  }
}

Session::AnalyzeOutcome Session::analyze(const AnalyzeRequest& req) {
  return analyze(req, util::Stopwatch());
}

Session::AnalyzeOutcome Session::analyze(const AnalyzeRequest& req,
                                         const util::Stopwatch& watch) {
  AnalyzeOutcome out;
  if (req.force_cold) {
    for (SourceState& s : sources_) {
      s.paths_valid = false;
      s.timed_valid = false;
    }
  }
  out.sources_total = sources_.size();

  sta::PathFinderOptions fopt = cfg_.tool.finder;
  // Results never depend on the thread count, and the helper pool never
  // shrinks: a request gets at most one worker per hardware thread.
  if (req.threads > 0) {
    fopt.num_threads = static_cast<int>(std::min<unsigned>(
        static_cast<unsigned>(req.threads),
        util::ThreadPool::hardware_threads()));
  }
  if (req.max_seconds > 0) fopt.max_seconds = req.max_seconds;
  util::MetricsRegistry metrics;
  sta::SearchAttribution attribution;
  fopt.metrics = &metrics;
  fopt.attribution = &attribution;

  std::vector<std::size_t> dirty;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (!sources_[i].paths_valid) dirty.push_back(i);
  }

  // Stage boundaries on the request clock, recorded as the
  // session.*_seconds gauges below.
  const double prepared_at = watch.elapsed_seconds();
  sta::PathFinderStats stats{};
  if (!dirty.empty()) {
    std::vector<bool> wanted(nl_.num_nets(), false);
    for (const std::size_t i : dirty) {
      wanted[sources_[i].source] = true;
      sources_[i].true_paths.clear();
      sources_[i].timed.clear();
      sources_[i].timed_valid = false;
    }
    fopt.source_filter = [&wanted](netlist::NetId s) { return wanted[s]; };
    sta::PathFinder finder(ctx_, *charlib_, fopt);
    stats = finder.run([this](const sta::TruePath& p) {
      sources_[source_index_.at(p.source)].true_paths.push_back(p);
    });
    if (!stats.truncated) {
      // A complete filtered run makes every dirty source's enumeration the
      // full one; a truncated run leaves them dirty so the next request
      // re-searches instead of serving a partial cache.
      for (const std::size_t i : dirty) sources_[i].paths_valid = true;
    }
    out.sources_searched = dirty.size();
  }
  out.truncated = stats.truncated;
  out.sources_reused = out.sources_total - out.sources_searched;

  const double searched_at = watch.elapsed_seconds();

  // Re-time stale sources from their cached enumerations.
  const sta::DelayCalculator calc(nl_, *charlib_, *tech_, delay_opt_);
  for (SourceState& s : sources_) {
    if (s.timed_valid) continue;
    s.timed.clear();
    s.timed.reserve(s.true_paths.size());
    for (const sta::TruePath& p : s.true_paths) {
      s.timed.push_back(calc.compute(p));
    }
    // Timing over a partial (truncated) enumeration serves this response
    // but is never cached as valid.
    s.timed_valid = s.paths_valid;
    ++out.sources_retimed;
  }

  const double retimed_at = watch.elapsed_seconds();

  // Merge: per-source buffers in source order replay the exact delivery
  // sequence batch StaTool::run sees, through the same selection.  It
  // borrows the cached paths: sources_ outlives finish().
  sta::PathSelection selection(req.paths, req.fastest);
  for (const SourceState& s : sources_) {
    for (const sta::TimedPath& tp : s.timed) selection.add(tp);
  }
  selection.finish(out.result.paths, out.result.fastest);
  out.result.stats = stats;
  const double merged_at = watch.elapsed_seconds();

  if (req.want_report && !out.result.paths.empty()) {
    out.report_text =
        sta::format_path(nl_, *charlib_, out.result.critical());
    const sta::TimingReport rep =
        sta::build_timing_report(nl_, out.result, req.required_ns * 1e-9);
    out.report_text += "\n" + sta::format_timing_report(nl_, rep);
  }

  const double rendered_at = watch.elapsed_seconds();

  const std::pair<const char*, double> stages[] = {
      {"session.prepare_seconds", prepared_at},
      {"session.search_seconds", searched_at - prepared_at},
      {"session.retime_seconds", retimed_at - searched_at},
      {"session.merge_seconds", merged_at - retimed_at},
      {"session.render_seconds", rendered_at - merged_at},
  };
  for (const auto& [name, seconds] : stages) {
    metrics.set(metrics.gauge(name), seconds);
  }

  const util::MetricsSnapshot snapshot = metrics.snapshot();
  sta::RunReportInputs report_in;
  report_in.circuit = circuit_;
  report_in.netlist = &nl_;
  report_in.options = &fopt;
  report_in.stats = &stats;
  report_in.metrics = &snapshot;
  report_in.attribution = dirty.empty() ? nullptr : &attribution;
  report_in.flight = fopt.flight;
  std::ostringstream report_os;
  sta::write_run_report(report_in, report_os);
  out.run_report_json = report_os.str();

  out.seconds = watch.elapsed_seconds();
  return out;
}

Session::EcoOutcome Session::apply_eco(const EcoRequest& req) {
  const util::Stopwatch watch;
  EcoOutcome out;
  if (req.op == kEcoRetargetCorner) {
    if (req.has_temp) delay_opt_.temperature_c = req.temp_c;
    if (req.has_vdd) delay_opt_.vdd = req.vdd;
    // The search never reads the corner: every cached enumeration stays
    // valid, every source re-times.
    for (SourceState& s : sources_) s.timed_valid = false;
    out.dirty_sources = sources_.size();
    out.affected_instances = static_cast<std::size_t>(nl_.num_instances());
    out.analyze = analyze(req.analyze, watch);
    return out;
  }

  const auto inst_it = inst_by_name_.find(req.instance);
  if (inst_it == inst_by_name_.end()) {
    throw SessionError{kErrNoInstance,
                       "no instance named '" + req.instance + "'"};
  }
  const netlist::InstId target = inst_it->second;
  const netlist::InstId touched[] = {target};

  if (req.op == kEcoSwapGate) {
    const cell::Cell* cell = library_->find(req.cell);
    if (cell == nullptr) {
      throw SessionError{kErrNoCell, "no library cell named '" + req.cell +
                                         "' (swap_gate keeps pin count)"};
    }
    const netlist::Instance& inst = nl_.instance(target);
    if (cell->num_inputs() != static_cast<int>(inst.inputs.size())) {
      throw SessionError{
          kErrPinMismatch,
          "swap_gate pin-count mismatch: " + req.instance + " has " +
              std::to_string(inst.inputs.size()) + " inputs, cell " +
              req.cell + " wants " + std::to_string(cell->num_inputs())};
    }
    out.function_changed = !(inst.cell->function() == cell->function());
    nl_.replace_cell(target, cell);
    ctx_.replace_cell(target, cell);
    const sta::EcoImpact impact = sta::compute_eco_impact(nl_, touched);
    for (const netlist::NetId src : impact.dirty_sources) {
      SourceState& s = sources_[source_index_.at(src)];
      s.paths_valid = false;
      s.timed_valid = false;
    }
    out.dirty_sources = impact.dirty_sources.size();
    out.affected_instances = impact.affected_instances;
  } else if (req.op == kEcoResizeCell) {
    if (!(req.scale > 0.0)) {
      throw SessionError{kErrBadParams, "resize_cell scale must be > 0"};
    }
    nl_.set_drive_scale(target, req.scale);
    const sta::EcoImpact impact = sta::compute_eco_impact(nl_, touched);
    // Logic is untouched: enumerations all stay valid, only the dirty
    // cones' timing moves.
    for (const netlist::NetId src : impact.dirty_sources) {
      sources_[source_index_.at(src)].timed_valid = false;
    }
    out.dirty_sources = impact.dirty_sources.size();
    out.affected_instances = impact.affected_instances;
  } else {
    throw SessionError{kErrBadParams, "unknown eco op '" + req.op + "'"};
  }

  out.analyze = analyze(req.analyze, watch);
  return out;
}

}  // namespace sasta::server
