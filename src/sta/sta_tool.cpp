#include "sta/sta_tool.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace sasta::sta {

const TimedPath& StaResult::critical() const {
  SASTA_CHECK(!paths.empty()) << " no true paths were found";
  return paths.front();
}

const TimedPath& StaResult::shortest() const {
  SASTA_CHECK(!fastest.empty())
      << " no fast paths retained (set StaToolOptions::keep_fastest)";
  return fastest.front();
}

StaTool::StaTool(const netlist::Netlist& nl,
                 const charlib::CharLibrary& charlib,
                 const tech::Technology& tech, const StaToolOptions& options)
    : nl_(nl),
      charlib_(charlib),
      opt_(options),
      calc_(nl, charlib, tech, options.delay) {}

PathSelection::PathSelection(long keep_worst, long keep_fastest)
    : keep_worst_(keep_worst), keep_fastest_(keep_fastest) {}

void PathSelection::add(const TimedPath& timed) { insert({&timed, -1}); }

void PathSelection::add(TimedPath&& timed) {
  int slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<int>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.path = std::move(timed);
  s.refs = 1;
  const Handle h{&s.path, slot};
  insert(h);
  release(h);
}

void PathSelection::retain(Handle h) {
  if (h.slot >= 0) ++slots_[h.slot].refs;
}

void PathSelection::release(Handle h) {
  if (h.slot >= 0 && --slots_[h.slot].refs == 0) free_slots_.push_back(h.slot);
}

void PathSelection::insert(Handle h) {
  if (keep_fastest_ > 0) {
    if (static_cast<long>(fastest_.size()) < keep_fastest_) {
      fastest_.push_back(h);
      retain(h);
      std::push_heap(fastest_.begin(), fastest_.end(), faster);
    } else if (h.path->delay < fastest_.front().path->delay) {
      std::pop_heap(fastest_.begin(), fastest_.end(), faster);
      release(fastest_.back());
      fastest_.back() = h;
      retain(h);
      std::push_heap(fastest_.begin(), fastest_.end(), faster);
    }
  }
  paths_.push_back(h);
  retain(h);
  if (keep_worst_ < 0) return;
  // Push, then evict the best of keep_worst + 1: the heap never holds more
  // than keep_worst paths between calls.
  std::push_heap(paths_.begin(), paths_.end(), slower);
  if (static_cast<long>(paths_.size()) > keep_worst_) {
    std::pop_heap(paths_.begin(), paths_.end(), slower);
    release(paths_.back());
    paths_.pop_back();
  }
}

TimedPath PathSelection::take(Handle h) {
  if (h.slot < 0) return *h.path;
  Slot& s = slots_[h.slot];
  if (--s.refs == 0) return std::move(s.path);
  return s.path;
}

void PathSelection::finish(std::vector<TimedPath>& paths,
                           std::vector<TimedPath>& fastest) {
  // Stable sorts keep equal-delay paths in the order the selection holds
  // them: delivery order when every path is kept, heap order when a bounded
  // heap retained them.  Both are functions of the delivery sequence alone,
  // which the finder fixes to the sequential source-then-discovery order
  // for every thread count — so the reported lists are deterministic even
  // under ties.
  std::stable_sort(paths_.begin(), paths_.end(), slower);
  std::stable_sort(fastest_.begin(), fastest_.end(), faster);
  paths.clear();
  paths.reserve(paths_.size());
  for (const Handle& h : paths_) paths.push_back(take(h));
  fastest.clear();
  fastest.reserve(fastest_.size());
  for (const Handle& h : fastest_) fastest.push_back(take(h));
}

StaResult StaTool::run() {
  StaResult result;
  util::TraceSpan run_span(opt_.finder.trace, "sta/run", 0);
  // Delay-calculation observability: timing accumulates in plain locals
  // because the sink is always invoked from this thread.
  util::MetricsRegistry* const metrics = opt_.finder.metrics;
  double delaycalc_seconds = 0.0;
  long paths_timed = 0;
  PathFinder finder(nl_, charlib_, opt_.finder);
  if (opt_.finder.n_worst > 0) finder.enable_n_worst_pruning(calc_);

  PathSelection selection(opt_.keep_worst, opt_.keep_fastest);
  result.stats = finder.run([&](const TruePath& p) {
    TimedPath timed;
    if (metrics != nullptr) {
      util::Stopwatch timed_watch;
      timed = calc_.compute(p);
      delaycalc_seconds += timed_watch.elapsed_seconds();
      ++paths_timed;
    } else {
      timed = calc_.compute(p);
    }
    selection.add(std::move(timed));
  });
  if (metrics != nullptr) {
    metrics->add(metrics->counter("delaycalc.paths_timed"), paths_timed);
    metrics->add(metrics->gauge("delaycalc.seconds"), delaycalc_seconds);
  }
  util::TraceSpan sort_span(opt_.finder.trace, "sta/sort", 0);
  selection.finish(result.paths, result.fastest);
  return result;
}

}  // namespace sasta::sta
