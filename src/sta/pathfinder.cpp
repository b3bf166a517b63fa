#include "sta/pathfinder.h"

#include <algorithm>
#include <condition_variable>
#include <unordered_map>

#include "util/check.h"
#include "util/thread_pool.h"

namespace sasta::sta {

using logicsys::NineVal;

/// Everything one source-DFS mutates.  One instance per worker thread,
/// constructed on that thread (first-touch locality for the assignment
/// trail); reused across all sources the worker pulls.
struct PathFinder::Worker {
  explicit Worker(PathFinder& owner)
      : pf(owner),
        state(owner.nl_.num_nets()),
        engine(owner.ctx_.view(), state),
        justifier(owner.nl_, state, engine,
                  owner.opt_.use_scoap_guide ? &owner.ctx_.guide() : nullptr) {
    // A long solve must not outlive the run's deadline or a SIGINT: the
    // justifier polls the same stop authority as the DFS.
    justifier.set_stop_check([this] {
      return pf.stop_.load(std::memory_order_relaxed) ||
             pf.deadline_hit(*this);
    });
  }
  // The justifier's stop check holds this worker's address.
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Lazily arms the per-gate attribution tallies (no-op when the caller
  /// did not request attribution, so the hot path stays a .empty() test).
  void arm_attribution(std::size_t num_instances) {
    gate_trials.assign(num_instances, 0);
  }

  PathFinder& pf;
  AssignmentState state;
  ImplicationEngine engine;
  Justifier justifier;
  std::vector<PathStep> steps;
  /// Steady side-value requirements accumulated along the current DFS
  /// prefix; re-solved jointly (per direction) at every extension.
  std::vector<Goal> goal_stack;
  /// Per-DFS-depth (R, F) arrival tuples, parallel to steps (N-worst mode).
  std::vector<std::array<Arrival, 2>> arrival_stack;
  netlist::NetId current_source = netlist::kNoId;
  PathFinderStats stats;
  /// Course census of the sources this worker searched.  Course keys are
  /// source-prefixed and a source never spans workers, so the per-worker
  /// tallies sum to the sequential census.
  std::unordered_map<std::string, int> course_counts;
  /// Per-source output buffer when several workers run.  Null when the
  /// single worker runs alone, where paths stream straight to the sink.
  std::vector<TruePath>* out = nullptr;
  /// Flight-recorder lane `tid` (null = recorder off).  Written on the hot
  /// path with relaxed stores only; see attach_recorder().
  util::FlightLane* rec = nullptr;
  /// This worker's index, which names its trace lane and attribution rows.
  int tid = 0;

  /// Search-cost attribution scratch (empty unless the run requested
  /// attribution): per-instance trial tallies, merged into the caller's
  /// SearchAttribution after the join.
  std::vector<long> gate_trials;
};

namespace {

std::unique_ptr<const SearchContext> prepare_context(
    const netlist::Netlist& nl, util::TraceCollector* trace) {
  util::TraceSpan span(trace, "pathfinder/prepare", 0);
  return std::make_unique<const SearchContext>(nl);
}

}  // namespace

PathFinder::PathFinder(const netlist::Netlist& nl,
                       const charlib::CharLibrary& charlib,
                       const PathFinderOptions& options)
    : owned_ctx_(prepare_context(nl, options.trace)),
      ctx_(*owned_ctx_),
      nl_(nl),
      charlib_(charlib),
      opt_(options) {}

PathFinder::PathFinder(const SearchContext& ctx,
                       const charlib::CharLibrary& charlib,
                       const PathFinderOptions& options)
    : ctx_(ctx), nl_(ctx.netlist()), charlib_(charlib), opt_(options) {}

namespace {

/// Widens the heuristic remaining-delay bound remaining_ub_ (built from
/// pessimistic-slew arc maxima).
constexpr double kBoundSafety = 1.2;

}  // namespace

void PathFinder::enable_n_worst_pruning(const DelayCalculator& calc) {
  prune_calc_ = &calc;
  SASTA_CHECK(opt_.n_worst > 0)
      << " enable_n_worst_pruning requires options.n_worst > 0";

  // Upper bound on the remaining delay from each net to any primary output:
  // reverse-topological max over fanout arcs evaluated at a pessimistic
  // input slew (the bound is heuristic; kBoundSafety widens it).
  const double slew_ub = 8.0 * calc.options().input_slew_s;
  remaining_ub_.assign(nl_.num_nets(), -1.0);
  for (netlist::NetId po : nl_.primary_outputs()) remaining_ub_[po] = 0.0;
  const std::vector<netlist::InstId>& topo = ctx_.topo_order();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const netlist::Instance& inst = nl_.instance(*it);
    if (remaining_ub_[inst.output] < 0.0 && !ctx_.reach()[inst.output]) {
      continue;
    }
    const charlib::CellTiming& ct = charlib_.timing(inst.cell->name());
    const double fo = calc.equivalent_fanout(*it, inst.output);
    // Max arc delay into this instance over pins, vectors and edges.
    for (int p = 0; p < inst.cell->num_inputs(); ++p) {
      double arc_ub = 0.0;
      for (int v = 0; v < ct.num_vectors(p); ++v) {
        for (const spice::Edge e : {spice::Edge::kRise, spice::Edge::kFall}) {
          const charlib::ModelPoint pt{fo, slew_ub,
                                       calc.options().temperature_c,
                                       calc.options().vdd};
          arc_ub = std::max(arc_ub, ct.arc(p, v, e).delay(pt));
        }
      }
      const double through =
          std::max(remaining_ub_[inst.output], 0.0) + arc_ub;
      double& slot = remaining_ub_[inst.inputs[p]];
      slot = std::max(slot, through);
    }
  }
  for (double& ub : remaining_ub_) {
    if (ub > 0.0) ub *= kBoundSafety;
  }
}

void PathFinder::note_recorded_delay(double delay) {
  std::lock_guard<std::mutex> lk(heap_mu_);
  worst_heap_.push_back(delay);
  std::push_heap(worst_heap_.begin(), worst_heap_.end(), std::greater<>());
  if (static_cast<long>(worst_heap_.size()) > opt_.n_worst) {
    std::pop_heap(worst_heap_.begin(), worst_heap_.end(), std::greater<>());
    worst_heap_.pop_back();
  }
  if (static_cast<long>(worst_heap_.size()) >= opt_.n_worst) {
    prune_floor_.store(worst_heap_.front(), std::memory_order_relaxed);
  }
}

void PathFinder::attach_recorder(Worker& w) {
  if (opt_.flight == nullptr ||
      static_cast<unsigned>(w.tid) >= opt_.flight->num_lanes()) {
    return;
  }
  w.rec = &opt_.flight->lane(static_cast<unsigned>(w.tid));
  w.justifier.set_recorder(w.rec);
}

bool PathFinder::deadline_hit(Worker& w) {
  // SIGINT lands here: the cooperative interrupt flag shares the deadline
  // authority so an interrupted run winds down exactly like a timed-out
  // one (truncated stats, partial report written by the caller).
  if (util::interrupt_requested()) {
    w.stats.truncated = true;
    stop_.store(true, std::memory_order_relaxed);
    return true;
  }
  if (deadline_ <= 0) return false;
  if (run_watch_.elapsed_seconds() <= deadline_) return false;
  w.stats.truncated = true;
  stop_.store(true, std::memory_order_relaxed);
  return true;
}

bool PathFinder::claim_record_slot(Worker& w) {
  if (opt_.max_paths < 0) return true;
  long cur = total_recorded_.load(std::memory_order_relaxed);
  do {
    if (cur >= opt_.max_paths) {
      w.stats.truncated = true;
      stop_.store(true, std::memory_order_relaxed);
      return false;
    }
  } while (!total_recorded_.compare_exchange_weak(
      cur, cur + 1, std::memory_order_relaxed));
  return true;
}

void PathFinder::deliver(Worker& w, TruePath&& p) {
  if (w.out != nullptr) {
    w.out->push_back(std::move(p));
  } else if (sink_ != nullptr && *sink_) {
    (*sink_)(p);
  }
}

void PathFinder::record(Worker& w, netlist::NetId sink_net, unsigned alive) {
  for (const unsigned bit : {kScenarioR, kScenarioF}) {
    if (!(alive & bit)) continue;
    // A single record can sit behind an expensive justify_all on a gate
    // with few vectors, so the deadline is polled here too — the 64-trial
    // amortized poll in extend() alone can overshoot max_seconds badly.
    if (stop_.load(std::memory_order_relaxed) || deadline_hit(w)) return;
    // Commit a justification witness for this direction to read off the
    // realizing primary-input assignment, then roll it back.
    const AssignmentState::Mark mark = w.state.mark();
    const Justifier::Result witness = w.justifier.justify_all(
        w.goal_stack, bit, opt_.justify_backtrack_budget);
    if (witness.backtrack_limited) ++w.stats.justify_limited;
    if (!(witness.alive & bit)) {
      // Either the budget fired or an accumulated infeasibility only
      // becomes visible on the joint solve (per-gate checks cover the new
      // goals, not the full conjunction).
      w.state.rollback(mark);
      continue;
    }
    TruePath p;
    p.source = w.current_source;
    p.sink = sink_net;
    p.launch_edge = bit == kScenarioR ? spice::Edge::kRise : spice::Edge::kFall;
    p.steps = w.steps;
    for (netlist::NetId pi : nl_.primary_inputs()) {
      if (pi == w.current_source) continue;
      const NineVal& v = bit == kScenarioR ? w.state.value(pi).r
                                           : w.state.value(pi).f;
      if (v.is_steady()) {
        p.pi_assignment.emplace_back(pi, v.init == logicsys::TriVal::kOne);
      }
    }
    w.state.rollback(mark);
    if (!claim_record_slot(w)) return;
    ++w.stats.paths_recorded;
    if (w.rec != nullptr) {
      w.rec->record(util::FlightEventKind::kPathRecorded,
                    static_cast<std::uint16_t>(bit),
                    static_cast<std::uint32_t>(w.steps.size()),
                    static_cast<std::uint32_t>(sink_net));
      w.rec->note_path_recorded();
    }
    if (opt_.metrics != nullptr) {
      // "Justification depth" of the recorded path: how many accumulated
      // side-value goals the final joint solve had to satisfy.
      opt_.metrics->observe(justify_depth_hist_,
                            static_cast<double>(w.goal_stack.size()));
    }
    const int count = ++w.course_counts[p.course_key(nl_)];
    if (count == 1) ++w.stats.courses;
    if (count == 2) ++w.stats.multi_vector_courses;

    // N-worst bookkeeping: tighten the shared pruning floor with this
    // path's estimated delay.
    if (prune_calc_ != nullptr && opt_.n_worst > 0) {
      note_recorded_delay(
          w.arrival_stack.back()[bit == kScenarioR ? 0 : 1].delay);
    }
    deliver(w, std::move(p));
  }
}

void PathFinder::extend(Worker& w, netlist::NetId net, unsigned alive) {
  if (stop_.load(std::memory_order_relaxed)) return;
  if (w.stats.vector_trials % 64 == 0 && deadline_hit(w)) return;

  if (nl_.net(net).is_primary_output) record(w, net, alive);

  for (const netlist::Fanout& f : nl_.net(net).fanouts) {
    if (stop_.load(std::memory_order_relaxed)) return;
    const netlist::Instance& inst = nl_.instance(f.inst);
    if (!ctx_.reach()[inst.output]) continue;
    const charlib::CellTiming& timing = charlib_.timing(inst.cell->name());
    const auto& vectors = timing.vectors.at(f.pin);
    for (const charlib::SensitizationVector& vec : vectors) {
      if (stop_.load(std::memory_order_relaxed)) return;
      ++w.stats.vector_trials;
      if (!w.gate_trials.empty()) ++w.gate_trials[f.inst];
      if (w.rec != nullptr) {
        w.rec->set_gate(static_cast<std::uint32_t>(f.inst),
                        static_cast<std::uint32_t>(w.steps.size()));
        w.rec->count_trial();
        w.rec->record(util::FlightEventKind::kTrial,
                      static_cast<std::uint16_t>(f.pin),
                      static_cast<std::uint32_t>(f.inst),
                      static_cast<std::uint32_t>(w.steps.size()));
      }
      if (opt_.test_trial_hook) opt_.test_trial_hook(f.inst);
      const AssignmentState::Mark mark = w.state.mark();
      const std::size_t saved_goals = w.goal_stack.size();

      // Assign the vector's steady side values and propagate them in the
      // live directions; the justification itself is NOT committed here
      // (its decisions would over-constrain downstream gates) — the values
      // become goals whose joint satisfiability is established once per
      // complete path when it is recorded.
      unsigned sub = alive;
      bool ok = true;
      std::size_t first_new_goal = w.goal_stack.size();
      for (int q = 0; q < inst.cell->num_inputs() && ok; ++q) {
        if (q == f.pin) continue;
        const auto r =
            w.engine.assign_steady(inst.inputs[q], vec.side_value(q), sub);
        sub &= ~r.conflict;
        if (sub == kScenarioNone) ok = false;
        w.goal_stack.push_back({inst.inputs[q], vec.side_value(q)});
      }

      if (ok) {
        // The implication pass must produce a transition at the gate output
        // for a scenario to stay alive.
        const DualVal& out = w.state.value(inst.output);
        unsigned transiting = kScenarioNone;
        if ((sub & kScenarioR) && out.r.is_transition()) {
          transiting |= kScenarioR;
        }
        if ((sub & kScenarioF) && out.f.is_transition()) {
          transiting |= kScenarioF;
        }

        // Cheap incremental pruning: the NEW side goals of this gate must be
        // justifiable per direction under the accumulated implications
        // (choices rolled back; the full conjunction is re-checked at
        // record time).  When both directions survive implication, one
        // shared dual solve usually certifies both at once — this is where
        // the dual-value system's single-pass saving comes from; only a
        // narrowed result falls back to per-direction solves.
        unsigned feasible = kScenarioNone;
        const std::span<const Goal> new_goals(
            w.goal_stack.data() + first_new_goal,
            w.goal_stack.size() - first_new_goal);
        unsigned pending = transiting;
        if (pending == kScenarioBoth) {
          const AssignmentState::Mark m2 = w.state.mark();
          const Justifier::Result r = w.justifier.justify_all(
              new_goals, kScenarioBoth, opt_.justify_backtrack_budget);
          w.state.rollback(m2);
          if (r.backtrack_limited) ++w.stats.justify_limited;
          if (r.alive == kScenarioBoth) {
            feasible = kScenarioBoth;
            pending = kScenarioNone;
          } else if (r.stopped) {
            pending = kScenarioNone;  // the run is ending: no verdict
          }
          // else: one direction may still be satisfiable under different
          // choices - resolve each bit independently below.
        }
        for (const unsigned bit : {kScenarioR, kScenarioF}) {
          if (!(pending & bit)) continue;
          const AssignmentState::Mark m2 = w.state.mark();
          const Justifier::Result r = w.justifier.justify_all(
              new_goals, bit, opt_.justify_backtrack_budget);
          w.state.rollback(m2);
          if (r.backtrack_limited) ++w.stats.justify_limited;
          if (r.alive & bit) feasible |= bit;
          if (r.stopped) break;
        }

        // N-worst branch-and-bound: advance arrivals through this arc and
        // drop directions whose optimistic completion cannot displace the
        // current N-th worst path.
        std::array<Arrival, 2> next_arrivals{};
        if (prune_calc_ != nullptr && opt_.n_worst > 0 &&
            feasible != kScenarioNone) {
          const double fo =
              prune_calc_->equivalent_fanout(f.inst, inst.output);
          const double floor = prune_floor();
          for (const unsigned bit : {kScenarioR, kScenarioF}) {
            if (!(feasible & bit)) continue;
            const int bi = bit == kScenarioR ? 0 : 1;
            const Arrival& cur = w.arrival_stack.back()[bi];
            const charlib::ArcModel& arc =
                timing.arc(f.pin, vec.id, cur.edge);
            const charlib::ModelPoint pt{fo, cur.slew,
                                         prune_calc_->options().temperature_c,
                                         prune_calc_->options().vdd};
            Arrival next;
            next.delay = cur.delay + arc.delay(pt);
            next.slew = arc.output_slew(pt);
            next.edge = arc.out_edge(cur.edge);
            next_arrivals[bi] = next;
            if (next.delay + std::max(remaining_ub_[inst.output], 0.0) <=
                floor) {
              feasible &= ~bit;  // cannot reach the N-worst set
            }
          }
        }

        if (feasible != kScenarioNone) {
          w.steps.push_back({f.inst, f.pin, vec.id});
          if (prune_calc_ != nullptr && opt_.n_worst > 0) {
            w.arrival_stack.push_back(next_arrivals);
          }
          extend(w, inst.output, feasible);
          if (prune_calc_ != nullptr && opt_.n_worst > 0) {
            w.arrival_stack.pop_back();
          }
          w.steps.pop_back();
        }
      }
      w.state.rollback(mark);
      w.goal_stack.resize(saved_goals);
    }
  }
}

void PathFinder::run_source(Worker& w, std::size_t source_index,
                            netlist::NetId source) {
  const SearchCounters before = w.stats;
  if (w.rec != nullptr) {
    w.rec->set_source(static_cast<std::uint32_t>(source));
    w.rec->record(util::FlightEventKind::kSourceClaim, 0,
                  static_cast<std::uint32_t>(source),
                  static_cast<std::uint32_t>(source_index));
  }
  util::Stopwatch source_watch;
  {
    util::TraceSpan span(
        opt_.trace,
        opt_.trace != nullptr ? "source " + nl_.net(source).name
                              : std::string(),
        w.tid + 1);
    search_source(w, source);
  }
  const double seconds = source_watch.elapsed_seconds();
  // Every counter is charged to the source whose DFS produced it, and a
  // source never spans workers, so this delta is exact.
  SearchCounters delta = w.stats;
  delta -= before;
  if (opt_.attribution != nullptr) {
    // The rows were sized before the pool started, so this write is
    // contention-free.
    SearchAttribution::SourceCost& row = opt_.attribution->sources[source_index];
    static_cast<SearchCounters&>(row) = delta;
    row.source = source;
    row.seconds = seconds;
    row.worker = static_cast<unsigned>(w.tid);
  }
  if (w.rec != nullptr) {
    w.rec->record(util::FlightEventKind::kSourceDone, 0,
                  static_cast<std::uint32_t>(source),
                  static_cast<std::uint32_t>(delta.paths_recorded));
    w.rec->note_source_done();
    w.rec->set_idle();
  }
}

void PathFinder::search_source(Worker& w, netlist::NetId source) {
  w.state.reset();
  w.goal_stack.clear();
  w.steps.clear();
  w.justifier.reset_backtracks();
  w.justifier.set_supports(ctx_.supports(), ctx_.support_words(),
                           ctx_.pi_bit()[source]);
  w.current_source = source;
  if (prune_calc_ != nullptr && opt_.n_worst > 0) {
    w.arrival_stack.clear();
    std::array<Arrival, 2> launch{};
    launch[0] = {0.0, prune_calc_->options().input_slew_s,
                 spice::Edge::kRise};
    launch[1] = {0.0, prune_calc_->options().input_slew_s,
                 spice::Edge::kFall};
    w.arrival_stack.push_back(launch);
  }
  const auto r =
      w.engine.assign_dual(source, NineVal::rise(), NineVal::fall());
  SASTA_CHECK(r.conflict == kScenarioNone)
      << " transition launch conflicted on a fresh state";
  extend(w, source, opt_.directions & kScenarioBoth);
  w.stats.backtracks += w.justifier.backtracks();
}

namespace {

/// Admission to one parallel run for its helper tasks.  A helper enters
/// only while the run is open; the caller closes the run once it has no
/// source left to claim and then waits for the helpers inside.
class HelperGate {
 public:
  bool enter() {
    std::lock_guard<std::mutex> lk(mu_);
    if (!open_) return false;
    ++inside_;
    return true;
  }
  void leave() {
    std::lock_guard<std::mutex> lk(mu_);
    if (--inside_ == 0) idle_.notify_all();
  }
  void close_and_wait() {
    std::unique_lock<std::mutex> lk(mu_);
    open_ = false;
    idle_.wait(lk, [this] { return inside_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable idle_;
  bool open_ = true;
  unsigned inside_ = 0;
};

/// The helper threads of every parallel run in the process, started on
/// first use and grown to the largest worker count asked for, so a run
/// (one per daemon ECO request, say) neither creates nor joins a thread.
util::ThreadPool& search_helpers(unsigned count) {
  static util::ThreadPool pool(count, "sasta-helper");
  pool.grow_to(count);
  return pool;
}

}  // namespace

PathFinderStats PathFinder::run(
    const std::function<void(const TruePath&)>& sink) {
  util::Stopwatch watch;
  run_watch_.reset();
  sink_ = &sink;
  stop_.store(false, std::memory_order_relaxed);
  total_recorded_.store(0, std::memory_order_relaxed);
  prune_floor_.store(-1e30, std::memory_order_relaxed);
  worst_heap_.clear();
  deadline_ = opt_.max_seconds > 0 ? opt_.max_seconds : -1;

  std::vector<netlist::NetId> sources;
  for (netlist::NetId pi : nl_.primary_inputs()) {
    if (!ctx_.reach()[pi]) continue;
    if (opt_.source_filter && !opt_.source_filter(pi)) continue;
    sources.push_back(pi);
  }

  // Workers search whole sources, so more workers than sources could never
  // get work.
  const unsigned n_workers = std::max<unsigned>(
      1, std::min<std::size_t>(util::ThreadPool::resolve(opt_.num_threads),
                               sources.size()));
  // Registered once here so the workers observe through a resolved id.
  if (opt_.metrics != nullptr) {
    justify_depth_hist_ = opt_.metrics->histogram(
        "pathfinder.justify_depth", {1, 2, 4, 8, 16, 32, 64, 128});
  }
  if (opt_.flight != nullptr) opt_.flight->begin_run(sources.size());
  if (opt_.trace != nullptr) {
    // Label the lanes for Perfetto: 0 = orchestrator, 1..N = workers
    // (worker 0 runs on the calling thread, the rest on helper threads).
    opt_.trace->set_thread_name(0, "sasta-main");
    for (unsigned t = 0; t < n_workers; ++t) {
      opt_.trace->set_thread_name(static_cast<int>(t) + 1,
                                  "sasta-w" + std::to_string(t));
    }
  }
  util::TraceSpan run_span(opt_.trace, "pathfinder/run", 0);

  // Search-cost attribution: the per-source rows are pre-sized so workers
  // can write them index-addressed without coordination; the per-gate
  // tallies are worker-private vectors folded in here (integer sums, so
  // the fold order cannot change the result).
  const bool attribution_on = opt_.attribution != nullptr;
  std::vector<long> gate_trials;
  std::mutex gate_merge_mu;
  if (attribution_on) {
    *opt_.attribution = SearchAttribution{};
    opt_.attribution->sources.assign(sources.size(),
                                     SearchAttribution::SourceCost{});
    opt_.attribution->workers = n_workers;
    gate_trials.assign(nl_.num_instances(), 0);
  }

  // The one worker body: claim the next source from the shared index until
  // none is left or the run stops.  On the pool each source records into
  // its own buffer; the buffers are merged in source order after the join,
  // so every thread count delivers the single-worker order exactly.
  std::vector<std::vector<TruePath>> buffers;
  std::vector<PathFinderStats> worker_stats(n_workers);
  std::atomic<std::size_t> next_source{0};
  const auto work = [&](unsigned t) {
    // Claim before building the worker: a helper that arrives after the
    // last claim leaves without allocating anything.
    std::size_t i = next_source.fetch_add(1, std::memory_order_relaxed);
    if (i >= sources.size()) return;
    Worker w(*this);
    w.tid = static_cast<int>(t);
    attach_recorder(w);
    if (attribution_on) w.arm_attribution(nl_.num_instances());
    for (; i < sources.size();
         i = next_source.fetch_add(1, std::memory_order_relaxed)) {
      if (stop_.load(std::memory_order_relaxed) || deadline_hit(w)) break;
      if (n_workers > 1) w.out = &buffers[i];
      run_source(w, i, sources[i]);
    }
    if (attribution_on) {
      std::lock_guard<std::mutex> lk(gate_merge_mu);
      for (std::size_t i = 0; i < gate_trials.size(); ++i) {
        gate_trials[i] += w.gate_trials[i];
      }
    }
    worker_stats[t] = std::move(w.stats);
  };
  if (n_workers == 1) {
    // Inline on the calling thread: paths stream to the sink as found.
    work(0);
  } else {
    // The calling thread is worker 0; workers 1..n-1 are tasks on the
    // process's helper threads.  The run waits only for the helpers that
    // entered while it was open, so on a busy host a helper scheduled late
    // costs the run nothing: the caller has claimed its sources already.
    buffers.resize(sources.size());
    const auto gate = std::make_shared<HelperGate>();
    util::ThreadPool& helpers = search_helpers(n_workers - 1);
    for (unsigned t = 1; t < n_workers; ++t) {
      // `work` dangles once the gate closes; a task only calls it after
      // entering the open gate, which keeps this frame alive.
      helpers.submit([gate, &work, t] {
        if (!gate->enter()) return;
        work(t);
        gate->leave();
      });
    }
    work(0);
    gate->close_and_wait();
    if (sink) {
      util::TraceSpan merge_span(opt_.trace, "pathfinder/merge", 0);
      for (std::vector<TruePath>& buf : buffers) {
        for (TruePath& p : buf) sink(p);
      }
    }
  }
  PathFinderStats total;
  for (const PathFinderStats& s : worker_stats) total += s;
  total.cpu_seconds = watch.elapsed_seconds();
  if (attribution_on) {
    for (std::size_t i = 0; i < gate_trials.size(); ++i) {
      if (gate_trials[i] == 0) continue;
      opt_.attribution->gates.push_back(
          {static_cast<netlist::InstId>(i), gate_trials[i]});
    }
  }
  if (opt_.metrics != nullptr) {
    util::MetricsRegistry& m = *opt_.metrics;
    m.add(m.gauge("pathfinder.run_seconds"), total.cpu_seconds);
    m.add(m.counter("pathfinder.sources_total"),
          static_cast<long>(sources.size()));
    m.add(m.counter("pathfinder.workers"), static_cast<long>(n_workers));
  }
  sink_ = nullptr;
  return total;
}

std::vector<TruePath> PathFinder::find_all() {
  std::vector<TruePath> out;
  run([&out](const TruePath& p) { out.push_back(p); });
  return out;
}

}  // namespace sasta::sta
