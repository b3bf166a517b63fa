#include "sta/pathfinder.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "netlist/levelize.h"
#include "util/check.h"
#include "util/log.h"
#include "util/strings.h"
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
        engine(owner.nl_, state),
        justifier(owner.nl_, state, engine,
                  owner.opt_.use_scoap_guide ? &owner.guide_ : nullptr) {}

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
  /// False under the steal scheduler: a course's vector combos can span
  /// frontier tasks executed by different workers, so courses are tallied
  /// on the canonically merged stream instead (see run_steal).
  bool count_courses = true;
  std::unordered_map<std::string, int> course_counts;
  /// Parallel mode: per-source output buffer.  Null in sequential mode,
  /// where paths stream straight to the caller's sink.
  std::vector<TruePath>* out = nullptr;
  /// Observability: this worker's private metrics shard (null = metrics
  /// off) and its lane index for trace spans / per-worker metrics.
  util::MetricsShard* metrics = nullptr;
  /// Flight-recorder lane `tid` (null = recorder off).  Written on the hot
  /// path with relaxed stores only; see attach_recorder().
  util::FlightLane* rec = nullptr;
  int tid = 0;

  /// Search-cost attribution scratch (empty unless the run requested
  /// attribution): per-instance trial tallies, merged into the caller's
  /// SearchAttribution after the join.
  std::vector<long> gate_trials;
};

PathFinder::PathFinder(const netlist::Netlist& nl,
                       const charlib::CharLibrary& charlib,
                       const PathFinderOptions& options)
    : nl_(nl), charlib_(charlib), opt_(options) {
  util::TraceSpan span(opt_.trace, "pathfinder/prepare", 0);
  guide_ = netlist::compute_controllability(nl);
  reach_ = netlist::reaches_output(nl);

  // Primary-input support bitsets per net, for the justifier's
  // support-disjoint goal partitioning.
  const int num_pis = static_cast<int>(nl.primary_inputs().size());
  const std::size_t words = (num_pis + 63) / 64;
  supports_.assign(nl.num_nets(), std::vector<std::uint64_t>(words, 0));
  pi_bit_.assign(nl.num_nets(), -1);
  for (int i = 0; i < num_pis; ++i) {
    const netlist::NetId pi = nl.primary_inputs()[i];
    pi_bit_[pi] = i;
    supports_[pi][i / 64] |= std::uint64_t{1} << (i % 64);
  }
  const auto lv = netlist::levelize(nl);
  for (netlist::InstId ii : lv.topo_order) {
    const netlist::Instance& inst = nl.instance(ii);
    auto& out = supports_[inst.output];
    for (netlist::NetId in : inst.inputs) {
      for (std::size_t w = 0; w < words; ++w) out[w] |= supports_[in][w];
    }
  }
}

void PathFinder::enable_n_worst_pruning(const DelayCalculator& calc) {
  prune_calc_ = &calc;
  SASTA_CHECK(opt_.n_worst > 0)
      << " enable_n_worst_pruning requires options.n_worst > 0";

  // Upper bound on the remaining delay from each net to any primary output:
  // reverse-topological max over fanout arcs evaluated at a pessimistic
  // input slew (the bound is heuristic; bound_safety widens it).
  const double slew_ub = 8.0 * calc.options().input_slew_s;
  remaining_ub_.assign(nl_.num_nets(), -1.0);
  for (netlist::NetId po : nl_.primary_outputs()) remaining_ub_[po] = 0.0;
  const auto lv = netlist::levelize(nl_);
  for (auto it = lv.topo_order.rbegin(); it != lv.topo_order.rend(); ++it) {
    const netlist::Instance& inst = nl_.instance(*it);
    if (remaining_ub_[inst.output] < 0.0 && !reach_[inst.output]) continue;
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
    if (ub > 0.0) ub *= opt_.bound_safety;
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
    if (w.metrics != nullptr) {
      // "Justification depth" of the recorded path: how many accumulated
      // side-value goals the final joint solve had to satisfy.
      w.metrics->observe(justify_depth_hist_,
                         static_cast<double>(w.goal_stack.size()));
    }
    if (w.count_courses) {
      const int count = ++w.course_counts[p.course_key(nl_)];
      if (count == 1) ++w.stats.courses;
      if (count == 2) ++w.stats.multi_vector_courses;
    }

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
  if (w.stats.vector_trials % 64 == 0) {
    if (deadline_hit(w)) return;
    // Piggyback on the amortized poll so the heartbeat stays live even
    // while one skewed source dominates the run.
    maybe_heartbeat();
  }

  if (nl_.net(net).is_primary_output) record(w, net, alive);

  extend_over(w, net, alive, 0, std::numeric_limits<std::size_t>::max());
}

void PathFinder::extend_over(Worker& w, netlist::NetId net, unsigned alive,
                             std::size_t cand_begin, std::size_t cand_end) {
  std::size_t ci = 0;
  bool past_end = false;

  for (const netlist::Fanout& f : nl_.net(net).fanouts) {
    if (stop_.load(std::memory_order_relaxed)) return;
    const netlist::Instance& inst = nl_.instance(f.inst);
    if (!reach_[inst.output]) continue;
    const charlib::CellTiming& timing = charlib_.timing(inst.cell->name());
    const auto& vectors = timing.vectors.at(f.pin);
    for (const charlib::SensitizationVector& vec : vectors) {
      const std::size_t cand_index = ci++;
      if (cand_index >= cand_end) {
        past_end = true;  // contiguous range: nothing further is ours
        break;
      }
      if (cand_index < cand_begin) continue;
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

      // Assign the vector's steady side values and propagate; the
      // justification itself is NOT committed here (its decisions would
      // over-constrain downstream gates) — the values become goals whose
      // joint satisfiability is established once per complete path when it
      // is recorded.
      unsigned sub = alive;
      bool ok = true;
      std::size_t first_new_goal = w.goal_stack.size();
      for (int q = 0; q < inst.cell->num_inputs() && ok; ++q) {
        if (q == f.pin) continue;
        const auto r =
            w.engine.assign_steady(inst.inputs[q], vec.side_value(q));
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
    if (past_end) break;
  }
}

void PathFinder::prepare_observability(
    const std::vector<netlist::NetId>& sources, unsigned n_workers) {
  total_sources_ = sources.size();
  sources_done_.store(0, std::memory_order_relaxed);
  trials_flushed_.store(0, std::memory_order_relaxed);
  next_heartbeat_ms_.store(
      opt_.progress_interval_seconds > 0
          ? static_cast<long>(opt_.progress_interval_seconds * 1000.0)
          : std::numeric_limits<long>::max(),
      std::memory_order_relaxed);
  hb_lanes_ = 0;
  hb_prev_ms_.store(0, std::memory_order_relaxed);
  if (opt_.flight != nullptr) {
    hb_lanes_ = std::min(opt_.flight->num_lanes(), n_workers);
    hb_lane_trials_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(hb_lanes_);
    for (unsigned i = 0; i < hb_lanes_; ++i) {
      hb_lane_trials_[i].store(0, std::memory_order_relaxed);
    }
  }
  source_metric_ids_.clear();
  worker_metric_ids_.clear();
  if (opt_.metrics == nullptr) return;
  // Registration happens here, before any worker shard exists, so every id
  // is in range for every shard of this run.  The registration sequence
  // depends only on the source list (plus the worker count for the worker
  // lanes), keeping the metrics JSON key set deterministic.
  justify_depth_hist_ = opt_.metrics->histogram(
      "pathfinder.justify_depth", {1, 2, 4, 8, 16, 32, 64, 128});
  source_metric_ids_.reserve(sources.size());
  for (netlist::NetId src : sources) {
    const std::string base = "pathfinder.source." + nl_.net(src).name;
    source_metric_ids_.push_back(
        {opt_.metrics->counter(base + ".vector_trials"),
         opt_.metrics->counter(base + ".backtracks"),
         opt_.metrics->counter(base + ".paths_recorded"),
         opt_.metrics->counter(base + ".justify_limited"),
         opt_.metrics->gauge(base + ".seconds")});
  }
  worker_metric_ids_.reserve(n_workers);
  for (unsigned t = 0; t < n_workers; ++t) {
    const std::string base = "pathfinder.worker." + std::to_string(t);
    worker_metric_ids_.push_back(
        {opt_.metrics->counter(base + ".sources"),
         opt_.metrics->gauge(base + ".busy_seconds")});
  }
}

void PathFinder::maybe_heartbeat() {
  if (opt_.progress_interval_seconds <= 0) return;
  const double elapsed = run_watch_.elapsed_seconds();
  long due_ms = next_heartbeat_ms_.load(std::memory_order_relaxed);
  if (elapsed * 1000.0 < static_cast<double>(due_ms)) return;
  const long next_ms =
      static_cast<long>((elapsed + opt_.progress_interval_seconds) * 1000.0);
  if (!next_heartbeat_ms_.compare_exchange_strong(
          due_ms, next_ms, std::memory_order_relaxed)) {
    return;  // another worker claimed this heartbeat slot
  }
  const long done = sources_done_.load(std::memory_order_relaxed);
  const long trials = trials_flushed_.load(std::memory_order_relaxed);
  std::ostringstream msg;
  msg << "progress: " << done << "/" << total_sources_ << " sources, "
      << trials << " vector trials ("
      << static_cast<long>(elapsed > 0 ? trials / elapsed : 0.0) << "/s), "
      << util::format_fixed(elapsed, 1) << " s elapsed";
  // Recorder-backed enrichment: one segment per worker naming its current
  // source PI plus its trial rate since the previous heartbeat.  Only the
  // CAS winner runs this block, so the prev-trials slots are raced only
  // across heartbeats (hence atomics), never within one.
  if (hb_lanes_ > 0 && opt_.flight != nullptr) {
    const long now_ms = static_cast<long>(elapsed * 1000.0);
    const long prev_ms = hb_prev_ms_.exchange(now_ms,
                                              std::memory_order_relaxed);
    const double span_s = std::max(0.001, (now_ms - prev_ms) / 1000.0);
    for (unsigned i = 0; i < hb_lanes_; ++i) {
      const util::FlightLane::Activity act = opt_.flight->lane(i).activity();
      const std::uint64_t prev =
          hb_lane_trials_[i].exchange(act.trials, std::memory_order_relaxed);
      msg << " | w" << i << " ";
      if (act.source == util::kFlightIdle) {
        msg << "idle";
      } else {
        msg << nl_.net(static_cast<netlist::NetId>(act.source)).name << " d"
            << act.depth;
      }
      msg << " "
          << static_cast<long>(
                 static_cast<double>(act.trials - prev) / span_s)
          << "/s";
    }
  }
  util::log_line(util::LogLevel::kInfo, msg.str());
}

void PathFinder::run_source(Worker& w, std::size_t source_index,
                            netlist::NetId source) {
  const PathFinderStats before = w.stats;
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
  const long trials = w.stats.vector_trials - before.vector_trials;
  if (opt_.attribution != nullptr) {
    // Each source is processed by exactly one worker, and the rows were
    // sized before the pool started, so this write is contention-free and
    // the deltas are exact.
    SearchAttribution::SourceCost& row = opt_.attribution->sources[source_index];
    row.source = source;
    row.vector_trials = trials;
    row.backtracks = w.stats.backtracks - before.backtracks;
    row.paths_recorded = w.stats.paths_recorded - before.paths_recorded;
    row.justify_limited = w.stats.justify_limited - before.justify_limited;
    row.seconds = seconds;
  }
  if (w.metrics != nullptr) {
    const SourceMetricIds& ids = source_metric_ids_[source_index];
    w.metrics->add(ids.vector_trials, trials);
    w.metrics->add(ids.backtracks, w.stats.backtracks - before.backtracks);
    w.metrics->add(ids.paths_recorded,
                   w.stats.paths_recorded - before.paths_recorded);
    w.metrics->add(ids.justify_limited,
                   w.stats.justify_limited - before.justify_limited);
    w.metrics->add(ids.seconds, seconds);
    const WorkerMetricIds& wid = worker_metric_ids_[w.tid];
    w.metrics->add(wid.sources, 1);
    w.metrics->add(wid.busy_seconds, seconds);
  }
  if (w.rec != nullptr) {
    w.rec->record(
        util::FlightEventKind::kSourceDone, 0,
        static_cast<std::uint32_t>(source),
        static_cast<std::uint32_t>(w.stats.paths_recorded -
                                   before.paths_recorded));
    w.rec->note_source_done();
    w.rec->set_idle();
  }
  sources_done_.fetch_add(1, std::memory_order_relaxed);
  trials_flushed_.fetch_add(trials, std::memory_order_relaxed);
  maybe_heartbeat();
}

void PathFinder::begin_source_state(Worker& w, netlist::NetId source) {
  w.state.reset();
  w.goal_stack.clear();
  w.steps.clear();
  w.justifier.reset_backtracks();
  w.justifier.set_supports(&supports_, pi_bit_[source]);
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
}

void PathFinder::search_source(Worker& w, netlist::NetId source) {
  begin_source_state(w, source);
  extend(w, source, opt_.directions & kScenarioBoth);
  w.stats.backtracks += w.justifier.backtracks();
}

std::size_t PathFinder::count_frontier_candidates(netlist::NetId net) const {
  std::size_t n = 0;
  for (const netlist::Fanout& f : nl_.net(net).fanouts) {
    const netlist::Instance& inst = nl_.instance(f.inst);
    if (!reach_[inst.output]) continue;
    n += charlib_.timing(inst.cell->name()).vectors.at(f.pin).size();
  }
  return n;
}

namespace {

/// One stealable unit of a source's search: a contiguous range of the
/// source's first-frontier candidates (flat (reachable fanout) x (vector)
/// indices in exact trial order).  The task carries no captured search
/// state — the launch prefix is a pure function of the source PI, replayed
/// by begin_source_state() — so a task is trivially relocatable to any
/// worker.
struct FrontierTask {
  std::uint32_t source_index = 0;
  std::uint32_t chunk_index = 0;
  std::uint32_t cand_begin = 0;
  std::uint32_t cand_end = 0;
};

/// Upper bound on frontier tasks per source.  Enough granularity that one
/// dominant cone spreads across every worker of any realistic pool, small
/// enough that the per-task replay (one state reset + launch implication)
/// stays noise.
constexpr std::size_t kMaxTasksPerSource = 32;

}  // namespace

PathFinderStats PathFinder::run_steal(
    const std::vector<netlist::NetId>& sources, unsigned n_workers,
    const std::function<void(const TruePath&)>& sink,
    const std::function<void(const Worker&)>& fold_gate_tallies) {
  // The task decomposition is a pure function of the netlist: every worker
  // agrees on it without coordination, and — because each chunk is a range
  // of the sequential trial order and chunks are merged (source, chunk)
  // ascending — the merged stream IS the sequential stream, bit for bit.
  std::vector<std::size_t> chunk_counts(sources.size());
  std::size_t total_tasks = 0;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    const std::size_t cands = count_frontier_candidates(sources[i]);
    // A zero-candidate source still needs one task: its chunk 0 owns the
    // source-as-PO record, like the sequential prologue.
    chunk_counts[i] =
        cands == 0 ? 1 : std::min(cands, kMaxTasksPerSource);
    total_tasks += chunk_counts[i];
  }
  std::vector<std::vector<std::vector<TruePath>>> buffers(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    buffers[i].resize(chunk_counts[i]);
  }

  // Per-source accumulation of per-task deltas.  Tasks of one source can
  // run on different workers, so the per-source rows (attribution, metrics,
  // the kSourceDone event) are built from task deltas folded under a mutex
  // — integer sums, so the fold order cannot change any row.
  struct SourceAccum {
    long vector_trials = 0;
    long backtracks = 0;
    long paths_recorded = 0;
    long justify_limited = 0;
    double seconds = 0.0;  ///< sum of task seconds (can exceed wall clock)
    bool searched = false;
  };
  std::vector<SourceAccum> accum(sources.size());
  std::mutex accum_mu;
  // Outstanding tasks per source (kSourceDone fires when the last one
  // retires) and overall (the idle-worker exit condition).
  auto tasks_left = std::make_unique<std::atomic<long>[]>(sources.size());
  for (std::size_t i = 0; i < sources.size(); ++i) {
    tasks_left[i].store(static_cast<long>(chunk_counts[i]),
                        std::memory_order_relaxed);
  }
  std::atomic<long> pending_tasks{static_cast<long>(total_tasks)};

  std::vector<util::StealDeque<FrontierTask>> deques(n_workers);
  std::vector<PathFinderStats> worker_stats(n_workers);
  std::atomic<std::size_t> next_source{0};

  // Executes one frontier task on this worker, with the same observability
  // run_source() gives a whole source — except per-task deltas feed the
  // shared per-source accumulator instead of writing a row directly.
  const auto run_task = [&](Worker& w, const FrontierTask& t) {
    const PathFinderStats before = w.stats;
    const netlist::NetId source = sources[t.source_index];
    util::Stopwatch task_watch;
    const bool ran = !stop_.load(std::memory_order_relaxed);
    if (ran) {
      if (w.rec != nullptr) {
        w.rec->set_source(static_cast<std::uint32_t>(source));
      }
      util::TraceSpan span(
          opt_.trace,
          opt_.trace != nullptr
              ? "task " + nl_.net(source).name + "/" +
                    std::to_string(t.chunk_index)
              : std::string(),
          w.tid + 1);
      w.out = &buffers[t.source_index][t.chunk_index];
      begin_source_state(w, source);
      const unsigned alive = opt_.directions & kScenarioBoth;
      if (!deadline_hit(w)) {
        // Chunk 0 owns everything the sequential extend() does before its
        // first frontier candidate: the source-as-PO record.
        if (t.chunk_index == 0 && nl_.net(source).is_primary_output) {
          record(w, source, alive);
        }
        extend_over(w, source, alive, t.cand_begin, t.cand_end);
      }
      w.stats.backtracks += w.justifier.backtracks();
    }
    long source_paths = 0;
    if (ran) {
      const double seconds = task_watch.elapsed_seconds();
      const long trials = w.stats.vector_trials - before.vector_trials;
      {
        std::lock_guard<std::mutex> lk(accum_mu);
        SourceAccum& a = accum[t.source_index];
        a.vector_trials += trials;
        a.backtracks += w.stats.backtracks - before.backtracks;
        a.paths_recorded += w.stats.paths_recorded - before.paths_recorded;
        a.justify_limited +=
            w.stats.justify_limited - before.justify_limited;
        a.seconds += seconds;
        a.searched = true;
        source_paths = a.paths_recorded;
      }
      if (w.metrics != nullptr) {
        const SourceMetricIds& ids = source_metric_ids_[t.source_index];
        w.metrics->add(ids.vector_trials, trials);
        w.metrics->add(ids.backtracks,
                       w.stats.backtracks - before.backtracks);
        w.metrics->add(ids.paths_recorded,
                       w.stats.paths_recorded - before.paths_recorded);
        w.metrics->add(ids.justify_limited,
                       w.stats.justify_limited - before.justify_limited);
        w.metrics->add(ids.seconds, seconds);
        w.metrics->add(worker_metric_ids_[w.tid].busy_seconds, seconds);
      }
      trials_flushed_.fetch_add(trials, std::memory_order_relaxed);
    }
    if (tasks_left[t.source_index].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      // Last task of this source anywhere: the finisher owns the
      // source-completion milestones, whichever worker it is.
      if (w.rec != nullptr) {
        w.rec->record(util::FlightEventKind::kSourceDone, 0,
                      static_cast<std::uint32_t>(source),
                      static_cast<std::uint32_t>(source_paths));
        w.rec->note_source_done();
      }
      sources_done_.fetch_add(1, std::memory_order_relaxed);
    }
    if (w.rec != nullptr) w.rec->set_idle();
    pending_tasks.fetch_sub(1, std::memory_order_release);
    maybe_heartbeat();
  };

  util::ThreadPool pool(n_workers);
  for (unsigned t = 0; t < n_workers; ++t) {
    pool.submit([&, t] {
      Worker w(*this);
      w.tid = static_cast<int>(t);
      // Courses are tallied on the canonically merged stream after the
      // join (see below): one course's vector combos can span tasks on
      // different workers, so per-worker maps would over-count.
      w.count_courses = false;
      if (opt_.metrics != nullptr) w.metrics = &opt_.metrics->create_shard();
      attach_recorder(w);
      if (opt_.attribution != nullptr) w.arm_attribution(nl_.num_instances());
      while (!stop_.load(std::memory_order_relaxed)) {
        FrontierTask task;
        // 1. Own work first, in spawn order (chunk 0 carries the PO
        //    record, so FIFO keeps the common case sequential-shaped).
        if (deques[t].pop(&task)) {
          run_task(w, task);
          continue;
        }
        // 2. Claim the next unexpanded source and split it into tasks.
        if (next_source.load(std::memory_order_relaxed) < sources.size()) {
          const std::size_t i =
              next_source.fetch_add(1, std::memory_order_relaxed);
          if (i < sources.size()) {
            if (deadline_hit(w)) break;
            const netlist::NetId source = sources[i];
            const std::size_t chunks = chunk_counts[i];
            const std::size_t cands = count_frontier_candidates(source);
            if (w.rec != nullptr) {
              w.rec->record(util::FlightEventKind::kSourceClaim, 0,
                            static_cast<std::uint32_t>(source),
                            static_cast<std::uint32_t>(i));
              w.rec->record(util::FlightEventKind::kTaskSpawn,
                            static_cast<std::uint16_t>(chunks),
                            static_cast<std::uint32_t>(source),
                            static_cast<std::uint32_t>(cands));
            }
            w.stats.tasks_spawned += static_cast<long>(chunks);
            if (w.metrics != nullptr) {
              w.metrics->add(worker_metric_ids_[w.tid].sources, 1);
            }
            // Balanced split: chunk j gets base + (j < rem), so sizes
            // differ by at most one and the partition is canonical.
            const std::size_t base = cands / chunks;
            const std::size_t rem = cands % chunks;
            std::size_t begin = 0;
            for (std::size_t j = 0; j < chunks; ++j) {
              const std::size_t size = base + (j < rem ? 1 : 0);
              const FrontierTask ft{
                  static_cast<std::uint32_t>(i),
                  static_cast<std::uint32_t>(j),
                  static_cast<std::uint32_t>(begin),
                  static_cast<std::uint32_t>(begin + size)};
              begin += size;
              // Bounded deque: on overflow run the task inline — the
              // source still completes, just with less parallelism.
              if (!deques[t].push(ft)) run_task(w, ft);
            }
            continue;
          }
        }
        // 3. Steal the newest task of the busiest victim.
        std::size_t victim = n_workers;
        std::size_t victim_size = 0;
        for (std::size_t v = 0; v < n_workers; ++v) {
          if (v == t) continue;
          const std::size_t sz = deques[v].size();
          if (sz > victim_size) {
            victim_size = sz;
            victim = v;
          }
        }
        if (victim < n_workers && deques[victim].steal(&task)) {
          ++w.stats.tasks_stolen;
          if (w.rec != nullptr) {
            w.rec->record(
                util::FlightEventKind::kTaskSteal,
                static_cast<std::uint16_t>(victim),
                static_cast<std::uint32_t>(sources[task.source_index]),
                static_cast<std::uint32_t>(task.chunk_index));
          }
          run_task(w, task);
          continue;
        }
        ++w.stats.steal_failures;
        // 4. Nothing anywhere: exit once every spawned task has retired
        //    (unspawned sources were handled by the claim branch above —
        //    reaching here means next_source is exhausted).
        if (pending_tasks.load(std::memory_order_acquire) == 0) break;
        std::this_thread::yield();
      }
      fold_gate_tallies(w);
      worker_stats[t] = std::move(w.stats);
    });
  }
  pool.wait_idle();

  PathFinderStats total;
  for (const PathFinderStats& s : worker_stats) total += s;

  // Canonical merge: (source order, chunk order, in-chunk discovery order)
  // is exactly the sequential delivery order.  Courses are counted here on
  // the merged stream — the single place with the global view — which
  // reproduces the sequential tallies exactly (course keys are
  // source-prefixed, so the per-worker maps of the source scheduler and
  // this single map agree).
  {
    util::TraceSpan merge_span(opt_.trace, "pathfinder/merge", 0);
    std::unordered_map<std::string, int> course_counts;
    for (std::vector<std::vector<TruePath>>& chunks : buffers) {
      for (std::vector<TruePath>& chunk : chunks) {
        for (TruePath& p : chunk) {
          const int count = ++course_counts[p.course_key(nl_)];
          if (count == 1) ++total.courses;
          if (count == 2) ++total.multi_vector_courses;
          if (sink) sink(p);
        }
      }
    }
  }

  if (opt_.attribution != nullptr) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const SourceAccum& a = accum[i];
      if (!a.searched) continue;
      SearchAttribution::SourceCost& row = opt_.attribution->sources[i];
      row.source = sources[i];
      row.vector_trials = a.vector_trials;
      row.backtracks = a.backtracks;
      row.paths_recorded = a.paths_recorded;
      row.justify_limited = a.justify_limited;
      row.seconds = a.seconds;
    }
  }
  return total;
}

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
    if (!reach_[pi]) continue;
    if (opt_.source_filter && !opt_.source_filter(pi)) continue;
    sources.push_back(pi);
  }

  // The source scheduler caps workers at the source count (extra workers
  // could never get work); the steal scheduler deliberately does not — its
  // whole point is putting more workers than sources to use.  One worker
  // always takes the sequential reference path: the steal result is defined
  // as bit-identical to it, so there is nothing to schedule.
  const unsigned resolved = util::ThreadPool::resolve(opt_.num_threads);
  const bool steal_mode = opt_.schedule == ScheduleMode::kSteal &&
                          resolved > 1 && !sources.empty();
  const unsigned n_workers =
      steal_mode ? resolved
                 : std::max<unsigned>(
                       1, std::min<std::size_t>(resolved, sources.size()));
  prepare_observability(sources, n_workers);
  if (opt_.trace != nullptr) {
    // Mirror the OS-level pthread names (ThreadPool) into the trace so
    // Perfetto labels the lanes: 0 = orchestrator, 1..N = workers.
    opt_.trace->set_thread_name(0, "sasta-main");
    for (unsigned t = 0; t < n_workers; ++t) {
      opt_.trace->set_thread_name(static_cast<int>(t) + 1,
                                  "sasta-w" + std::to_string(t));
    }
  }
  util::TraceSpan run_span(opt_.trace, "pathfinder/run", 0);

  // Stall watchdog: armed for the duration of this run() only (the thread
  // borrows nl_ for name resolution).  Destroyed — stopped and joined —
  // before run() returns.
  std::unique_ptr<util::StallWatchdog> watchdog;
  if (opt_.flight != nullptr && opt_.watchdog_seconds > 0) {
    util::StallWatchdog::Hooks hooks;
    hooks.net_name = [this](std::uint32_t id) {
      const auto nid = static_cast<netlist::NetId>(id);
      return nid >= 0 && nid < nl_.num_nets() ? nl_.net(nid).name
                                              : std::to_string(id);
    };
    hooks.inst_name = [this](std::uint32_t id) {
      const auto iid = static_cast<netlist::InstId>(id);
      return iid >= 0 && iid < nl_.num_instances() ? nl_.instance(iid).name
                                                   : std::to_string(id);
    };
    hooks.dump_path = opt_.watchdog_dump_path;
    watchdog = std::make_unique<util::StallWatchdog>(
        *opt_.flight, opt_.watchdog_seconds, std::move(hooks));
  }

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
    gate_trials.assign(nl_.num_instances(), 0);
  }
  const auto fold_gate_tallies = [&](const Worker& w) {
    if (!attribution_on) return;
    std::lock_guard<std::mutex> lk(gate_merge_mu);
    for (std::size_t i = 0; i < gate_trials.size(); ++i) {
      gate_trials[i] += w.gate_trials[i];
    }
  };

  PathFinderStats total;
  if (n_workers == 1) {
    // Sequential reference implementation: paths stream to the sink in
    // discovery order.
    Worker w(*this);
    if (opt_.metrics != nullptr) w.metrics = &opt_.metrics->create_shard();
    attach_recorder(w);
    if (attribution_on) w.arm_attribution(nl_.num_instances());
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (stop_.load(std::memory_order_relaxed) || deadline_hit(w)) break;
      run_source(w, i, sources[i]);
    }
    fold_gate_tallies(w);
    total = w.stats;
  } else if (steal_mode) {
    total = run_steal(sources, n_workers, sink, fold_gate_tallies);
  } else {
    // Source-parallel: workers pull sources from an atomic index into
    // per-source buffers, merged in source order after the join so the
    // delivery order matches the sequential run exactly.
    std::vector<std::vector<TruePath>> buffers(sources.size());
    std::vector<PathFinderStats> worker_stats(n_workers);
    std::atomic<std::size_t> next_source{0};
    util::ThreadPool pool(n_workers);
    for (unsigned t = 0; t < n_workers; ++t) {
      pool.submit([this, t, attribution_on, &fold_gate_tallies, &sources,
                   &buffers, &worker_stats, &next_source] {
        Worker w(*this);
        w.tid = static_cast<int>(t);
        if (opt_.metrics != nullptr) {
          w.metrics = &opt_.metrics->create_shard();
        }
        attach_recorder(w);
        if (attribution_on) w.arm_attribution(nl_.num_instances());
        for (std::size_t i =
                 next_source.fetch_add(1, std::memory_order_relaxed);
             i < sources.size();
             i = next_source.fetch_add(1, std::memory_order_relaxed)) {
          if (stop_.load(std::memory_order_relaxed) || deadline_hit(w)) break;
          w.out = &buffers[i];
          run_source(w, i, sources[i]);
        }
        fold_gate_tallies(w);
        worker_stats[t] = std::move(w.stats);
      });
    }
    pool.wait_idle();
    for (const PathFinderStats& s : worker_stats) total += s;
    if (sink) {
      util::TraceSpan merge_span(opt_.trace, "pathfinder/merge", 0);
      for (std::vector<TruePath>& buf : buffers) {
        for (TruePath& p : buf) sink(p);
      }
    }
  }
  total.cpu_seconds = watch.elapsed_seconds();
  if (attribution_on) {
    for (std::size_t i = 0; i < gate_trials.size(); ++i) {
      if (gate_trials[i] == 0) continue;
      opt_.attribution->gates.push_back(
          {static_cast<netlist::InstId>(i), gate_trials[i]});
    }
  }
  if (opt_.metrics != nullptr) {
    const util::GaugeId run_seconds =
        opt_.metrics->gauge("pathfinder.run_seconds");
    const util::CounterId sources_total =
        opt_.metrics->counter("pathfinder.sources_total");
    const util::CounterId workers =
        opt_.metrics->counter("pathfinder.workers");
    // Steal-scheduler counters exist exactly when the knob selects kSteal
    // (zero at 1 worker, where the sequential path runs): the key set stays
    // a pure function of the options.
    const bool steal_on = opt_.schedule == ScheduleMode::kSteal;
    util::CounterId tasks_spawned_id{};
    util::CounterId tasks_stolen_id{};
    util::CounterId steal_failures_id{};
    if (steal_on) {
      tasks_spawned_id = opt_.metrics->counter("pathfinder.tasks_spawned");
      tasks_stolen_id = opt_.metrics->counter("pathfinder.tasks_stolen");
      steal_failures_id = opt_.metrics->counter("pathfinder.steal_failures");
    }
    util::MetricsShard& shard = opt_.metrics->create_shard();
    shard.add(run_seconds, total.cpu_seconds);
    shard.add(sources_total, static_cast<long>(sources.size()));
    shard.add(workers, static_cast<long>(n_workers));
    if (steal_on) {
      shard.add(tasks_spawned_id, total.tasks_spawned);
      shard.add(tasks_stolen_id, total.tasks_stolen);
      shard.add(steal_failures_id, total.steal_failures);
    }
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
