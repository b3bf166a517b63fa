#include "sta/justify.h"

#include <algorithm>

#include "util/check.h"

namespace sasta::sta {

Justifier::Justifier(const netlist::Netlist& nl, AssignmentState& state,
                     ImplicationEngine& engine,
                     const netlist::Controllability* guide)
    : view_(engine.view()), state_(state), engine_(engine), guide_(guide) {
  SASTA_CHECK(nl.num_nets() == view_.num_nets() &&
              nl.num_instances() == view_.num_instances())
      << " the engine's view was built from another netlist";
}

Justifier::Result Justifier::justify_all(std::span<const Goal> goals,
                                         unsigned alive,
                                         int backtrack_budget) {
  const long entry_backtracks = backtracks_;
  Result res = justify_all_inner(goals, alive, backtrack_budget);
  res.backtracks_used = backtracks_ - entry_backtracks;
  if (rec_ != nullptr && res.backtracks_used >= kBacktrackBurstThreshold) {
    rec_->record(util::FlightEventKind::kBacktrackBurst, 0,
                 static_cast<std::uint32_t>(res.backtracks_used),
                 res.alive);
  }
  return res;
}

Justifier::Result Justifier::justify_all_inner(std::span<const Goal> goals,
                                               unsigned alive,
                                               int backtrack_budget) {
  if (supports_.empty() || goals.size() < 2) {
    work_.assign(goals.begin(), goals.end());
    return solve_work(alive, backtrack_budget);
  }

  // Partition the goals into support-disjoint components: goals whose cones
  // share no free primary input cannot interact, so each component is an
  // independent satisfiability problem with its own budget.
  const std::size_t n = goals.size();
  parent_.resize(n);
  for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  auto find = [this](int x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  };
  auto overlap = [&](netlist::NetId a, netlist::NetId b) {
    const std::uint64_t* sa = supports_.data() + a * words_;
    const std::uint64_t* sb = supports_.data() + b * words_;
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t inter = sa[w] & sb[w];
      if (excluded_bit_ >= 0 &&
          static_cast<std::size_t>(excluded_bit_ / 64) == w) {
        inter &= ~(std::uint64_t{1} << (excluded_bit_ % 64));
      }
      if (inter) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (find(static_cast<int>(i)) != find(static_cast<int>(j)) &&
          overlap(goals[i].net, goals[j].net)) {
        parent_[find(static_cast<int>(i))] = find(static_cast<int>(j));
      }
    }
  }
  // Components are solved in ascending root order, each with its goals in
  // index order: the order that fixes every budget-limited verdict.
  order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    order_[i] = {find(static_cast<int>(i)), static_cast<int>(i)};
  }
  std::sort(order_.begin(), order_.end());

  Result res;
  res.alive = alive;
  for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
    work_.clear();
    for (; end < n && order_[end].first == order_[begin].first; ++end) {
      work_.push_back(goals[order_[end].second]);
    }
    const Result sub = solve_work(res.alive, backtrack_budget);
    res.backtrack_limited = res.backtrack_limited || sub.backtrack_limited;
    res.stopped = sub.stopped;
    res.alive &= sub.alive;
    if (res.alive == kScenarioNone) return res;
  }
  return res;
}

Justifier::Result Justifier::solve_work(unsigned alive, int backtrack_budget) {
  budget_ = backtrack_budget;
  budget_start_ = backtracks_;
  return solve(work_, 0, alive);
}

Justifier::Result Justifier::solve(std::vector<Goal>& goals, std::size_t idx,
                                   unsigned alive) {
  Result res;
  if (idx == goals.size()) {
    res.alive = alive;
    return res;
  }
  SASTA_CHECK(goals.size() <=
              static_cast<std::size_t>(view_.num_nets()) * 4 + 64)
      << " runaway goal expansion (cycle?)";

  const auto [net, value] = goals[idx];

  // Constrain the line and propagate consequences.
  const auto a = engine_.assign_steady(net, value, alive);
  alive &= ~a.conflict;
  if (alive == kScenarioNone) return res;

  // Already justified within this branch (same consistent value).
  if (state_.justified(net)) return solve(goals, idx + 1, alive);

  const netlist::InstId driver = view_.driver(net);
  if (driver == netlist::kNoId) {
    // Primary input: directly controllable.
    state_.mark_justified(net);
    return solve(goals, idx + 1, alive);
  }

  // NOTE: no "already forced by implication" shortcut here.  The implication
  // engine tracks endpoint values only, so e.g. AND(fall, rise) evaluates to
  // a stable 0 even though the node can glitch mid-transition.  A steady
  // side value must be HAZARD-FREE for the characterized gate delay to be
  // valid, and the cube decomposition below enforces exactly that: a line
  // is steady-v only through a prime cube of recursively hazard-free steady
  // literals (ternary-simulation steadiness and cube coverability are
  // equivalent).  Endpoint-stable-but-glitchy support fails every cube.

  const std::vector<cell::Cube>& cubes =
      view_.gate(driver).cell->prime_cubes(value);
  const std::span<const netlist::NetId> inputs = view_.inputs(driver);

  // Prune and order the branch choices:
  //  - a cube with a literal that already contradicts the state (in every
  //    live scenario) cannot succeed: drop it up front;
  //  - among the rest, try the cheapest first: literals already satisfied
  //    cost nothing, otherwise SCOAP controllability (when provided) or the
  //    literal count estimates the justification effort.
  // Survivors are ranked by index in a stack buffer (heap only for cells
  // with more primes than it holds).  Insertion after every equal cost
  // keeps the order exactly std::stable_sort's over the prime order: the
  // branch order, and so every budget-limited verdict, depends on it.
  struct Ranked {
    long cost;
    std::uint32_t cube;
  };
  constexpr std::size_t kInlineCubes = 16;
  Ranked inline_ranked[kInlineCubes] = {};
  std::vector<Ranked> heap_ranked;
  Ranked* ranked = inline_ranked;
  if (cubes.size() > kInlineCubes) {
    heap_ranked.resize(cubes.size());
    ranked = heap_ranked.data();
  }
  std::size_t num_ranked = 0;
  {
    // 0 = already satisfied, 1 = open, 2 = contradicts, tested on the
    // state word: a literal is satisfied when every live part equals it,
    // and contradicted when every live scenario knows a part that differs.
    const std::uint32_t lanes = scenario_lanes(alive);
    auto literal_state = [&](netlist::NetId in, bool lit) {
      const std::uint32_t word = state_.word(in);
      const std::uint32_t diff = word ^ (lit ? kPartLsb : 0u);
      if ((diff & lanes * 0xFFu) == 0) return 0;
      const std::uint32_t clash = ~(word >> 1) & diff & lanes;
      return lane_scenarios(clash) == alive ? 2 : 1;
    };
    for (std::size_t c = 0; c < cubes.size(); ++c) {
      const cell::Cube& cube = cubes[c];
      long cost = 0;
      bool dead = false;
      for (std::uint32_t care = cube.care; care != 0 && !dead;
           care &= care - 1) {
        const int p = __builtin_ctz(care);
        const int s = literal_state(inputs[p], cube.literal(p));
        if (s == 2) {
          dead = true;
        } else if (s == 1) {
          cost += guide_ ? guide_->cost(inputs[p], cube.literal(p)) : 1;
        }
      }
      if (dead) continue;
      std::size_t at = num_ranked++;
      for (; at > 0 && ranked[at - 1].cost > cost; --at) {
        ranked[at] = ranked[at - 1];
      }
      ranked[at] = {cost, static_cast<std::uint32_t>(c)};
    }
  }

  for (std::size_t r = 0; r < num_ranked; ++r) {
    const cell::Cube& cube = cubes[ranked[r].cube];
    const AssignmentState::Mark mark = state_.mark();
    const std::size_t saved_goals = goals.size();
    for (std::uint32_t care = cube.care; care != 0; care &= care - 1) {
      const int p = __builtin_ctz(care);
      goals.push_back({inputs[p], cube.literal(p)});
    }
    state_.mark_justified(net);
    const Result sub = solve(goals, idx + 1, alive);
    if (sub.alive != kScenarioNone || sub.backtrack_limited || sub.stopped) {
      return sub;
    }
    state_.rollback(mark);
    goals.resize(saved_goals);
    ++backtracks_;
    if (budget_ >= 0 && backtracks_ - budget_start_ > budget_) {
      res.backtrack_limited = true;
      return res;
    }
    if (stop_check_ && backtracks_ % kStopPollBacktracks == 0 &&
        stop_check_()) {
      res.stopped = true;
      return res;
    }
  }
  return res;  // no cube satisfies the remaining conjunction
}

}  // namespace sasta::sta
