// The resident search context: a SearchContext patched through a sequence
// of cell swaps must equal one built fresh from the edited netlist, field
// by field, and a PathFinder borrowing it must enumerate exactly what a
// PathFinder that builds its own does.  This is the serve-mode session's
// contract for keeping one context alive across swap_gate requests.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/pathfinder.h"
#include "sta/search_context.h"
#include "test_charlib.h"
#include "util/check.h"
#include "util/rng.h"

namespace sasta::sta {
namespace {

netlist::Netlist c432() {
  return netlist::tech_map(
             netlist::generate_iscas_like(netlist::iscas_profile("c432")),
             testing::test_library())
      .netlist;
}

/// A design in the serve benchmark's style: `columns` slices of
/// `inputs` PIs and `levels` x `width` NAND/NOR/AND/OR gates, each gate fed
/// by the previous one or two levels of its slice, and one gate per slice
/// fed from its left neighbour at level 2.  Unread gates are the outputs.
netlist::Netlist column_design(std::uint64_t seed, int columns = 5,
                               int inputs = 4, int levels = 5,
                               int width = 3) {
  static const char* const kGates[] = {"NAND", "NOR", "AND", "OR"};
  util::Rng rng(seed);
  std::vector<std::string> header;
  std::vector<std::string> gates;
  std::vector<std::string> used;
  const auto name = [](int c, int l, int w) {
    return "c" + std::to_string(c) + "l" + std::to_string(l) + "g" +
           std::to_string(w);
  };
  for (int c = 0; c < columns; ++c) {
    std::vector<std::string> prev;
    std::vector<std::string> older;
    for (int j = 0; j < inputs; ++j) {
      prev.push_back("c" + std::to_string(c) + "i" + std::to_string(j));
      header.push_back("INPUT(" + prev.back() + ")");
    }
    for (int l = 1; l <= levels; ++l) {
      std::vector<std::string> level;
      for (int w = 0; w < width; ++w) {
        std::vector<std::string> pool = prev;
        if (rng.next_bool(0.3)) {
          pool.insert(pool.end(), older.begin(), older.end());
        }
        const std::size_t arity =
            std::min<std::size_t>(rng.next_bool(0.75) ? 2 : 3, pool.size());
        std::vector<std::string> ins;
        while (ins.size() < arity) {
          const std::string& pick = pool[rng.next_below(pool.size())];
          if (std::find(ins.begin(), ins.end(), pick) == ins.end()) {
            ins.push_back(pick);
          }
        }
        if (l == 2 && c > 0 && w == 0) {
          ins.back() =
              name(c - 1, 1, static_cast<int>(rng.next_below(width)));
        }
        std::string line = name(c, l, w) + " = " +
                           kGates[rng.next_below(4)] + "(";
        for (std::size_t k = 0; k < ins.size(); ++k) {
          line += (k ? ", " : "") + ins[k];
          used.push_back(ins[k]);
        }
        gates.push_back(line + ")");
        level.push_back(name(c, l, w));
      }
      older = std::move(prev);
      prev = std::move(level);
    }
  }
  std::ostringstream text;
  for (const std::string& h : header) text << h << "\n";
  for (const std::string& g : gates) {
    const std::string out = g.substr(0, g.find(' '));
    if (std::find(used.begin(), used.end(), out) == used.end()) {
      text << "OUTPUT(" << out << ")\n";
    }
  }
  for (const std::string& g : gates) text << g << "\n";
  return netlist::tech_map(netlist::parse_bench_string(text.str(), "columns"),
                           testing::test_library())
      .netlist;
}

void expect_equals_fresh(const SearchContext& patched,
                         const netlist::Netlist& nl, const std::string& at) {
  const SearchContext fresh(nl);
  EXPECT_TRUE(patched.view() == fresh.view()) << at;
  EXPECT_EQ(patched.guide().cc, fresh.guide().cc) << at;
  EXPECT_EQ(patched.reach(), fresh.reach()) << at;
  EXPECT_EQ(patched.support_words(), fresh.support_words()) << at;
  EXPECT_TRUE(std::ranges::equal(patched.supports(), fresh.supports()))
      << at;
  EXPECT_EQ(patched.pi_bit(), fresh.pi_bit()) << at;
  EXPECT_EQ(patched.topo_order(), fresh.topo_order()) << at;
}

struct Search {
  std::vector<TruePath> paths;
  PathFinderStats stats;
};

Search search(PathFinder& finder) {
  Search s;
  s.stats = finder.run([&s](const TruePath& p) { s.paths.push_back(p); });
  return s;
}

/// Returns the number of paths both finders enumerated.
std::size_t expect_same_search(const SearchContext& patched,
                               const netlist::Netlist& nl,
                               const PathFinderOptions& opt,
                               const std::string& at) {
  PathFinder borrowing(patched, testing::test_charlib(), opt);
  PathFinder owning(nl, testing::test_charlib(), opt);
  const Search a = search(borrowing);
  const Search b = search(owning);
  EXPECT_EQ(static_cast<const SearchCounters&>(a.stats),
            static_cast<const SearchCounters&>(b.stats))
      << at;
  EXPECT_FALSE(a.stats.truncated) << at;
  EXPECT_EQ(a.paths.size(), b.paths.size()) << at;
  for (std::size_t i = 0; i < std::min(a.paths.size(), b.paths.size());
       ++i) {
    EXPECT_EQ(a.paths[i].full_key(nl), b.paths[i].full_key(nl)) << at;
    EXPECT_EQ(a.paths[i].pi_assignment, b.paths[i].pi_assignment) << at;
  }
  return b.paths.size();
}

/// Applies `swaps` seeded same-pin-count swaps, every third one to a cell
/// of the same function, and checks the patched context (and a search on
/// it) after each.
void swap_sweep(netlist::Netlist nl, std::uint64_t seed, int swaps,
                const PathFinderOptions& opt) {
  const std::vector<cell::Cell>& cells = testing::test_library().cells();
  SearchContext ctx(nl);
  expect_equals_fresh(ctx, nl, "before any swap");
  util::Rng rng(seed);
  int function_changed = 0;
  int guide_moved = 0;
  std::size_t paths = 0;
  for (int k = 0; k < swaps; ++k) {
    const auto inst =
        static_cast<netlist::InstId>(rng.next_below(nl.num_instances()));
    const cell::Cell& old = *nl.instance(inst).cell;
    const bool keep_function = k % 3 == 2;
    std::vector<const cell::Cell*> candidates;
    for (const cell::Cell& c : cells) {
      if (c.num_inputs() != old.num_inputs()) continue;
      if ((c.function() == old.function()) != keep_function) continue;
      candidates.push_back(&c);
    }
    if (candidates.empty()) continue;
    const cell::Cell* cell = candidates[rng.next_below(candidates.size())];
    if (!(cell->function() == old.function())) ++function_changed;
    const std::vector<std::array<int, 2>> guide_before = ctx.guide().cc;

    nl.replace_cell(inst, cell);
    ctx.replace_cell(inst, cell);
    if (ctx.guide().cc != guide_before) ++guide_moved;

    const std::string at = "seed " + std::to_string(seed) + " swap " +
                           std::to_string(k) + ": " + nl.instance(inst).name +
                           " " + old.name() + " -> " + cell->name();
    expect_equals_fresh(ctx, nl, at);
    paths += expect_same_search(ctx, nl, opt, at);
  }
  EXPECT_GT(function_changed, 0);
  EXPECT_GT(guide_moved, 0) << "no swap re-propagated controllability";
  EXPECT_GT(paths, 0u);
}

TEST(SearchContext, PatchedEqualsFreshOnColumnDesigns) {
  PathFinderOptions opt;
  opt.num_threads = 2;
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    swap_sweep(column_design(seed), seed, 12, opt);
  }
}

TEST(SearchContext, PatchedEqualsFreshOnC432) {
  // Three light sources and a small budget keep each search short; the
  // context comparison covers the whole design.
  const netlist::Netlist nl = c432();
  std::vector<bool> wanted(nl.num_nets(), false);
  for (const netlist::NetId pi : nl.primary_inputs()) {
    const std::string& n = nl.net(pi).name;
    wanted[pi] = n == "I32" || n == "I25" || n == "I0";
  }
  PathFinderOptions opt;
  opt.num_threads = 2;
  opt.justify_backtrack_budget = 200;
  opt.source_filter = [wanted](netlist::NetId s) { return wanted[s]; };
  swap_sweep(nl, 432, 10, opt);
}

TEST(SearchContext, ReplaceCellMustFollowTheNetlist) {
  const netlist::Netlist nl = column_design(4);
  SearchContext ctx(nl);
  const cell::Cell& current = *nl.instance(0).cell;
  const cell::Cell* other = nullptr;
  for (const cell::Cell& c : testing::test_library().cells()) {
    if (&c != &current && c.num_inputs() == current.num_inputs()) other = &c;
  }
  ASSERT_NE(other, nullptr);
  EXPECT_THROW(ctx.replace_cell(0, other), util::Error);
}

}  // namespace
}  // namespace sasta::sta
