// The justifier's support-disjoint goal partitioning is a pure search
// optimization: results must be identical with and without it, on random
// circuits and random goal sets.
#include <gtest/gtest.h>

#include "netlist/iscas_gen.h"
#include "netlist/techmap.h"
#include "sta/justify.h"
#include "sta/search_context.h"
#include "test_charlib.h"
#include "util/rng.h"

namespace sasta::sta {
namespace {

TEST(JustifyPartition, SameVerdictWithAndWithoutPartitioning) {
  util::Rng rng(905);
  for (std::uint64_t seed : {1ULL, 4ULL, 9ULL, 16ULL}) {
    netlist::GeneratorProfile p;
    p.name = "jp";
    p.num_inputs = 10;
    p.num_outputs = 4;
    p.num_gates = 30;
    p.depth = 5;
    p.seed = seed;
    const netlist::Netlist nl =
        netlist::tech_map(netlist::generate_iscas_like(p),
                          testing::test_library())
            .netlist;
    const SearchContext ctx(nl);

    for (int trial = 0; trial < 40; ++trial) {
      // Random goal set over internal nets.
      std::vector<Goal> goals;
      const int k = 1 + static_cast<int>(rng.next_below(4));
      for (int g = 0; g < k; ++g) {
        const netlist::NetId net =
            static_cast<netlist::NetId>(rng.next_below(nl.num_nets()));
        goals.push_back({net, rng.next_bool()});
      }

      AssignmentState s1(nl.num_nets());
      ImplicationEngine e1(nl, s1);
      Justifier j1(nl, s1, e1);
      const auto plain = j1.justify_all(goals, kScenarioBoth);

      AssignmentState s2(nl.num_nets());
      ImplicationEngine e2(nl, s2);
      Justifier j2(nl, s2, e2);
      j2.set_supports(ctx.supports(), ctx.support_words());
      const auto split = j2.justify_all(goals, kScenarioBoth);

      EXPECT_EQ(plain.alive, split.alive)
          << "seed " << seed << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace sasta::sta
