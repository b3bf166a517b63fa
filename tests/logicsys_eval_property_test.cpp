// Property tests of the three-valued evaluation used by the implication
// engine: eval3 must agree exactly with brute-force enumeration of the X
// inputs for random functions, and must be monotone in the information
// order (more-defined inputs can only make the output more defined, never
// change a determined value).
#include <gtest/gtest.h>

#include "cell/boolfunc.h"
#include "util/rng.h"

namespace sasta::cell {
namespace {

using logicsys::TriVal;

TriVal brute_eval3(const TruthTable& t, const std::vector<TriVal>& in) {
  bool saw0 = false, saw1 = false;
  const int n = t.num_inputs();
  for (std::uint32_t m = 0; m < (1u << n); ++m) {
    bool consistent = true;
    for (int i = 0; i < n && consistent; ++i) {
      const bool bit = (m >> i) & 1;
      if (in[i] == TriVal::kOne && !bit) consistent = false;
      if (in[i] == TriVal::kZero && bit) consistent = false;
    }
    if (!consistent) continue;
    (t.value(m) ? saw1 : saw0) = true;
  }
  if (saw0 && saw1) return TriVal::kX;
  return saw1 ? TriVal::kOne : TriVal::kZero;
}

// Every one of the 3^n input vectors, n = 1..6, on random functions plus
// the constants and parity: covers 1-input cells and the full 64-bit word
// of a 6-input function, where the cube masks reach the top bit.
TEST(Eval3Property, MatchesBruteForceOnRandomFunctions) {
  util::Rng rng(515);
  for (int n = 1; n <= 6; ++n) {
    std::vector<std::uint64_t> functions = {0, ~std::uint64_t{0},
                                            0x6996966996696996ull};
    for (int f = 0; f < 24; ++f) functions.push_back(rng.next_u64());
    for (const std::uint64_t bits : functions) {
      const TruthTable t = TruthTable::from_bits(bits, n);
      std::uint32_t num_vectors = 1;
      for (int i = 0; i < n; ++i) num_vectors *= 3;
      std::vector<TriVal> in(n);
      for (std::uint32_t code = 0; code < num_vectors; ++code) {
        std::uint32_t rest = code;
        for (auto& v : in) {
          v = static_cast<TriVal>(rest % 3);
          rest /= 3;
        }
        ASSERT_EQ(t.eval3(in), brute_eval3(t, in))
            << "n=" << n << " tt=" << t.to_string() << " vector " << code;
      }
    }
  }
}

TEST(Eval3Property, MonotoneInInformationOrder) {
  util::Rng rng(616);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 2 + static_cast<int>(rng.next_below(4));
    const TruthTable t = TruthTable::from_bits(rng.next_u64(), n);
    std::vector<TriVal> weak(n);
    for (auto& v : weak) {
      const auto r = rng.next_below(3);
      v = r == 0 ? TriVal::kZero : r == 1 ? TriVal::kOne : TriVal::kX;
    }
    // Refine one X input (if any) to a constant.
    std::vector<TriVal> strong = weak;
    for (auto& v : strong) {
      if (v == TriVal::kX) {
        v = rng.next_bool() ? TriVal::kOne : TriVal::kZero;
        break;
      }
    }
    const TriVal w = t.eval3(weak);
    const TriVal s = t.eval3(strong);
    if (w != TriVal::kX) {
      EXPECT_EQ(s, w) << "determined output changed under refinement";
    }
  }
}

TEST(Eval3Property, AllKnownInputsAlwaysDetermined) {
  util::Rng rng(717);
  for (int trial = 0; trial < 100; ++trial) {
    const int n = 1 + static_cast<int>(rng.next_below(5));
    const TruthTable t = TruthTable::from_bits(rng.next_u64(), n);
    std::vector<TriVal> in(n);
    std::uint32_t m = 0;
    for (int i = 0; i < n; ++i) {
      const bool bit = rng.next_bool();
      in[i] = logicsys::tri_from_bool(bit);
      if (bit) m |= 1u << i;
    }
    EXPECT_EQ(t.eval3(in), logicsys::tri_from_bool(t.value(m)));
  }
}

}  // namespace
}  // namespace sasta::cell
