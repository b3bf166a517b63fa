#include <gtest/gtest.h>

#include "cell/library_builder.h"
#include "tech/technology.h"
#include "util/check.h"

namespace sasta::cell {
namespace {

const Library& lib() {
  static const Library l = build_standard_library();
  return l;
}

TEST(Library, ContainsExpectedCells) {
  for (const char* name :
       {"INV", "BUF", "NAND2", "NAND3", "NAND4", "NOR2", "NOR3", "NOR4",
        "AND2", "AND3", "AND4", "OR2", "OR3", "OR4", "AOI21", "AOI22",
        "OAI21", "OAI22", "AO21", "AO22", "OA12", "OA22", "XOR2", "XNOR2",
        "MUX2"}) {
    EXPECT_NE(lib().find(name), nullptr) << name;
  }
  EXPECT_EQ(lib().find("NAND17"), nullptr);
  EXPECT_THROW(lib().cell("NAND17"), util::Error);
}

TEST(Library, EveryCellValidatesItsNetworks) {
  // Construction already runs validate(); re-check key functional points.
  const Cell& nand2 = lib().cell("NAND2");
  EXPECT_TRUE(nand2.function().value(0b00));
  EXPECT_TRUE(nand2.function().value(0b01));
  EXPECT_FALSE(nand2.function().value(0b11));

  const Cell& ao22 = lib().cell("AO22");
  EXPECT_TRUE(ao22.function().value(0b0011));
  EXPECT_TRUE(ao22.function().value(0b1100));
  EXPECT_FALSE(ao22.function().value(0b1010));

  const Cell& oa12 = lib().cell("OA12");
  // Z = (A+B)*C; pins A=0, B=1, C=2.
  EXPECT_TRUE(oa12.function().value(0b101));
  EXPECT_TRUE(oa12.function().value(0b110));
  EXPECT_FALSE(oa12.function().value(0b011));  // C=0
  EXPECT_FALSE(oa12.function().value(0b100));  // A=B=0

  const Cell& xor2 = lib().cell("XOR2");
  EXPECT_FALSE(xor2.function().value(0b00));
  EXPECT_TRUE(xor2.function().value(0b01));
  EXPECT_TRUE(xor2.function().value(0b10));
  EXPECT_FALSE(xor2.function().value(0b11));

  const Cell& mux2 = lib().cell("MUX2");
  // Z = A when S=0, B when S=1 (pins A=0, B=1, S=2).
  EXPECT_TRUE(mux2.function().value(0b001));   // A=1, S=0
  EXPECT_FALSE(mux2.function().value(0b101));  // A=1, S=1, B=0
  EXPECT_TRUE(mux2.function().value(0b110));   // B=1, S=1
}

// The per-cell prime table the justifier reads must be exactly what
// TruthTable::prime_cubes computes, in the same order: the justifier's
// branch order (and so every budget-limited verdict) follows it.
TEST(Library, CellPrimeTableMatchesTruthTablePrimes) {
  for (const Cell& c : lib().cells()) {
    for (const bool target : {false, true}) {
      const std::vector<Cube> expected = c.function().prime_cubes(target);
      const std::vector<Cube>& table = c.prime_cubes(target);
      ASSERT_EQ(table.size(), expected.size()) << c.name() << " " << target;
      ASSERT_FALSE(table.empty()) << c.name() << " " << target;
      for (std::size_t i = 0; i < table.size(); ++i) {
        EXPECT_EQ(table[i], expected[i])
            << c.name() << " " << target << " cube " << i;
      }
    }
  }
}

TEST(Library, InvalidNetworkRejected) {
  // NAND function with a parallel (NOR-like) PDN must fail validation.
  EXPECT_THROW(Cell({"BROKEN",
                     {"A", "B"},
                     Expr::inv(Expr::et(Expr::var(0), Expr::var(1))),
                     SpTree::parallel(SpTree::leaf(0), SpTree::leaf(1)),
                     false}),
               util::Error);
}

TEST(Library, ComplexGateClassification) {
  EXPECT_FALSE(lib().cell("INV").is_complex());
  EXPECT_FALSE(lib().cell("NAND2").is_complex());
  EXPECT_FALSE(lib().cell("AND3").is_complex());
  EXPECT_TRUE(lib().cell("AO22").is_complex());
  EXPECT_TRUE(lib().cell("OA12").is_complex());
  EXPECT_TRUE(lib().cell("AOI21").is_complex());
  EXPECT_TRUE(lib().cell("MUX2").is_complex());
}

TEST(Library, TransistorCounts) {
  EXPECT_EQ(lib().cell("INV").transistor_count(), 2);
  EXPECT_EQ(lib().cell("NAND2").transistor_count(), 4);
  // AO22: 8 core + 2 output inverter.
  EXPECT_EQ(lib().cell("AO22").transistor_count(), 10);
  // OA12: 6 core + 2 output inverter.
  EXPECT_EQ(lib().cell("OA12").transistor_count(), 8);
  // XOR2: 8 core + 2 input inverters (A and B) * 2 + 2 output inverter.
  EXPECT_EQ(lib().cell("XOR2").transistor_count(), 14);
}

TEST(Library, StackSizingGrowsWithDepth) {
  const auto& t = tech::technology("130nm");
  const Cell& inv = lib().cell("INV");
  const Cell& nand3 = lib().cell("NAND3");
  EXPECT_DOUBLE_EQ(inv.pdn_device_width(t), t.wn_unit_um);
  EXPECT_DOUBLE_EQ(nand3.pdn_device_width(t), 3 * t.wn_unit_um);
  // NAND3 PUN is 3 parallel PMOS: no upsizing beyond beta.
  EXPECT_DOUBLE_EQ(nand3.pun_device_width(t), t.beta_p * t.wn_unit_um);
}

TEST(Library, InputCapsPositiveAndPinDependent) {
  const auto& t = tech::technology("90nm");
  for (const Cell& c : lib().cells()) {
    for (int p = 0; p < c.num_inputs(); ++p) {
      EXPECT_GT(c.input_cap(t, p), 0.0) << c.name() << " pin " << p;
      EXPECT_LT(c.input_cap(t, p), 100e-15) << c.name() << " pin " << p;
    }
    EXPECT_GT(c.avg_input_cap(t), 0.0);
  }
  // An OA12 C-pin drives a single NMOS + single PMOS branch position; the
  // A pin does too -- but XOR2 pins load an inverter as well, so XOR2 input
  // cap must exceed the INV input cap.
  EXPECT_GT(lib().cell("XOR2").input_cap(t, 0),
            lib().cell("INV").input_cap(t, 0));
}

TEST(Library, PinIndexLookup) {
  const Cell& oa12 = lib().cell("OA12");
  EXPECT_EQ(oa12.pin_index("A"), 0);
  EXPECT_EQ(oa12.pin_index("C"), 2);
  EXPECT_THROW(oa12.pin_index("Z"), util::Error);
}

TEST(Library, DualNetworkShapes) {
  const Cell& ao22 = lib().cell("AO22");
  // PDN: (A-B)|(C-D); PUN: (A|B)-(C|D).
  EXPECT_EQ(ao22.pdn().stack_depth(), 2);
  EXPECT_EQ(ao22.pun().stack_depth(), 2);
  EXPECT_EQ(ao22.pdn().num_devices(), 4);
  EXPECT_EQ(ao22.pun().num_devices(), 4);
  const Cell& nand4 = lib().cell("NAND4");
  EXPECT_EQ(nand4.pdn().stack_depth(), 4);
  EXPECT_EQ(nand4.pun().stack_depth(), 1);
}

}  // namespace
}  // namespace sasta::cell
