#include <gtest/gtest.h>

#include <filesystem>

#include "netlist/fig4_testcircuit.h"
#include "sta/corners.h"
#include "sta/sdf_writer.h"
#include "sta/sta_tool.h"
#include "tech/technology.h"
#include "test_charlib.h"

namespace sasta::sta {
namespace {

const tech::Technology& T() { return tech::technology("90nm"); }

/// Full-profile (T/VDD-swept) characterization of just the Fig.4 cells:
/// corner analysis needs real temperature/voltage coefficients, which the
/// fast test profile deliberately omits.  Cached on disk.
const charlib::CharLibrary& full_fig4_charlib() {
  static const charlib::CharLibrary cl = [] {
    const std::string path = "sasta-test-charcache/fig4_full_90nm_v1.txt";
    if (std::filesystem::exists(path)) {
      try {
        return charlib::load_charlibrary_file(path);
      } catch (const util::Error&) {
      }
    }
    charlib::CharacterizeOptions opt;
    opt.profile = charlib::CharacterizeOptions::Profile::kFull;
    charlib::CharLibrary fresh = charlib::characterize_cells(
        testing::test_library(), T(), opt,
        {"INV", "NAND2", "OR2", "AND2", "AO22"});
    std::filesystem::create_directories("sasta-test-charcache");
    charlib::save_charlibrary_file(fresh, path);
    return fresh;
  }();
  return cl;
}

TEST(Corners, DefaultSetOrderedSlowToFast) {
  const auto corners = default_corners(T());
  ASSERT_EQ(corners.size(), 3u);
  EXPECT_EQ(corners[0].name, "fast");
  EXPECT_EQ(corners[2].name, "slow");
  EXPECT_GT(corners[0].vdd, corners[2].vdd);
  EXPECT_LT(corners[0].temp_c, corners[2].temp_c);
}

TEST(Corners, SlowCornerSlowestFastCornerFastest) {
  const auto fig4 = netlist::build_fig4_circuit(testing::test_library());
  StaToolOptions opt;
  opt.keep_worst = 32;
  const StaResult run = StaTool(fig4.nl, full_fig4_charlib(), T(), opt).run();
  const auto res = analyze_corners(fig4.nl, full_fig4_charlib(), T(),
                                   default_corners(T()), run.paths);
  ASSERT_EQ(res.corners.size(), 3u);
  const double fast = res.corners[0].critical_delay;
  const double typ = res.corners[1].critical_delay;
  const double slow = res.corners[2].critical_delay;
  EXPECT_LT(fast, typ);
  EXPECT_LT(typ, slow);
  // Meaningful spread: slow/fast > 1.15 for +-10 % VDD and 0..125 degC.
  EXPECT_GT(slow / fast, 1.15);
  EXPECT_EQ(&res.worst(), &res.corners[2]);
  // The retained critical path has stage data at every corner.
  EXPECT_EQ(res.corners[2].critical.stage_delays.size(),
            res.corners[2].critical.path.steps.size());
}

TEST(Corners, EmptyCornerListRejected) {
  const auto fig4 = netlist::build_fig4_circuit(testing::test_library());
  EXPECT_THROW(analyze_corners(fig4.nl, testing::test_charlib("90nm"), T(),
                               {}, {}),
               util::Error);
}

TEST(Sdf, StructureAndVectorSpread) {
  const auto fig4 = netlist::build_fig4_circuit(testing::test_library());
  const std::string sdf = write_sdf_string(
      fig4.nl, testing::test_charlib("90nm"), T());
  EXPECT_NE(sdf.find("(DELAYFILE"), std::string::npos);
  EXPECT_NE(sdf.find("(DESIGN \"fig4\")"), std::string::npos);
  EXPECT_NE(sdf.find("(CELLTYPE \"AO22\")"), std::string::npos);
  EXPECT_NE(sdf.find("(INSTANCE ao22)"), std::string::npos);
  EXPECT_NE(sdf.find("(IOPATH A Z"), std::string::npos);
  // Balanced parentheses.
  long depth = 0;
  for (char c : sdf) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // The AO22's input-A IOPATH triple must have min < max (the vector
  // spread); the INV instance's triple must be degenerate (min == max).
  const auto ao22_pos = sdf.find("(CELLTYPE \"AO22\")");
  const auto iopath = sdf.find("(IOPATH A Z", ao22_pos);
  ASSERT_NE(iopath, std::string::npos);
  double mn, tp, mx;
  ASSERT_EQ(std::sscanf(sdf.c_str() + iopath, "(IOPATH A Z (%lf:%lf:%lf)",
                        &mn, &tp, &mx),
            3);
  EXPECT_LT(mn, mx);
  EXPECT_GE(tp, mn);
  EXPECT_LE(tp, mx);
}

TEST(Sdf, DegenerateTripleForSimpleCells) {
  const auto fig4 = netlist::build_fig4_circuit(testing::test_library());
  const std::string sdf = write_sdf_string(
      fig4.nl, testing::test_charlib("90nm"), T());
  const auto inv_pos = sdf.find("(CELLTYPE \"INV\")");
  ASSERT_NE(inv_pos, std::string::npos);
  const auto iopath = sdf.find("(IOPATH A Z", inv_pos);
  ASSERT_NE(iopath, std::string::npos);
  double mn, tp, mx;
  ASSERT_EQ(std::sscanf(sdf.c_str() + iopath, "(IOPATH A Z (%lf:%lf:%lf)",
                        &mn, &tp, &mx),
            3);
  EXPECT_DOUBLE_EQ(mn, mx);  // single sensitization vector
}

}  // namespace
}  // namespace sasta::sta
