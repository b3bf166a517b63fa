#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <sstream>
#include <vector>

#include "cell/library_builder.h"
#include "charlib/characterizer.h"
#include "charlib/serialize.h"
#include "tech/technology.h"

namespace sasta::charlib {
namespace {

using spice::Edge;

const cell::Library& lib() {
  static const cell::Library l = cell::build_standard_library();
  return l;
}

CharacterizeOptions fast_options() {
  CharacterizeOptions opt;
  opt.profile = CharacterizeOptions::Profile::kFast;
  return opt;
}

// Characterize a small cell set once and share it across tests in this file.
const CharLibrary& fast_charlib() {
  static const CharLibrary cl = characterize_cells(
      lib(), tech::technology("90nm"), fast_options(),
      {"INV", "NAND2", "AO22", "OA12"});
  return cl;
}

TEST(Characterizer, MeasuresPlausibleInverterPoint) {
  const cell::Cell& inv = lib().cell("INV");
  const auto vecs = enumerate_sensitization(inv.function(), 0);
  ModelPoint pt{2.0, 50e-12, 25.0, 1.0};
  const auto m = measure_arc_point(inv, tech::technology("90nm"), vecs[0],
                                   Edge::kRise, pt);
  EXPECT_GT(m.delay_s, 1e-12);
  EXPECT_LT(m.delay_s, 300e-12);
  EXPECT_GT(m.out_slew_s, 1e-12);
  EXPECT_LT(m.out_slew_s, 1e-9);
}

TEST(Characterizer, ArcModelTracksLoadAndSlew) {
  const CellTiming& t = fast_charlib().timing("INV");
  const ArcModel& arc = t.arc(0, 0, Edge::kRise);
  EXPECT_TRUE(arc.inverting());
  const double d_light = arc.delay({1.0, 40e-12, 25.0, 1.0});
  const double d_heavy = arc.delay({6.0, 40e-12, 25.0, 1.0});
  EXPECT_GT(d_heavy, d_light);
  const double d_fast_in = arc.delay({2.0, 30e-12, 25.0, 1.0});
  const double d_slow_in = arc.delay({2.0, 150e-12, 25.0, 1.0});
  EXPECT_GT(d_slow_in, d_fast_in);
  // Output slew grows with load.
  EXPECT_GT(arc.output_slew({6.0, 40e-12, 25.0, 1.0}),
            arc.output_slew({1.0, 40e-12, 25.0, 1.0}));
}

TEST(Characterizer, ModelMatchesFreshMeasurementOffGrid) {
  // The polynomial must interpolate within a few percent at a point that
  // was not part of the training grid.
  const CellTiming& t = fast_charlib().timing("NAND2");
  const cell::Cell& c = lib().cell("NAND2");
  const auto& vec = t.vector(0, 0);
  ModelPoint pt{2.7, 65e-12, 25.0, 1.0};
  const auto m =
      measure_arc_point(c, tech::technology("90nm"), vec, Edge::kFall, pt);
  const double predicted = t.arc(0, 0, Edge::kFall).delay(pt);
  EXPECT_NEAR(predicted, m.delay_s, 0.10 * m.delay_s);
}

// The heart of the paper: characterized arcs for different sensitization
// vectors of the same pin must differ measurably.
TEST(Characterizer, Ao22VectorsHaveDistinctDelays) {
  const CellTiming& t = fast_charlib().timing("AO22");
  ASSERT_EQ(t.num_vectors(0), 3);
  ModelPoint pt{1.0, 50e-12, 25.0, 1.0};
  const double d1 = t.arc(0, 0, Edge::kFall).delay(pt);
  const double d2 = t.arc(0, 1, Edge::kFall).delay(pt);
  const double d3 = t.arc(0, 2, Edge::kFall).delay(pt);
  // Case 1 fastest; spread at least 2%.
  EXPECT_LT(d1, d2);
  EXPECT_LT(d1, d3);
  EXPECT_GT((std::max(d2, d3) - d1) / d1, 0.02);
}

TEST(Characterizer, LutUsesCanonicalVectorOnly) {
  const CellTiming& t = fast_charlib().timing("AO22");
  const LutModel& lut = t.lut(0, Edge::kFall);
  // The LUT at a grid point must match the canonical-vector (Case 1) poly
  // model, not the slower vectors.
  const double lut_d = lut.delay(50e-12, 1.5);
  const double poly_d1 = t.arc(0, 0, Edge::kFall).delay({1.5, 50e-12, 25.0, 1.0});
  const double poly_d2 = t.arc(0, 1, Edge::kFall).delay({1.5, 50e-12, 25.0, 1.0});
  EXPECT_NEAR(lut_d, poly_d1, 0.08 * poly_d1);
  EXPECT_GT(poly_d2, lut_d);
}

TEST(Characterizer, PinCapsExposed) {
  const CellTiming& t = fast_charlib().timing("AO22");
  ASSERT_EQ(t.pin_caps.size(), 4u);
  EXPECT_GT(t.avg_input_cap, 0.0);
  for (double c : t.pin_caps) EXPECT_GT(c, 0.0);
}

TEST(Serialize, RoundTripPreservesModels) {
  const CharLibrary& original = fast_charlib();
  std::stringstream ss;
  save_charlibrary(original, ss);
  const std::string saved = ss.str();
  const CharLibrary loaded = load_charlibrary(ss);
  EXPECT_EQ(loaded.tech_name(), original.tech_name());
  EXPECT_EQ(loaded.profile(), original.profile());
  ASSERT_EQ(loaded.all().size(), original.all().size());
  const CellTiming& a = original.timing("AO22");
  const CellTiming& b = loaded.timing("AO22");
  EXPECT_EQ(a.vectors[0].size(), b.vectors[0].size());
  EXPECT_DOUBLE_EQ(a.avg_input_cap, b.avg_input_cap);
  for (const ModelPoint pt : {ModelPoint{1.0, 50e-12, 25.0, 1.0},
                              ModelPoint{4.4, 90e-12, 25.0, 1.0}}) {
    for (int vec = 0; vec < 3; ++vec) {
      EXPECT_NEAR(a.arc(0, vec, Edge::kRise).delay(pt),
                  b.arc(0, vec, Edge::kRise).delay(pt), 1e-18);
    }
  }
  EXPECT_NEAR(a.lut(0, Edge::kFall).delay(60e-12, 2.0),
              b.lut(0, Edge::kFall).delay(60e-12, 2.0), 1e-18);

  // Every number survives the text exactly: re-saving what either entry
  // point loaded reproduces the original bytes.
  std::ostringstream resaved;
  save_charlibrary(loaded, resaved);
  EXPECT_EQ(resaved.str(), saved);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sasta_roundtrip_" + std::to_string(::getpid()) + ".txt"))
          .string();
  save_charlibrary_file(original, path);
  const CharLibrary from_file = load_charlibrary_file(path);
  std::filesystem::remove(path);
  std::ostringstream resaved_file;
  save_charlibrary(from_file, resaved_file);
  EXPECT_EQ(resaved_file.str(), saved);
}

TEST(Serialize, RejectsCorruptHeader) {
  std::stringstream ss("not-a-charlib\n");
  EXPECT_THROW(load_charlibrary(ss), util::Error);
}

TEST(Serialize, CacheRoundTrip) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "sasta_cache_test").string();
  std::filesystem::remove_all(dir);
  cell::Library small;
  small.add(cell::Cell({"INV",
                        {"A"},
                        cell::Expr::inv(cell::Expr::var(0)),
                        cell::SpTree::leaf(0),
                        false}));
  const auto& t = tech::technology("90nm");
  const CharLibrary first =
      load_or_characterize(small, t, fast_options(), dir);
  // The write is atomic: exactly the cache file, no temporary left behind.
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 1u);
  const std::filesystem::path cache_file = files[0];
  EXPECT_EQ(cache_file.extension(), ".txt");
  // Second call must hit the cache (same content).
  const CharLibrary second =
      load_or_characterize(small, t, fast_options(), dir);
  EXPECT_EQ(second.all().size(), first.all().size());
  EXPECT_NEAR(second.timing("INV").arc(0, 0, Edge::kRise)
                  .delay({2.0, 50e-12, 25.0, 1.0}),
              first.timing("INV").arc(0, 0, Edge::kRise)
                  .delay({2.0, 50e-12, 25.0, 1.0}),
              1e-18);

  // A truncated cache file is reported and replaced by a fresh
  // characterization, which loads again.
  std::filesystem::resize_file(cache_file,
                               std::filesystem::file_size(cache_file) / 2);
  ::testing::internal::CaptureStderr();
  const CharLibrary third =
      load_or_characterize(small, t, fast_options(), dir);
  const std::string log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(log.find("cache read failed"), std::string::npos) << log;
  EXPECT_EQ(third.all().size(), first.all().size());
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  EXPECT_NO_THROW(load_charlibrary_file(cache_file.string()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sasta::charlib
