// Robustness fuzzing of the characterized-library text format: every
// truncation and a batch of random single-character corruptions of a valid
// file must raise util::Error (never crash, hang, or silently succeed with
// mangled data), and a malformed number anywhere must be rejected with the
// diagnostic of the field it stands in.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "charlib/serialize.h"
#include "tech/technology.h"
#include "test_charlib.h"
#include "util/rng.h"

namespace sasta::charlib {
namespace {

const std::string& serialized() {
  static const std::string text = [] {
    std::ostringstream os;
    save_charlibrary(testing::test_charlib("90nm"), os);
    return os.str();
  }();
  return text;
}

TEST(SerializeFuzz, EveryCoarseTruncationRejected) {
  const std::string& good = serialized();
  ASSERT_GT(good.size(), 1000u);
  // Sample ~200 truncation points across the file.
  const std::size_t stride = good.size() / 200 + 1;
  int rejected = 0, total = 0;
  for (std::size_t cut = 10; cut + 8 < good.size(); cut += stride) {
    ++total;
    std::istringstream is(good.substr(0, cut));
    try {
      load_charlibrary(is);
    } catch (const util::Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, total) << "a truncated library parsed successfully";
}

TEST(SerializeFuzz, RandomCorruptionsNeverCrash) {
  const std::string& good = serialized();
  util::Rng rng(4242);
  int parsed_ok = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string bad = good;
    // Flip 1-3 characters to random printable bytes.
    const int flips = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(bad.size());
      bad[pos] = static_cast<char>('!' + rng.next_below(90));
    }
    std::istringstream is(bad);
    try {
      load_charlibrary(is);
      ++parsed_ok;  // corruption hit a numeric digit: acceptable
    } catch (const util::Error&) {
      // expected for structural damage
    }
  }
  // Most corruptions damage structure; some only alter a coefficient digit.
  EXPECT_LT(parsed_ok, 300);
}

TEST(SerializeFuzz, GarbagePrefixRejectedFast) {
  for (const char* garbage :
       {"", "\n\n\n", "sasta-charlib-v1\n", "{json: true}",
        "sasta-charlib-v2 tech oops"}) {
    std::istringstream is(garbage);
    EXPECT_THROW(load_charlibrary(is), util::Error) << garbage;
  }
}

// `text` with token `index` of its first line whose first token is `record`
// replaced by `token`.
std::string with_token(const std::string& record, std::size_t index,
                       const std::string& token,
                       const std::string& text = serialized()) {
  std::istringstream lines(text);
  std::string out, line;
  bool replaced = false;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::vector<std::string> words;
    for (std::string w; fields >> w;) words.push_back(w);
    if (!replaced && !words.empty() && words[0] == record) {
      EXPECT_LT(index, words.size()) << record;
      words.at(index) = token;
      replaced = true;
      line.clear();
      for (const auto& w : words) line += (line.empty() ? "" : " ") + w;
    }
    out += line + "\n";
  }
  EXPECT_TRUE(replaced) << record;
  return out;
}

// First "arc" line layout: arc <edge> <inv> <num_vars> <num_terms>
// <num_vars * num_terms exponents> <num_terms coefficients> <errors> ...
std::size_t first_coefficient_index() {
  std::istringstream lines(serialized());
  for (std::string w; lines >> w;) {
    if (w != "arc") continue;
    std::size_t edge, inv, vars, terms;
    lines >> edge >> inv >> vars >> terms;
    return 5 + vars * terms;
  }
  ADD_FAILURE() << "no arc record";
  return 0;
}

TEST(SerializeFuzz, StrictNumericTokensRejectedWithFieldDiagnostic) {
  {
    // The unmodified file loads.
    std::istringstream is(serialized());
    EXPECT_NO_THROW(load_charlibrary(is));
  }
  struct Case {
    std::string record;
    std::size_t index;
    std::string token;
    std::string diagnostic;
  };
  const std::size_t coeff = first_coefficient_index();
  const std::vector<Case> cases = {
      // Bytes left over after the number.
      {"cells", 1, "1.5", "bad cell count"},
      {"pin", 2, "3x", "bad pin record in"},
      {"vec", 1, "0x", "bad vector record"},
      {"arc", 3, "4.0", "bad polyfit header"},
      {"arc", 5, "1e0", "bad exponent"},
      {"lut", 2, "2;", "bad LUT header"},
      {"arc", coeff, "0.5e-3q", "truncated polyfit"},
      // Out of range.
      {"cell", 3, "1e999", "bad cell record"},
      {"arc", coeff, "-1e400", "truncated polyfit"},
      {"cells", 1, "99999999999999999999999", "bad cell count"},
      {"vec", 2, "-1", "bad vector record"},
      {"lut", 5, "1" + std::string(40, '0'), "truncated LUT"},
      // Not finite.
      {"cell", 4, "nan", "bad cell record"},
      {"arc", coeff, "inf", "truncated polyfit"},
      {"lut", 5, "-inf", "truncated LUT"},
      {"lut", 5, "infinity", "truncated LUT"},
  };
  for (const Case& c : cases) {
    std::istringstream is(with_token(c.record, c.index, c.token));
    try {
      load_charlibrary(is);
      ADD_FAILURE() << c.record << "[" << c.index << "] = '" << c.token
                    << "' parsed";
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.diagnostic), std::string::npos)
          << c.token << ": " << e.what();
    }
  }
}

TEST(SerializeFuzz, NameTokensHaveNoLengthCap) {
  const std::string long_tech(300, 't');
  const std::string long_cell(300, 'c');
  std::istringstream is(
      with_token("cell", 1, long_cell, with_token("tech", 1, long_tech)));
  const CharLibrary lib = load_charlibrary(is);
  EXPECT_EQ(lib.tech_name(), long_tech);
  EXPECT_EQ(lib.timing(long_cell).pin_caps.size(), 1u);
}

}  // namespace
}  // namespace sasta::charlib
