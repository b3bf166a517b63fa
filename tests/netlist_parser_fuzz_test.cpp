// Robustness fuzzing of the netlist readers: seeded, bounded mutations of
// valid .bench and structural Verilog text (byte flips, truncations,
// duplicated and deleted lines, inserted structural characters) must each
// either parse (the readers validate what they build) or raise one
// util::Error with a message — never a crash, a hang, or another exception
// type.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netlist/bench_parser.h"
#include "netlist/techmap.h"
#include "netlist/verilog.h"
#include "test_charlib.h"
#include "util/check.h"
#include "util/rng.h"

namespace sasta::netlist {
namespace {

const std::vector<std::string>& bench_seeds() {
  static const std::vector<std::string> seeds = {
      c17_bench_text(),
      "# every primitive\n"
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(x)\nOUTPUT(y)\n"
      "n1 = AND(a, b)\nn2 = NOR(b, c)\nn3 = XOR(n1, n2)\n"
      "n4 = NOT(n3)\nn5 = BUFF(a)\nx = XNOR(n4, n5, c)\n"
      "y = OR(n1, n2)  # trailing comment\n",
      "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n",
  };
  return seeds;
}

const std::vector<std::string>& verilog_seeds() {
  static const std::vector<std::string> seeds = {
      write_verilog_string(
          tech_map(parse_bench_string(c17_bench_text(), "c17"),
                   testing::test_library())
              .netlist),
      "module m (a, b, z);\n"
      "  input a, b;\n"
      "  output z;\n"
      "  wire n1;\n"
      "  NAND2 g0 (.A(a), .B(b), .Z(n1));\n"
      "  INV g1 (n1, z);\n"
      "endmodule\n",
  };
  return seeds;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t nl = s.find('\n', at);
    if (nl == std::string::npos) {
      if (at < s.size()) lines.push_back(s.substr(at));
      break;
    }
    lines.push_back(s.substr(at, nl - at));
    at = nl + 1;
  }
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string s;
  for (const std::string& l : lines) s += l + "\n";
  return s;
}

/// One random mutation of `s`.
void mutate(std::string& s, util::Rng& rng) {
  static const char kInserts[] = {'(', ')', '=', ','};
  switch (rng.next_below(6)) {
    case 0:  // byte flip
      if (!s.empty()) {
        s[rng.next_below(s.size())] = static_cast<char>(rng.next_below(256));
      }
      break;
    case 1:  // truncation
      s.resize(rng.next_below(s.size() + 1));
      break;
    case 2: {  // duplicated line
      std::vector<std::string> lines = split_lines(s);
      if (lines.empty()) break;
      const std::size_t i = rng.next_below(lines.size());
      lines.insert(lines.begin() + rng.next_below(lines.size() + 1),
                   lines[i]);
      s = join_lines(lines);
      break;
    }
    case 3: {  // deleted line
      std::vector<std::string> lines = split_lines(s);
      if (lines.empty()) break;
      lines.erase(lines.begin() + rng.next_below(lines.size()));
      s = join_lines(lines);
      break;
    }
    default:  // inserted structural character
      s.insert(s.begin() + rng.next_below(s.size() + 1),
               kInserts[rng.next_below(sizeof(kInserts))]);
      break;
  }
}

struct Tally {
  int parsed = 0;
  int rejected = 0;
};

/// Runs `parse` on `trials` mutants of the seeds; anything but success or
/// a util::Error with a message fails the test.
template <typename Parse>
Tally fuzz(const std::vector<std::string>& seeds, std::uint64_t seed,
           int trials, Parse&& parse) {
  util::Rng rng(seed);
  Tally tally;
  for (int trial = 0; trial < trials; ++trial) {
    std::string text = seeds[rng.next_below(seeds.size())];
    const int mutations = 1 + static_cast<int>(rng.next_below(3));
    for (int m = 0; m < mutations; ++m) mutate(text, rng);
    try {
      parse(text);
      ++tally.parsed;
    } catch (const util::Error& e) {
      EXPECT_NE(std::string(e.what()), "") << text;
      ++tally.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "non-util::Error exception '" << e.what()
                    << "' for input:\n"
                    << text;
    }
    if (::testing::Test::HasFailure()) break;  // first counterexample only
  }
  return tally;
}

TEST(NetlistParserFuzz, SeedsParse) {
  for (const std::string& text : bench_seeds()) {
    EXPECT_NO_THROW(parse_bench_string(text, "seed")) << text;
  }
  for (const std::string& text : verilog_seeds()) {
    EXPECT_NO_THROW(parse_verilog_string(text, testing::test_library()))
        << text;
  }
}

TEST(NetlistParserFuzz, MutatedBenchParsesOrRaisesUtilError) {
  const Tally t = fuzz(bench_seeds(), 20261017, 20000,
                       [](const std::string& text) {
                         parse_bench_string(text, "fuzz");
                       });
  // Both exits must be exercised, or the mutations test nothing.
  EXPECT_GT(t.parsed, 100);
  EXPECT_GT(t.rejected, 100);
}

TEST(NetlistParserFuzz, MutatedVerilogParsesOrRaisesUtilError) {
  const Tally t = fuzz(verilog_seeds(), 17102026, 20000,
                       [](const std::string& text) {
                         parse_verilog_string(text, testing::test_library());
                       });
  EXPECT_GT(t.parsed, 100);
  EXPECT_GT(t.rejected, 100);
}

}  // namespace
}  // namespace sasta::netlist
