#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cell/library_builder.h"
#include "netlist/bench_parser.h"
#include "netlist/iscas_gen.h"
#include "netlist/levelize.h"
#include "netlist/techmap.h"
#include "netlist/verilog.h"
#include "util/check.h"

namespace sasta::netlist {
namespace {

const cell::Library& lib() {
  static const cell::Library l = cell::build_standard_library();
  return l;
}

/// Evaluates a mapped netlist on a PI assignment (by net name -> value).
std::vector<int> evaluate_netlist(const Netlist& nl,
                                  const std::vector<int>& pi_values) {
  std::vector<int> value(nl.num_nets(), -1);
  const auto& pis = nl.primary_inputs();
  for (std::size_t i = 0; i < pis.size(); ++i) value[pis[i]] = pi_values[i];
  const Levelization lv = levelize(nl);
  for (InstId ii : lv.topo_order) {
    const Instance& inst = nl.instance(ii);
    std::uint32_t m = 0;
    for (std::size_t p = 0; p < inst.inputs.size(); ++p) {
      EXPECT_GE(value[inst.inputs[p]], 0) << "input not ready";
      if (value[inst.inputs[p]]) m |= 1u << p;
    }
    value[inst.output] = inst.cell->function().value(m) ? 1 : 0;
  }
  std::vector<int> out;
  for (NetId po : nl.primary_outputs()) out.push_back(value[po]);
  return out;
}

/// Evaluates the primitive netlist directly (reference semantics).
std::vector<int> evaluate_prim(const PrimNetlist& nl,
                               const std::vector<int>& pi_values) {
  std::vector<int> value(nl.num_signals(), -1);
  for (std::size_t i = 0; i < nl.inputs.size(); ++i) {
    value[nl.inputs[i]] = pi_values[i];
  }
  // Iterate to fixpoint (gates are in arbitrary order).
  bool progress = true;
  while (progress) {
    progress = false;
    for (const auto& g : nl.gates) {
      if (value[g.output] >= 0) continue;
      bool ready = true;
      for (int in : g.inputs) ready = ready && value[in] >= 0;
      if (!ready) continue;
      int acc = 0;
      switch (g.op) {
        case PrimOp::kAnd:
        case PrimOp::kNand: {
          acc = 1;
          for (int in : g.inputs) acc &= value[in];
          if (g.op == PrimOp::kNand) acc ^= 1;
          break;
        }
        case PrimOp::kOr:
        case PrimOp::kNor: {
          acc = 0;
          for (int in : g.inputs) acc |= value[in];
          if (g.op == PrimOp::kNor) acc ^= 1;
          break;
        }
        case PrimOp::kNot:
          acc = value[g.inputs[0]] ^ 1;
          break;
        case PrimOp::kBuf:
          acc = value[g.inputs[0]];
          break;
        case PrimOp::kXor:
        case PrimOp::kXnor: {
          acc = 0;
          for (int in : g.inputs) acc ^= value[in];
          if (g.op == PrimOp::kXnor) acc ^= 1;
          break;
        }
      }
      value[g.output] = acc;
      progress = true;
    }
  }
  std::vector<int> out;
  for (int po : nl.outputs) out.push_back(value[po]);
  return out;
}

TEST(TechMap, C17MapsToNands) {
  const PrimNetlist prim = parse_bench_string(c17_bench_text(), "c17");
  const TechMapResult r = tech_map(prim, lib());
  EXPECT_EQ(r.netlist.num_instances(), 6);
  EXPECT_EQ(r.count("NAND2"), 6);
  EXPECT_NO_THROW(r.netlist.validate());
}

TEST(TechMap, FusesAoPattern) {
  // z = OR(AND(a,b), AND(c,d)) with single fanout -> one AO22.
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z)
t1 = AND(a, b)
t2 = AND(c, d)
z = OR(t1, t2)
)";
  const TechMapResult r = tech_map(parse_bench_string(text), lib());
  EXPECT_EQ(r.count("AO22"), 1);
  EXPECT_EQ(r.netlist.num_instances(), 1);
}

TEST(TechMap, FusesOaAndInverterFold) {
  // y = NOT(AND(OR(a,b), c)): the OR leg fuses and the NOT folds -> OAI21.
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
t1 = OR(a, b)
t2 = AND(t1, c)
y = NOT(t2)
)";
  const TechMapResult r = tech_map(parse_bench_string(text), lib());
  EXPECT_EQ(r.count("OAI21"), 1);
  EXPECT_EQ(r.netlist.num_instances(), 1);
}

TEST(TechMap, NoFusionAcrossFanout) {
  // t1 has fanout 2: it must stay a separate AND2 (no AO21 absorption).
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z)
OUTPUT(w)
t1 = AND(a, b)
z = OR(t1, c)
w = NAND(t1, c)
)";
  const TechMapResult r = tech_map(parse_bench_string(text), lib());
  EXPECT_EQ(r.count("AND2"), 1);
  EXPECT_EQ(r.count("AO21"), 0);
  EXPECT_EQ(r.count("OR2"), 1);
  EXPECT_EQ(r.count("NAND2"), 1);
}

TEST(TechMap, DecomposesWideGates) {
  // 9-input NAND must become a tree of <=4-input cells.
  std::string text = "OUTPUT(z)\n";
  std::string args;
  for (int i = 0; i < 9; ++i) {
    text = "INPUT(i" + std::to_string(i) + ")\n" + text;
    if (i) args += ", ";
    args += "i" + std::to_string(i);
  }
  text += "z = NAND(" + args + ")\n";
  const TechMapResult r = tech_map(parse_bench_string(text), lib());
  EXPECT_NO_THROW(r.netlist.validate());
  for (const auto& inst : r.netlist.instances()) {
    EXPECT_LE(inst.cell->num_inputs(), 4);
  }
  // Functional check: NAND of all ones is 0, anything else 1.
  std::vector<int> all1(9, 1);
  EXPECT_EQ(evaluate_netlist(r.netlist, all1)[0], 0);
  std::vector<int> mixed(9, 1);
  mixed[4] = 0;
  EXPECT_EQ(evaluate_netlist(r.netlist, mixed)[0], 1);
}

TEST(TechMap, OptionsDisableFusion) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(z)
t1 = AND(a, b)
t2 = AND(c, d)
z = OR(t1, t2)
)";
  TechMapOptions opt;
  opt.fuse_complex = false;
  const TechMapResult r = tech_map(parse_bench_string(text), lib(), opt);
  EXPECT_EQ(r.count("AO22"), 0);
  EXPECT_EQ(r.count("AND2"), 2);
  EXPECT_EQ(r.count("OR2"), 1);
}

// Property: mapping preserves the logic function on random vectors.
TEST(TechMap, PreservesSemanticsOnRandomVectors) {
  const std::string text = R"(
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(z1)
OUTPUT(z2)
t1 = AND(a, b)
t2 = OR(c, d)
t3 = NAND(t1, t2, e)
t4 = XOR(a, t2)
t5 = NOT(t3)
z1 = OR(t5, t4)
z2 = NOR(t1, t4)
)";
  const PrimNetlist prim = parse_bench_string(text);
  const TechMapResult r = tech_map(prim, lib());
  for (std::uint32_t m = 0; m < 32; ++m) {
    std::vector<int> pi(5);
    for (int i = 0; i < 5; ++i) pi[i] = (m >> i) & 1;
    EXPECT_EQ(evaluate_netlist(r.netlist, pi), evaluate_prim(prim, pi))
        << "input " << m;
  }
}

/// The mapped netlist as Verilog text: equal text, equal netlist.
std::string verilog_text(const Netlist& nl) {
  std::ostringstream os;
  write_verilog(nl, os);
  return os.str();
}

// The one design resolver (CLI and daemon `load`) builds exactly what the
// hand-written parse/generate + tech_map pipeline builds.
TEST(ResolveDesign, MatchesTheHandWrittenPipeline) {
  const ResolvedDesign c17 = resolve_design("c17", lib());
  EXPECT_FALSE(c17.synthetic);
  EXPECT_EQ(verilog_text(c17.netlist),
            verilog_text(
                tech_map(parse_bench_string(c17_bench_text(), "c17"), lib())
                    .netlist));

  const ResolvedDesign c432 = resolve_design("c432", lib());
  EXPECT_TRUE(c432.synthetic);
  EXPECT_EQ(
      verilog_text(c432.netlist),
      verilog_text(
          tech_map(generate_iscas_like(iscas_profile("c432")), lib()).netlist));

  // A .bench file and a mapped .v file resolve from the disk.
  const std::filesystem::path dir = std::filesystem::temp_directory_path();
  const std::string bench = (dir / "sasta_resolve_c17.bench").string();
  const std::string verilog = (dir / "sasta_resolve_c17.v").string();
  std::ofstream(bench) << c17_bench_text();
  std::ofstream(verilog) << verilog_text(c17.netlist);
  EXPECT_EQ(verilog_text(resolve_design(bench, lib()).netlist),
            verilog_text(tech_map(parse_bench_file(bench), lib()).netlist));
  EXPECT_EQ(verilog_text(resolve_design(verilog, lib()).netlist),
            verilog_text(c17.netlist));
  std::filesystem::remove(bench);
  std::filesystem::remove(verilog);
}

TEST(ResolveDesign, UnknownNameThrows) {
  EXPECT_THROW(resolve_design("no_such_design", lib()), util::Error);
}

}  // namespace
}  // namespace sasta::netlist
