// Technology mapping: primitive .bench netlists -> library-cell netlists.
//
// The paper evaluates ISCAS circuits "synthesized using standard cells",
// which is how AO22/OA12-style complex gates enter the designs.  This
// mapper reproduces that synthesis step:
//   1. wide primitive gates are decomposed into balanced <=4-input trees
//      (XOR/XNOR into 2-input trees);
//   2. single-fanout NOT-over-AND/OR pairs are folded into NAND/NOR;
//   3. single-fanout AND/OR legs under OR/AND/NOR/NAND roots are fused into
//      the complex cells AO21/AO22/OA12/OA22/AOI21/AOI22/OAI21/OAI22.
#pragma once

#include <map>
#include <string>

#include "cell/cell.h"
#include "netlist/netlist.h"

namespace sasta::netlist {

struct TechMapOptions {
  bool fold_inverters = true;  ///< NOT(AND)->NAND, NOT(OR)->NOR
  bool fuse_complex = true;    ///< build AO/OA/AOI/OAI complex gates
};

struct TechMapResult {
  Netlist netlist;
  std::map<std::string, int> cell_histogram;

  int count(const std::string& cell_name) const {
    auto it = cell_histogram.find(cell_name);
    return it == cell_histogram.end() ? 0 : it->second;
  }
};

/// Maps `prim` onto `lib`.  The returned netlist references cells owned by
/// `lib`, which must outlive it.
TechMapResult tech_map(const PrimNetlist& prim, const cell::Library& lib,
                       const TechMapOptions& options = {});

struct ResolvedDesign {
  Netlist netlist;
  bool synthetic = false;  ///< generated from a built-in ISCAS-like profile
};
/// The CLI's and the daemon's design names: "c17", an existing .v/.verilog
/// file (already mapped), an existing .bench file, or an ISCAS profile name
/// (c432, ...), tech_map'ed onto `lib`.  Throws util::Error otherwise.
ResolvedDesign resolve_design(const std::string& name,
                              const cell::Library& lib);

}  // namespace sasta::netlist
