// Timing signoff mini-flow: multi-corner analysis, slack report against a
// required time, detailed critical-path report, and SDF annotation export —
// the pieces a downstream user chains after the sensitization-aware
// analysis.
//
// Usage: timing_signoff [CIRCUIT] [REQUIRED_PS]   (defaults: c432 900)
#include <fstream>
#include <iostream>

#include "cell/library_builder.h"
#include "charlib/serialize.h"
#include "netlist/techmap.h"
#include "sta/corners.h"
#include "sta/report.h"
#include "sta/sdf_writer.h"
#include "sta/sta_tool.h"
#include "sta/variation.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace sasta;
  const std::string circuit = argc > 1 ? argv[1] : "c432";
  const double required_ps = argc > 2 ? std::stod(argv[2]) : 900.0;

  const cell::Library lib = cell::build_standard_library();
  const auto& tech = tech::technology("90nm");
  const netlist::ResolvedDesign design = netlist::resolve_design(circuit, lib);
  const netlist::Netlist& nl = design.netlist;

  charlib::CharacterizeOptions copt;
  copt.profile = charlib::CharacterizeOptions::Profile::kFast;
  const charlib::CharLibrary cl = charlib::load_or_characterize(
      lib, tech, copt, charlib::default_cache_dir());

  sta::StaToolOptions opt;
  opt.keep_worst = 64;
  opt.finder.max_seconds = 20.0;
  sta::StaTool tool(nl, cl, tech, opt);
  const sta::StaResult res = tool.run();
  std::cout << "analyzed " << circuit << ": " << res.stats.paths_recorded
            << " sensitizations, " << res.stats.multi_vector_courses
            << " multi-vector courses\n\n";

  // 1. Critical path, report_timing style (with per-stage vectors).
  std::cout << sta::format_path(nl, cl, res.critical()) << "\n";

  // 2. Endpoint slack table.
  const sta::TimingReport rep =
      sta::build_timing_report(nl, res, required_ps * 1e-12);
  std::cout << sta::format_timing_report(nl, rep) << "\n";

  // 3. Multi-corner summary: the retained paths re-timed at each corner,
  //    no second search (fast characterization has flat T/V models; run
  //    the library characterization at the full profile for real corner
  //    spread - see pvt_sweep).
  const auto mc = sta::analyze_corners(nl, cl, tech, sta::default_corners(tech),
                                       res.paths, opt.delay);
  for (const auto& c : mc.corners) {
    std::cout << "corner " << c.corner.name << ": critical "
              << util::format_fixed(c.critical_delay * 1e12, 1) << " ps\n";
  }

  // 4. Monte-Carlo delay variation over the retained paths (the paper's
  //    future-work extension: parameter variations on the delay model).
  sta::VariationModel var;
  const auto mcv = sta::monte_carlo_critical(nl, res, var, 5000);
  std::cout << "\nMonte-Carlo critical delay (5000 samples, sigma_g="
            << var.sigma_global << ", sigma_l=" << var.sigma_local << "):\n"
            << "  nominal " << util::format_fixed(mcv.nominal * 1e12, 1)
            << " ps, mean " << util::format_fixed(mcv.mean * 1e12, 1)
            << " ps, sigma " << util::format_fixed(mcv.stddev * 1e12, 1)
            << " ps, p99 " << util::format_fixed(mcv.p99 * 1e12, 1) << " ps\n"
            << "  critical-path identity switches under variation: "
            << util::format_percent(mcv.criticality_switches, 1) << "\n";

  // 5. SDF annotation with the sensitization-vector min:typ:max spread.
  const std::string sdf_path = circuit + ".sdf";
  std::ofstream os(sdf_path);
  sta::write_sdf(nl, cl, tech, os);
  std::cout << "\nwrote " << sdf_path
            << "  (IOPATH triples: min/typ/max over sensitization vectors)\n";
  return 0;
}
