// Multi-corner analysis: the paper's polynomial model carries temperature
// and supply voltage as first-class variables (Eq. (3)), so re-evaluating
// timing at a PVT corner costs only polynomial evaluations — no
// re-characterization and no re-simulation.  Path topology and vectors do
// not depend on PVT, so this module takes the paths one sensitization-aware
// analysis retained and re-times them at every corner; it never searches.
#pragma once

#include <string>
#include <vector>

#include "sta/delaycalc.h"

namespace sasta::sta {

struct Corner {
  std::string name;     ///< e.g. "slow" / "typ" / "fast"
  double temp_c = 25.0;
  double vdd = 0.0;     ///< 0 = technology nominal
};

/// Standard three-corner set for a technology: fast (cold, +10 % VDD),
/// typical (nominal), slow (hot, -10 % VDD).
std::vector<Corner> default_corners(const tech::Technology& tech);

struct CornerResult {
  Corner corner;
  double critical_delay = 0.0;
  TimedPath critical;  ///< worst path re-timed at this corner
};

struct MultiCornerResult {
  std::vector<CornerResult> corners;  ///< in input order

  /// Corner with the largest critical delay.
  const CornerResult& worst() const;
};

/// Re-times `paths` (typically StaResult::paths of one run) at every
/// corner and keeps each corner's slowest.  The critical path can differ
/// between corners, so the run should retain more than one candidate; 32
/// is plenty in practice.  `delay` supplies every delay setting other than
/// the corner's temperature and supply.
MultiCornerResult analyze_corners(const netlist::Netlist& nl,
                                  const charlib::CharLibrary& charlib,
                                  const tech::Technology& tech,
                                  const std::vector<Corner>& corners,
                                  const std::vector<TimedPath>& paths,
                                  const DelayCalcOptions& delay = {});

}  // namespace sasta::sta
