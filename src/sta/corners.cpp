#include "sta/corners.h"

#include <algorithm>

#include "util/check.h"

namespace sasta::sta {

std::vector<Corner> default_corners(const tech::Technology& tech) {
  return {
      {"fast", 0.0, 1.1 * tech.vdd},
      {"typ", tech.nominal_temp_c, tech.vdd},
      {"slow", 125.0, 0.9 * tech.vdd},
  };
}

const CornerResult& MultiCornerResult::worst() const {
  SASTA_CHECK(!corners.empty()) << " no corners analyzed";
  return *std::max_element(corners.begin(), corners.end(),
                           [](const CornerResult& a, const CornerResult& b) {
                             return a.critical_delay < b.critical_delay;
                           });
}

MultiCornerResult analyze_corners(const netlist::Netlist& nl,
                                  const charlib::CharLibrary& charlib,
                                  const tech::Technology& tech,
                                  const std::vector<Corner>& corners,
                                  const std::vector<TimedPath>& paths,
                                  const DelayCalcOptions& delay) {
  SASTA_CHECK(!corners.empty()) << " corner list empty";
  MultiCornerResult out;
  for (const Corner& corner : corners) {
    DelayCalcOptions dopt = delay;
    dopt.temperature_c = corner.temp_c;
    dopt.vdd = corner.vdd;
    DelayCalculator calc(nl, charlib, tech, dopt);
    CornerResult cr;
    cr.corner = corner;
    for (const TimedPath& tp : paths) {
      TimedPath retimed = calc.compute(tp.path);
      if (retimed.delay > cr.critical_delay) {
        cr.critical_delay = retimed.delay;
        cr.critical = std::move(retimed);
      }
    }
    out.corners.push_back(std::move(cr));
  }
  return out;
}

}  // namespace sasta::sta
