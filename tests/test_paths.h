// Shared byte-level path comparison helpers for the path-finder test
// suites (parallel determinism, thread-count identity).  A fingerprint
// captures everything a path report is built from — gate sequence,
// sensitization vector choice per gate, launch direction, realizing
// primary-input assignment, and bit-exact delays — so two runs whose
// fingerprint sequences are equal are indistinguishable to any consumer.
#pragma once

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "netlist/netlist.h"
#include "sta/path.h"

namespace sasta::testing {

/// Bit-exact text form of a double (%a): equal strings iff equal bits.
inline std::string hex_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Full identity of an untimed true path: source, direction, every
/// (instance, pin, vector) step, sink, and the realizing PI assignment.
inline std::string path_fingerprint(const netlist::Netlist& nl,
                                    const sta::TruePath& p) {
  std::string s = p.full_key(nl);
  s += ">" + nl.net(p.sink).name;
  for (const auto& [net, val] : p.pi_assignment) {
    s += ";" + nl.net(net).name + "=" + (val ? "1" : "0");
  }
  return s;
}

/// path_fingerprint plus bit-exact timing (total delay, arrival slew,
/// per-stage delays).
inline std::string timed_fingerprint(const netlist::Netlist& nl,
                                     const sta::TimedPath& tp) {
  std::string s = path_fingerprint(nl, tp.path);
  s += "|" + hex_double(tp.delay) + "|" + hex_double(tp.arrival_slew);
  for (double d : tp.stage_delays) s += "," + hex_double(d);
  return s;
}

/// Fingerprint sequence of a whole enumeration, order included.
inline std::vector<std::string> path_fingerprints(
    const netlist::Netlist& nl, const std::vector<sta::TruePath>& paths) {
  std::vector<std::string> out;
  out.reserve(paths.size());
  for (const sta::TruePath& p : paths) out.push_back(path_fingerprint(nl, p));
  return out;
}

}  // namespace sasta::testing

namespace sasta::sta {

/// gtest printer for whole-table counter comparisons: `name=value` per
/// table row, so a mismatch names the counter that moved.
inline void PrintTo(const SearchCounters& c, std::ostream* os) {
  for (const SearchCounter& row : kSearchCounters) {
    *os << row.name << "=" << c.*row.field << " ";
  }
}

}  // namespace sasta::sta
