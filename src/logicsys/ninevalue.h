// Nine-valued transition logic: a node value is the pair (initial, final)
// of three-valued statics.  This realizes the paper's semi-undetermined
// values — e.g. "X0" (starts unknown, settles to 0) is (X, 0) — and the
// ordinary transition values RISE = (0,1) and FALL = (1,0).
//
// The dual-value system of Section IV.B is built on top of this in the STA
// engine: each circuit node carries one NineVal per transition scenario
// (path input rising / path input falling), so both directions are traced in
// a single pass.
#pragma once

#include <string>

#include "logicsys/trivalue.h"

namespace sasta::logicsys {

struct NineVal {
  TriVal init = TriVal::kX;
  TriVal fin = TriVal::kX;

  bool operator==(const NineVal&) const = default;

  static NineVal unknown() { return {TriVal::kX, TriVal::kX}; }
  static NineVal stable0() { return {TriVal::kZero, TriVal::kZero}; }
  static NineVal stable1() { return {TriVal::kOne, TriVal::kOne}; }
  static NineVal rise() { return {TriVal::kZero, TriVal::kOne}; }
  static NineVal fall() { return {TriVal::kOne, TriVal::kZero}; }
  /// Semi-undetermined: starts unknown, ends at a known value.
  static NineVal x0() { return {TriVal::kX, TriVal::kZero}; }
  static NineVal x1() { return {TriVal::kX, TriVal::kOne}; }
  static NineVal stable(bool v) { return v ? stable1() : stable0(); }
  static NineVal transition(bool rising) { return rising ? rise() : fall(); }

  bool fully_known() const {
    return tri_is_known(init) && tri_is_known(fin);
  }
  bool is_steady() const {
    return tri_is_known(init) && init == fin;
  }
  bool is_transition() const {
    return fully_known() && init != fin;
  }
  /// True when at least one component is more defined than in `other`.
  bool refines(const NineVal& other) const;

  /// True if this value and `other` can describe the same node (no known
  /// component contradicts the other's).
  bool compatible(const NineVal& other) const {
    return tri_compatible(init, other.init) && tri_compatible(fin, other.fin);
  }

  /// Componentwise intersection; caller must check compatibility first.
  NineVal meet(const NineVal& other) const {
    return {tri_meet(init, other.init), tri_meet(fin, other.fin)};
  }

  NineVal inverted() const { return {tri_not(init), tri_not(fin)}; }

  /// Short display form: "0", "1", "R", "F", "X0", "X1", "0X", "1X", "X".
  std::string to_string() const;
};

}  // namespace sasta::logicsys
