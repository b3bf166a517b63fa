// Three-valued logic {0, 1, X} — the static core of the dual-value
// semi-undetermined logic system of paper Section IV.B.
#pragma once

#include <cstdint>

namespace sasta::logicsys {

enum class TriVal : std::uint8_t { kZero = 0, kOne = 1, kX = 2 };

inline TriVal tri_not(TriVal a) {
  switch (a) {
    case TriVal::kZero:
      return TriVal::kOne;
    case TriVal::kOne:
      return TriVal::kZero;
    default:
      return TriVal::kX;
  }
}

inline TriVal tri_and(TriVal a, TriVal b) {
  if (a == TriVal::kZero || b == TriVal::kZero) return TriVal::kZero;
  if (a == TriVal::kOne && b == TriVal::kOne) return TriVal::kOne;
  return TriVal::kX;
}

inline TriVal tri_or(TriVal a, TriVal b) {
  if (a == TriVal::kOne || b == TriVal::kOne) return TriVal::kOne;
  if (a == TriVal::kZero && b == TriVal::kZero) return TriVal::kZero;
  return TriVal::kX;
}

inline bool tri_is_known(TriVal a) { return a != TriVal::kX; }

/// True if `refined` is consistent with `prior` (equal, or prior was X).
inline bool tri_compatible(TriVal prior, TriVal refined) {
  return prior == TriVal::kX || refined == TriVal::kX || prior == refined;
}

/// Intersection of the two value sets; requires compatibility.
inline TriVal tri_meet(TriVal a, TriVal b) {
  return a == TriVal::kX ? b : a;
}

inline char tri_char(TriVal a) {
  switch (a) {
    case TriVal::kZero:
      return '0';
    case TriVal::kOne:
      return '1';
    default:
      return 'X';
  }
}

inline TriVal tri_from_bool(bool b) { return b ? TriVal::kOne : TriVal::kZero; }

}  // namespace sasta::logicsys
