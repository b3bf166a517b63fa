#include "logicsys/ninevalue.h"

namespace sasta::logicsys {

bool NineVal::refines(const NineVal& other) const {
  const bool init_more = tri_is_known(init) && !tri_is_known(other.init);
  const bool fin_more = tri_is_known(fin) && !tri_is_known(other.fin);
  return init_more || fin_more;
}

std::string NineVal::to_string() const {
  if (*this == stable0()) return "0";
  if (*this == stable1()) return "1";
  if (*this == rise()) return "R";
  if (*this == fall()) return "F";
  if (*this == unknown()) return "X";
  std::string s;
  s += tri_char(init);
  s += tri_char(fin);
  return s;
}

}  // namespace sasta::logicsys
