// Truth-table representation of a cell's logic function (up to 6 inputs),
// with the derived artifacts the STA engines need:
//  - three-valued evaluation (for implication with unknowns),
//  - prime-cube enumeration (for justification: minimal input assignments
//    that force the output to a given value),
//  - boolean difference (for sensitization-vector enumeration).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cell/expr.h"
#include "logicsys/trivalue.h"

namespace sasta::cell {

/// A cube over the cell inputs: input i is constrained to bit i of `values`
/// iff bit i of `care` is set.
struct Cube {
  std::uint32_t care = 0;
  std::uint32_t values = 0;

  int num_literals() const { return __builtin_popcount(care); }
  bool constrains(int pin) const { return (care >> pin) & 1u; }
  bool literal(int pin) const { return (values >> pin) & 1u; }
  bool operator==(const Cube&) const = default;
};

class TruthTable {
 public:
  TruthTable() = default;
  /// Builds from an expression; `num_inputs` must cover all referenced pins
  /// and be <= 6.
  static TruthTable from_expr(const Expr& expr, int num_inputs);
  /// Builds from raw minterm bits (bit m of `bits` = f(minterm m)).
  static TruthTable from_bits(std::uint64_t bits, int num_inputs);

  int num_inputs() const { return num_inputs_; }
  std::uint64_t bits() const { return bits_; }
  std::uint32_t num_minterms() const { return 1u << num_inputs_; }

  bool value(std::uint32_t minterm) const {
    return (bits_ >> minterm) & 1u;
  }

  /// Three-valued evaluation, exact: the known inputs select a cube of
  /// minterms, and the output is known iff the function is constant on it.
  logicsys::TriVal eval3(std::span<const logicsys::TriVal> inputs) const;

  /// eval3 with the inputs already packed: bit i of `known` is set iff input
  /// i is 0 or 1, and bit i of `ones` iff it is 1 (`ones` within `known`).
  /// The cube mask is the AND of the known inputs' variable masks, so the
  /// call is at most six word operations and two compares.
  logicsys::TriVal eval3(std::uint32_t known, std::uint32_t ones) const {
    std::uint64_t cube = domain_mask(num_inputs_);
    for (std::uint32_t k = known; k != 0; k &= k - 1) {
      const int i = __builtin_ctz(k);
      cube &= (ones >> i) & 1u ? kVarMask[i] : ~kVarMask[i];
    }
    const std::uint64_t on = bits_ & cube;
    if (on == 0) return logicsys::TriVal::kZero;
    return on == cube ? logicsys::TriVal::kOne : logicsys::TriVal::kX;
  }

  /// All prime cubes c with f|c == target (ON-set or OFF-set primes).
  /// Sorted by ascending literal count, i.e. "easiest to justify" first.
  std::vector<Cube> prime_cubes(bool target) const;

  /// Boolean difference w.r.t. `pin`: truth table (over the same inputs,
  /// value independent of `pin`) that is 1 where f(pin=0) != f(pin=1).
  TruthTable boolean_difference(int pin) const;

  /// Cofactor f with `pin` fixed to `v` (result still indexed over all
  /// inputs; value independent of `pin`).
  TruthTable cofactor(int pin, bool v) const;

  /// True if the function ever depends on `pin`.
  bool depends_on(int pin) const;

  std::string to_string() const;
  bool operator==(const TruthTable&) const = default;

 private:
  /// Minterms with input i at 1, over the full 6-input word.
  static constexpr std::uint64_t kVarMask[6] = {
      0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
      0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};
  /// Minterms that exist for an n-input function.
  static constexpr std::uint64_t domain_mask(int n) {
    return n == 6 ? ~std::uint64_t{0}
                  : (std::uint64_t{1} << (1u << n)) - 1;
  }

  int num_inputs_ = 0;
  std::uint64_t bits_ = 0;
};

}  // namespace sasta::cell
