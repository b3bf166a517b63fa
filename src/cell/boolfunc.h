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

  /// Three-valued evaluation: exact (enumerates the X inputs, <= 2^6 cases).
  logicsys::TriVal eval3(std::span<const logicsys::TriVal> inputs) const;

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
  int num_inputs_ = 0;
  std::uint64_t bits_ = 0;
};

}  // namespace sasta::cell
