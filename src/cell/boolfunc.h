// Truth-table representation of a cell's logic function (up to 6 inputs),
// with the derived artifacts the STA engines need:
//  - three-valued evaluation (for implication with unknowns),
//  - prime-cube enumeration (for justification: minimal input assignments
//    that force the output to a given value),
//  - boolean difference (for sensitization-vector enumeration).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cell/expr.h"
#include "logicsys/trivalue.h"

namespace sasta::cell {

namespace detail {

/// Minterms with input i at 1, over the full 6-input word.
inline constexpr std::uint64_t kVarMask[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// Cube masks of pins `first`..`first`+2: entry (known << 3 | ones) is the
/// set of minterms agreeing with every known pin of the group (`ones`
/// outside `known` is ignored).
constexpr std::array<std::uint64_t, 64> cube_mask_table(int first) {
  std::array<std::uint64_t, 64> table{};
  for (unsigned known = 0; known < 8; ++known) {
    for (unsigned ones = 0; ones < 8; ++ones) {
      std::uint64_t cube = ~std::uint64_t{0};
      for (int i = 0; i < 3; ++i) {
        if (!(known >> i & 1u)) continue;
        cube &= (ones >> i & 1u) ? kVarMask[first + i] : ~kVarMask[first + i];
      }
      table[known << 3 | ones] = cube;
    }
  }
  return table;
}
inline constexpr std::array<std::uint64_t, 64> kLowCubes = cube_mask_table(0);
inline constexpr std::array<std::uint64_t, 64> kHighCubes = cube_mask_table(3);

}  // namespace detail

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
  logicsys::TriVal eval3(std::uint32_t known, std::uint32_t ones) const {
    return eval3(bits_, domain_mask(num_inputs_), known, ones);
  }

  /// Packed eval3 over a raw table: `bits` of a function whose minterms are
  /// `domain` (domain_mask of its arity).  Branch-free: the known inputs'
  /// cube is the AND of two 3-variable cube-mask tables (pins 0-2, pins
  /// 3-5), and the output is 0 if `bits` misses the cube, 1 if it covers
  /// it, X otherwise.
  static logicsys::TriVal eval3(std::uint64_t bits, std::uint64_t domain,
                                std::uint32_t known, std::uint32_t ones) {
    const std::uint64_t cube =
        domain & detail::kLowCubes[(known & 7u) << 3 | (ones & 7u)] &
        detail::kHighCubes[(known >> 3 & 7u) << 3 | (ones >> 3 & 7u)];
    const std::uint64_t on = bits & cube;
    return static_cast<logicsys::TriVal>(
        static_cast<unsigned>(on != 0) * (2u - (on == cube)));
  }

  /// Minterms that exist for an n-input function.
  static constexpr std::uint64_t domain_mask(int n) {
    return n == 6 ? ~std::uint64_t{0}
                  : (std::uint64_t{1} << (1u << n)) - 1;
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
  int num_inputs_ = 0;
  std::uint64_t bits_ = 0;
};

}  // namespace sasta::cell
