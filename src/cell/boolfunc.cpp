#include "cell/boolfunc.h"

#include <algorithm>

#include "util/check.h"

namespace sasta::cell {

using logicsys::TriVal;

TruthTable TruthTable::from_expr(const Expr& expr, int num_inputs) {
  SASTA_CHECK(num_inputs >= 1 && num_inputs <= 6)
      << " unsupported input count " << num_inputs;
  SASTA_CHECK(expr.max_pin_plus_one() <= num_inputs)
      << " expression references pin beyond input count";
  std::uint64_t bits = 0;
  for (std::uint32_t m = 0; m < (1u << num_inputs); ++m) {
    if (expr.evaluate(m)) bits |= std::uint64_t{1} << m;
  }
  return from_bits(bits, num_inputs);
}

TruthTable TruthTable::from_bits(std::uint64_t bits, int num_inputs) {
  SASTA_CHECK(num_inputs >= 1 && num_inputs <= 6)
      << " unsupported input count " << num_inputs;
  TruthTable t;
  t.num_inputs_ = num_inputs;
  t.bits_ = bits & domain_mask(num_inputs);
  return t;
}

TriVal TruthTable::eval3(std::span<const logicsys::TriVal> inputs) const {
  SASTA_CHECK(static_cast<int>(inputs.size()) == num_inputs_)
      << " input count " << inputs.size() << " vs " << num_inputs_;
  std::uint32_t known = 0;
  std::uint32_t ones = 0;
  for (int i = 0; i < num_inputs_; ++i) {
    if (inputs[i] != TriVal::kX) known |= 1u << i;
    if (inputs[i] == TriVal::kOne) ones |= 1u << i;
  }
  return eval3(known, ones);
}

std::vector<Cube> TruthTable::prime_cubes(bool target) const {
  const std::uint32_t full_care = (1u << num_inputs_) - 1;
  // Quine-McCluskey style merging.  Start from target minterms as full cubes.
  std::vector<Cube> current;
  for (std::uint32_t m = 0; m < num_minterms(); ++m) {
    if (value(m) == target) current.push_back({full_care, m});
  }
  std::vector<Cube> primes;
  while (!current.empty()) {
    std::vector<bool> merged(current.size(), false);
    std::vector<Cube> next;
    for (std::size_t i = 0; i < current.size(); ++i) {
      for (std::size_t j = i + 1; j < current.size(); ++j) {
        const Cube& a = current[i];
        const Cube& b = current[j];
        if (a.care != b.care) continue;
        const std::uint32_t diff = (a.values ^ b.values) & a.care;
        if (__builtin_popcount(diff) != 1) continue;
        merged[i] = merged[j] = true;
        Cube c{a.care & ~diff,
               a.values & ~diff & a.care};
        c.values &= c.care;
        if (std::find(next.begin(), next.end(), c) == next.end()) {
          next.push_back(c);
        }
      }
    }
    for (std::size_t i = 0; i < current.size(); ++i) {
      if (!merged[i]) {
        Cube c = current[i];
        c.values &= c.care;
        if (std::find(primes.begin(), primes.end(), c) == primes.end()) {
          primes.push_back(c);
        }
      }
    }
    current = std::move(next);
  }
  std::stable_sort(primes.begin(), primes.end(), [](const Cube& a, const Cube& b) {
    return a.num_literals() < b.num_literals();
  });
  return primes;
}

TruthTable TruthTable::boolean_difference(int pin) const {
  SASTA_CHECK(pin >= 0 && pin < num_inputs_) << " pin " << pin;
  std::uint64_t bits = 0;
  for (std::uint32_t m = 0; m < num_minterms(); ++m) {
    const std::uint32_t m0 = m & ~(1u << pin);
    const std::uint32_t m1 = m | (1u << pin);
    if (value(m0) != value(m1)) bits |= std::uint64_t{1} << m;
  }
  return from_bits(bits, num_inputs_);
}

TruthTable TruthTable::cofactor(int pin, bool v) const {
  SASTA_CHECK(pin >= 0 && pin < num_inputs_) << " pin " << pin;
  std::uint64_t bits = 0;
  for (std::uint32_t m = 0; m < num_minterms(); ++m) {
    const std::uint32_t mf = v ? (m | (1u << pin)) : (m & ~(1u << pin));
    if (value(mf)) bits |= std::uint64_t{1} << m;
  }
  return from_bits(bits, num_inputs_);
}

bool TruthTable::depends_on(int pin) const {
  return cofactor(pin, false) != cofactor(pin, true);
}

std::string TruthTable::to_string() const {
  std::string s;
  for (std::uint32_t m = 0; m < num_minterms(); ++m) {
    s += value(m) ? '1' : '0';
  }
  return s;
}

}  // namespace sasta::cell
