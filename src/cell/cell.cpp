#include "cell/cell.h"

#include "util/check.h"

namespace sasta::cell {

using logicsys::TriVal;

Cell::Cell(CellSpec spec)
    : name_(std::move(spec.name)),
      pin_names_(std::move(spec.pin_names)),
      expr_(std::move(spec.function)),
      pdn_(std::move(spec.pdn)),
      pun_(pdn_.dual()),
      output_inverter_(spec.output_inverter) {
  SASTA_CHECK(!pin_names_.empty() && pin_names_.size() <= 6)
      << " cell " << name_ << " pin count";
  SASTA_CHECK(expr_ != nullptr) << " cell " << name_ << " missing function";
  function_ = TruthTable::from_expr(*expr_, num_inputs());
  primes_[0] = function_.prime_cubes(false);
  primes_[1] = function_.prime_cubes(true);

  input_inverted_.assign(num_inputs(), false);
  // Collect complemented literals from the PDN (the PUN is its dual and uses
  // the same literal phases).
  std::vector<const SpTree*> stack{&pdn_};
  while (!stack.empty()) {
    const SpTree* t = stack.back();
    stack.pop_back();
    if (t->kind() == SpTree::Kind::kLeaf) {
      SASTA_CHECK(t->pin() < num_inputs())
          << " cell " << name_ << " network references pin " << t->pin();
      if (t->inverted_literal()) input_inverted_[t->pin()] = true;
    } else {
      for (const auto& c : t->children()) stack.push_back(&c);
    }
  }
  validate();
}

void Cell::validate() const {
  // The PDN must conduct exactly when the core output is logic 0.
  // With an output inverter the core computes Z', so PDN condition == Z;
  // without one the core computes Z, so PDN condition == Z'.
  std::vector<TriVal> values(num_inputs());
  for (std::uint32_t m = 0; m < function_.num_minterms(); ++m) {
    for (int i = 0; i < num_inputs(); ++i) {
      values[i] = logicsys::tri_from_bool((m >> i) & 1u);
    }
    const bool z = function_.value(m);
    const bool pdn_on = pdn_.conducts(values) == TriVal::kOne;
    const bool pun_on =
        pun_.conducts(values, /*active_low_leaves=*/true) == TriVal::kOne;
    const bool expected_pdn = output_inverter_ ? z : !z;
    SASTA_CHECK(pdn_on == expected_pdn)
        << " cell " << name_ << ": PDN inconsistent with function at minterm "
        << m;
    SASTA_CHECK(pun_on == !pdn_on)
        << " cell " << name_ << ": PUN not complementary at minterm " << m;
  }
}

int Cell::pin_index(const std::string& pin_name) const {
  for (int i = 0; i < num_inputs(); ++i) {
    if (pin_names_[i] == pin_name) return i;
  }
  SASTA_FAIL() << " cell " << name_ << " has no pin '" << pin_name << "'";
}

int Cell::transistor_count() const {
  int count = pdn_.num_devices() + pun_.num_devices();
  for (bool inv : input_inverted_) {
    if (inv) count += 2;
  }
  if (output_inverter_) count += 2;
  return count;
}

double Cell::pdn_device_width(const tech::Technology& t) const {
  return t.wn_unit_um * pdn_.stack_depth();
}

double Cell::pun_device_width(const tech::Technology& t) const {
  return t.wn_unit_um * t.beta_p * pun_.stack_depth();
}

double Cell::input_cap(const tech::Technology& t, int p) const {
  SASTA_CHECK(p >= 0 && p < num_inputs()) << " pin " << p;
  double cap = 0.0;
  const double wn = pdn_device_width(t);
  const double wp = pun_device_width(t);
  // Devices whose gate is tied directly to the pin (non-inverted literals).
  std::vector<std::pair<const SpTree*, bool>> stack{{&pdn_, true},
                                                    {&pun_, false}};
  while (!stack.empty()) {
    auto [tree, is_pdn] = stack.back();
    stack.pop_back();
    if (tree->kind() == SpTree::Kind::kLeaf) {
      if (tree->pin() == p && !tree->inverted_literal()) {
        const double w = is_pdn ? wn : wp;
        const auto& mp = is_pdn ? t.nmos : t.pmos;
        cap += w * mp.cg_per_um;
      }
    } else {
      for (const auto& c : tree->children()) stack.push_back({&c, is_pdn});
    }
  }
  // A complemented literal loads the pin through one shared input inverter.
  if (input_inverted_[p]) {
    cap += t.wn_unit_um * t.nmos.cg_per_um +
           t.wn_unit_um * t.beta_p * t.pmos.cg_per_um;
  }
  return cap;
}

double Cell::avg_input_cap(const tech::Technology& t) const {
  double total = 0.0;
  for (int p = 0; p < num_inputs(); ++p) total += input_cap(t, p);
  return total / num_inputs();
}

bool Cell::is_complex() const {
  for (int p = 0; p < num_inputs(); ++p) {
    const TruthTable diff = function_.boolean_difference(p);
    // Count side-input assignments (over the other pins) where the pin is
    // observable.
    int vectors = 0;
    for (std::uint32_t m = 0; m < function_.num_minterms(); ++m) {
      if ((m >> p) & 1u) continue;  // enumerate with pin fixed at 0
      if (diff.value(m)) ++vectors;
      if (vectors > 1) return true;
    }
  }
  return false;
}

void Library::add(Cell c) {
  SASTA_CHECK(find(c.name()) == nullptr)
      << " duplicate cell '" << c.name() << "'";
  cells_.push_back(std::move(c));
}

const Cell& Library::cell(const std::string& name) const {
  const Cell* c = find(name);
  SASTA_CHECK(c != nullptr) << " unknown cell '" << name << "'";
  return *c;
}

const Cell* Library::find(const std::string& name) const {
  for (const auto& c : cells_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

}  // namespace sasta::cell
