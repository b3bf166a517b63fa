// Standard-cell model: logic function plus explicit transistor-level
// structure (a single static-CMOS inverting core, optional internal input
// inverters for complemented literals, optional output inverter for
// non-inverting functions such as AO22/OA12).
#pragma once

#include <string>
#include <vector>

#include "cell/boolfunc.h"
#include "cell/spnetwork.h"
#include "tech/technology.h"

namespace sasta::cell {

/// Declarative cell description consumed by the Cell constructor.
struct CellSpec {
  std::string name;
  std::vector<std::string> pin_names;
  ExprPtr function;      ///< Z as a function of the input pins
  SpTree pdn;            ///< pull-down network of the inverting core
  bool output_inverter = false;
};

class Cell {
 public:
  explicit Cell(CellSpec spec);

  const std::string& name() const { return name_; }
  int num_inputs() const { return static_cast<int>(pin_names_.size()); }
  const std::vector<std::string>& pin_names() const { return pin_names_; }
  int pin_index(const std::string& pin_name) const;

  const TruthTable& function() const { return function_; }
  /// function().prime_cubes(target), computed once at construction: the
  /// justifier and the controllability pass read it at every decision.
  const std::vector<Cube>& prime_cubes(bool target) const {
    return primes_[target ? 1 : 0];
  }
  const ExprPtr& function_expr() const { return expr_; }
  const SpTree& pdn() const { return pdn_; }
  const SpTree& pun() const { return pun_; }
  bool has_output_inverter() const { return output_inverter_; }

  /// True if pin `p` drives an internal input inverter (complemented literal
  /// somewhere in the networks).
  bool pin_has_input_inverter(int p) const { return input_inverted_[p]; }

  /// Number of transistors in a physical instance.
  int transistor_count() const;

  /// Stack-upsized device widths for this technology [um].
  double pdn_device_width(const tech::Technology& t) const;
  double pun_device_width(const tech::Technology& t) const;

  /// Capacitance presented by input pin `p` [F].
  double input_cap(const tech::Technology& t, int p) const;
  /// Mean input capacitance over all pins [F]; this is the Cin of the
  /// paper's equivalent-fanout definition Fo = Cout / Cin.
  double avg_input_cap(const tech::Technology& t) const;

  /// True when some input has more than one sensitization vector, i.e. the
  /// cell is a "complex gate" in the paper's sense.
  bool is_complex() const;

 private:
  void validate() const;

  std::string name_;
  std::vector<std::string> pin_names_;
  ExprPtr expr_;
  TruthTable function_;
  std::vector<Cube> primes_[2];  ///< OFF-set, ON-set
  SpTree pdn_;
  SpTree pun_;
  bool output_inverter_;
  std::vector<bool> input_inverted_;
};

/// A cell library: owns the cells, lookup by name.
class Library {
 public:
  void add(Cell cell);
  const Cell& cell(const std::string& name) const;
  const Cell* find(const std::string& name) const;
  const std::vector<Cell>& cells() const { return cells_; }
  std::size_t size() const { return cells_.size(); }

 private:
  std::vector<Cell> cells_;
};

}  // namespace sasta::cell
