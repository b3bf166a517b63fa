// Gate-level netlist over library cells, plus the primitive-gate
// intermediate form produced by the .bench parser and consumed by the
// technology mapper.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "cell/cell.h"

namespace sasta::netlist {

using NetId = int;
using InstId = int;
inline constexpr int kNoId = -1;

struct Fanout {
  InstId inst = kNoId;
  int pin = 0;
  bool operator==(const Fanout&) const = default;
};

struct Net {
  std::string name;
  InstId driver = kNoId;  ///< kNoId when driven by a primary input
  bool is_primary_input = false;
  bool is_primary_output = false;
  std::vector<Fanout> fanouts;
};

struct Instance {
  std::string name;
  const cell::Cell* cell = nullptr;
  std::vector<NetId> inputs;  ///< one net per cell pin, in pin order
  NetId output = kNoId;
};

/// Mapped netlist.  Cells are owned by the Library the caller keeps alive.
class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  NetId add_net(const std::string& net_name);
  NetId find_net(const std::string& net_name) const;  ///< kNoId if absent
  NetId net_id(const std::string& net_name) const;    ///< throws if absent

  void mark_primary_input(NetId n);
  void mark_primary_output(NetId n);

  /// Adds a cell instance; wires driver and fanout bookkeeping.
  InstId add_instance(const std::string& inst_name, const cell::Cell* cell,
                      const std::vector<NetId>& inputs, NetId output);

  const Net& net(NetId n) const { return nets_.at(n); }
  const Instance& instance(InstId i) const { return instances_.at(i); }
  int num_nets() const { return static_cast<int>(nets_.size()); }
  int num_instances() const { return static_cast<int>(instances_.size()); }
  const std::vector<Net>& nets() const { return nets_; }
  const std::vector<Instance>& instances() const { return instances_; }
  const std::vector<NetId>& primary_inputs() const { return pis_; }
  const std::vector<NetId>& primary_outputs() const { return pos_; }

  /// Structural checks: every net has exactly one driver or is a PI;
  /// instances reference valid nets; throws util::Error on violation.
  void validate() const;

  /// Number of instances whose cell is a complex gate.
  int complex_gate_count() const;

  // --- ECO edits (serve mode, docs/SERVER.md) ---------------------------
  // Connectivity never changes: both edits keep every net, pin and fanout
  // list intact, which is what lets the incremental re-analysis reason
  // about affected cones purely from the original graph.

  /// Replaces an instance's cell with another of the same pin count
  /// (`swap_gate`).  Throws util::Error on a pin-count mismatch.
  void replace_cell(InstId i, const cell::Cell* new_cell);

  /// Per-instance drive-strength scale (`resize_cell`): the delay
  /// calculator models a resized instance as `scale`× input capacitance on
  /// every pin and `scale`× drive on its output (see
  /// DelayCalculator::net_load / equivalent_fanout).  1.0 — the universal
  /// default — reproduces the unscaled library cell exactly.
  void set_drive_scale(InstId i, double scale);
  double drive_scale(InstId i) const {
    return static_cast<std::size_t>(i) < drive_scale_.size()
               ? drive_scale_[i]
               : 1.0;
  }

 private:
  std::string name_;
  std::vector<Net> nets_;
  std::vector<Instance> instances_;
  std::unordered_map<std::string, NetId> name_to_net_;
  std::vector<NetId> pis_;
  std::vector<NetId> pos_;
  std::vector<double> drive_scale_;  ///< empty until the first resize
};

// ---------------------------------------------------------------------------
// Primitive-gate intermediate representation (.bench level).

enum class PrimOp { kAnd, kNand, kOr, kNor, kNot, kBuf, kXor, kXnor };

const char* prim_op_name(PrimOp op);

struct PrimGate {
  PrimOp op = PrimOp::kAnd;
  std::vector<int> inputs;  ///< signal ids
  int output = kNoId;
};

struct PrimNetlist {
  std::string name;
  std::vector<std::string> signal_names;
  std::vector<int> inputs;   ///< signal ids
  std::vector<int> outputs;  ///< signal ids
  std::vector<PrimGate> gates;

  int add_signal(const std::string& signal_name);
  int find_signal(const std::string& signal_name) const;
  int num_signals() const { return static_cast<int>(signal_names.size()); }

  /// Fanout count per signal.
  std::vector<int> fanout_counts() const;
  /// Driving gate per signal (index into gates), or kNoId.
  std::vector<int> driver_index() const;
  /// Structural checks; throws util::Error on violation.
  void validate() const;

 private:
  /// signal_names inverted, kept by add_signal, so a lookup costs O(1) and
  /// parsing stays linear in the netlist size.
  std::unordered_map<std::string, int> signal_index_;
};

}  // namespace sasta::netlist
