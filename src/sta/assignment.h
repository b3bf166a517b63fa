// Dual-value assignment state for the single-pass true-path engine
// (paper Section IV.B).
//
// Every net carries one nine-valued transition value per *scenario*:
// scenario R assumes the path's primary input rises, scenario F assumes it
// falls.  Steady side-input assignments are shared between scenarios (they
// are polarity-independent), so both transition directions are traced in a
// single pass over the circuit — the paper's "dual value logic system".
// Semi-undetermined values (X0, X1, ...) arise naturally from implication
// and enable early conflict detection before all implied nodes are set.
//
// All mutations go through a trail so the RESIST-style DFS can checkpoint
// and roll back in O(changes).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "logicsys/ninevalue.h"
#include "netlist/netlist.h"
#include "util/check.h"

namespace sasta::sta {

/// Bitmask over the two transition scenarios.
enum ScenarioMask : unsigned {
  kScenarioNone = 0,
  kScenarioR = 1,  ///< path input rising
  kScenarioF = 2,  ///< path input falling
  kScenarioBoth = 3,
};

struct DualVal {
  logicsys::NineVal r = logicsys::NineVal::unknown();
  logicsys::NineVal f = logicsys::NineVal::unknown();

  const logicsys::NineVal& get(unsigned scenario_bit) const {
    return scenario_bit == kScenarioR ? r : f;
  }
};

// Word view of a DualVal: four TriVal bytes (r.init, r.fin, f.init, f.fin).
// With kOne = 1 and kX = 2, bit 0 of a byte says "one" and bit 1 says "X",
// so the value tests of refinement and justification are a few word
// operations on all four parts at once.
static_assert(sizeof(DualVal) == 4 &&
              std::endian::native == std::endian::little);
static_assert(static_cast<int>(logicsys::TriVal::kOne) == 1 &&
              static_cast<int>(logicsys::TriVal::kX) == 2);

inline std::uint32_t dual_word(const DualVal& v) {
  return std::bit_cast<std::uint32_t>(v);
}
inline DualVal dual_from_word(std::uint32_t w) {
  return std::bit_cast<DualVal>(w);
}

/// Bit 0 of every part byte.
inline constexpr std::uint32_t kPartLsb = 0x01010101u;
/// Bit 0 of the part bytes of each scenario mask.
inline constexpr std::uint32_t scenario_lanes(unsigned scenarios) {
  return (scenarios & kScenarioR ? 0x00000101u : 0u) |
         (scenarios & kScenarioF ? 0x01010000u : 0u);
}
/// Scenarios owning at least one set bit of `lanes` (lane bits only).
inline constexpr unsigned lane_scenarios(std::uint32_t lanes) {
  return ((lanes & 0x0000FFFFu) != 0 ? kScenarioR : 0u) |
         ((lanes & 0xFFFF0000u) != 0 ? kScenarioF : 0u);
}

class AssignmentState {
 public:
  explicit AssignmentState(int num_nets);

  const DualVal& value(netlist::NetId n) const { return values_[n]; }
  std::uint32_t word(netlist::NetId n) const { return dual_word(values_[n]); }

  /// Outcome of a refinement attempt, per scenario.
  struct RefineResult {
    unsigned changed = kScenarioNone;   ///< scenarios whose value narrowed
    unsigned conflict = kScenarioNone;  ///< scenarios where the new value
                                        ///< contradicts the stored one
  };

  /// Meets the parts of `v` that belong to `scenarios` into net n; the
  /// other scenario's parts are neither read nor written.  A conflicting
  /// scenario keeps its old value.
  RefineResult refine(netlist::NetId n, const DualVal& v,
                      unsigned scenarios) {
    SASTA_CHECK(n >= 0 && n < num_nets()) << " net " << n;
    return refine_word(n, dual_word(v), scenarios);
  }

  /// Meets (vr, vf) into net n.
  RefineResult refine(netlist::NetId n, const logicsys::NineVal& vr,
                      const logicsys::NineVal& vf) {
    return refine(n, DualVal{vr, vf}, kScenarioBoth);
  }

  /// Shared steady assignment (both scenarios).
  RefineResult refine_steady(netlist::NetId n, bool value) {
    const auto v = logicsys::NineVal::stable(value);
    return refine(n, v, v);
  }

  /// Justified flag: the net's current steady value is known to be
  /// realizable from primary inputs.  Trail-managed like values.
  bool justified(netlist::NetId n) const { return justified_[n]; }
  void mark_justified(netlist::NetId n);

  /// Checkpoint / rollback.
  using Mark = std::size_t;
  Mark mark() const { return trail_.size(); }
  void rollback(Mark m);

  /// Clears everything (new path-source iteration).
  void reset();

  int num_nets() const { return static_cast<int>(values_.size()); }

 private:
  friend class ImplicationEngine;

  /// refine() without the range check: the implication kernel's step, on
  /// nets taken from its LogicView.
  RefineResult refine_word(netlist::NetId n, std::uint32_t v,
                           unsigned scenarios) {
    const std::uint32_t cur = dual_word(values_[n]);
    const std::uint32_t cur_x = (cur >> 1) & kPartLsb;
    const std::uint32_t new_x = (v >> 1) & kPartLsb;
    const std::uint32_t lanes = scenario_lanes(scenarios);
    // A part contradicts when both sides know it and disagree; it narrows
    // when only the new side knows it (the meet keeps known parts).
    const std::uint32_t clash = ~(cur_x | new_x) & (cur ^ v) & lanes;
    RefineResult res;
    res.conflict = lane_scenarios(clash);
    const std::uint32_t take =
        cur_x & ~new_x & lanes & ~scenario_lanes(res.conflict);
    res.changed = lane_scenarios(take);
    if (take != 0) {
      remember(n);
      const std::uint32_t bytes = take * 0xFFu;
      values_[n] = dual_from_word((cur & ~bytes) | (v & bytes));
    }
    return res;
  }

  struct TrailEntry {
    netlist::NetId net;
    DualVal old_value;
    bool old_justified;
  };
  void remember(netlist::NetId n) {
    trail_.push_back({n, values_[n], justified_[n] != 0});
  }

  std::vector<DualVal> values_;
  std::vector<std::uint8_t> justified_;
  std::vector<TrailEntry> trail_;
};

}  // namespace sasta::sta
