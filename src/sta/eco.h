// ECO cone analysis for incremental re-timing (serve mode, docs/SERVER.md).
//
// The serve-mode session answers an ECO request (`swap_gate`,
// `resize_cell`, `retarget_corner`) by re-running the sensitization search
// for only the *dirtied* sources and splicing the fresh per-source results
// over its warm ones.  This module computes, from connectivity alone,
// which sources an edit can possibly affect.
//
// Soundness of the dirty-source criterion
// ---------------------------------------
// A per-source search from PI `s` reads only state derived from nets in
// R(s) = TFI(TFO(s)): the transitive fanin closure of s's transitive
// fanout cone.  Every quantity the search consumes is a function of nets
// in that set —
//
//   * the DFS walks instances on nets in TFO(s);
//   * side-value justification recurses through drivers, i.e. the fanin
//     closure of the walked nets;
//   * the SCOAP cube-ordering guide of a net depends on its fanin cone;
//   * delay-relevant loads (the n_worst upper bounds and the final
//     re-timing) depend on the cells and drive scales of instances
//     *hanging off* nets in TFO(s) — and an instance on a net n is in
//     TFO(s)'s fanout frontier, whose own nets are in R(s) by closure.
//
// An edit "touches" an instance set A (the swapped/resized instance, plus
// — for load changes — the drivers of its input nets, whose equivalent
// fanout shifts with the resized pins).  If TFO(s) ∩ TFO(A) = ∅, no net
// in R(s) is an output of, an input of, or loaded by any instance in A...
// more precisely: every function above is evaluated over cells, scales
// and connectivity that the edit left untouched, so the search from s —
// and the delays of its paths — are bit-identical to a cold run.
//
// Logic that drives no primary output never matters: the DFS walks only
// nets that reach an output, and every net in the fanin of such a net
// reaches one too.  A dead instance hanging off a walked net matters only
// through its pin load, and editing it puts that net's driver in A.  So
// only the output-reaching part of TFO(A) counts, and since TFO(A) is
// closed under fanout, a net in it that reaches an output reaches one
// inside it.  Hence:
//
//   dirty(s)  ⇔  TFO(s) ∩ TFO(A) ∩ reach ≠ ∅
//             ⇔  s ∈ PI-support of some primary output in TFO(A),
//
// computed here as one forward BFS from A's outputs (marking TFO(A))
// plus one reverse walk through drivers from the marked primary outputs.
// Every PI the walk finds reaches an output, so dirty_sources is always
// a subset of the PathFinder's source universe.
// Connectivity itself never changes (netlist::replace_cell /
// set_drive_scale keep every pin and fanout list intact), so the
// PathFinder's source universe is stable across edits and "clean" means
// clean for both the true-path sets and their timing.
#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.h"

namespace sasta::sta {

/// Cones an ECO edit can influence.
struct EcoImpact {
  /// Dirty source PIs (nets), in primary-input order — the subset of the
  /// PathFinder's source universe (PIs that reach a primary output) that
  /// must be re-searched/re-timed.
  std::vector<netlist::NetId> dirty_sources;
  /// Indexed by net id: true exactly for the nets in dirty_sources.
  std::vector<bool> dirty;
  /// |A|: the touched instances plus load-coupled drivers considered.
  std::size_t affected_instances = 0;
};

/// Computes the dirty-source set for an edit touching `touched` (see the
/// file comment).  `include_load_coupling` adds the drivers of the touched
/// instances' input nets to A — required for edits that change pin
/// capacitance (swap_gate, resize_cell); retarget_corner passes every
/// instance as affected anyway (all sources re-time).
EcoImpact compute_eco_impact(const netlist::Netlist& nl,
                             std::span<const netlist::InstId> touched,
                             bool include_load_coupling = true);

}  // namespace sasta::sta
