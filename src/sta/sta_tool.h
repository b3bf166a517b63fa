// Facade combining the path finder and the polynomial delay engine — "the
// STA tool" of the paper: a single pass produces the list of true paths
// with their sensitization vectors and vector-accurate delays, from which
// the N worst true paths are read off directly (no two-step
// enumerate-then-sensitize loop).
#pragma once

#include <deque>

#include "sta/delaycalc.h"
#include "sta/pathfinder.h"

namespace sasta::sta {

struct StaToolOptions {
  /// Search knobs, including finder.num_threads: 0 = all hardware threads,
  /// 1 = sequential.  StaResult::paths is identical (order included) for
  /// every thread count — parallel enumeration merges per-source buffers in
  /// source order and the retained-path heaps below see the exact
  /// sequential delivery sequence.
  ///
  /// The observability hooks (finder.metrics / finder.trace) are shared by
  /// the whole tool run: StaTool adds its delay-calculation counters and
  /// sta/run, sta/sort trace spans through the same registry and
  /// collector.  Instrumentation never feeds back into the analysis, so
  /// StaResult::paths is bit-identical with it on or off.
  PathFinderOptions finder;
  DelayCalcOptions delay;
  /// Keep only the N slowest timed paths (<0: keep everything).
  long keep_worst = -1;
  /// Additionally keep the N fastest true paths (hold/min-delay analysis;
  /// 0: none).  Fast paths are reported separately in StaResult::fastest.
  long keep_fastest = 0;
};

struct StaResult {
  std::vector<TimedPath> paths;    ///< sorted by decreasing delay
  std::vector<TimedPath> fastest;  ///< sorted by increasing delay (hold)
  PathFinderStats stats;

  const TimedPath& critical() const;
  /// Shortest retained true path (min-delay / hold check side).
  const TimedPath& shortest() const;
};

/// Streaming retention of the N worst (and optionally N fastest) timed
/// paths, factored out of StaTool::run so every consumer ranks identically:
/// the batch tool feeds it straight from the finder sink, and the
/// serve-mode session replays warm per-source buffers through it.  The
/// selection is a pure function of the delivery *sequence* — same paths in
/// the same order give byte-identical retained sets, delay ties included —
/// which is what makes a warm server response provably equal to a cold
/// batch run.
///
/// The heaps hold handles, not paths: a borrowed path is never copied
/// unless finish() returns it, and an owned one lives in a slot pool that
/// reuses the slots of evicted paths.  Either way the heaps see the same
/// comparisons and the same push/pop sequence.
class PathSelection {
 public:
  /// keep_worst < 0 keeps every path; keep_fastest 0 keeps none.
  PathSelection(long keep_worst, long keep_fastest);

  /// Borrows `timed`, which must outlive finish().
  void add(const TimedPath& timed);
  /// Takes `timed` over.
  void add(TimedPath&& timed);
  /// Sorts and hands out the retained sets (copies of borrowed paths).
  /// The selection is spent afterwards.
  void finish(std::vector<TimedPath>& paths, std::vector<TimedPath>& fastest);

 private:
  /// A retained path: borrowed (slot < 0) or owned by slots_[slot].
  struct Handle {
    const TimedPath* path;
    int slot;
  };
  struct Slot {
    TimedPath path;
    int refs = 0;  ///< heap entries holding the slot, plus add()'s own
  };

  /// The heap and sort orders: slower() makes the keep-worst heap a
  /// min-heap on delay (front = first evicted) and sorts slowest first;
  /// faster() makes the keep-fastest heap a max-heap and sorts fastest
  /// first.
  static bool slower(const Handle& a, const Handle& b) {
    return a.path->delay > b.path->delay;
  }
  static bool faster(const Handle& a, const Handle& b) {
    return a.path->delay < b.path->delay;
  }

  void insert(Handle h);
  void retain(Handle h);
  void release(Handle h);
  /// The path of a retained handle, moved out of its slot by the last
  /// handle that holds it.
  TimedPath take(Handle h);

  long keep_worst_;
  long keep_fastest_;
  std::vector<Handle> paths_;
  std::vector<Handle> fastest_;
  std::deque<Slot> slots_;  ///< a deque: growing it moves no path
  std::vector<int> free_slots_;
};

class StaTool {
 public:
  StaTool(const netlist::Netlist& nl, const charlib::CharLibrary& charlib,
          const tech::Technology& tech, const StaToolOptions& options = {});

  /// Runs the single-pass analysis.
  StaResult run();

  const DelayCalculator& delay_calculator() const { return calc_; }

 private:
  const netlist::Netlist& nl_;
  const charlib::CharLibrary& charlib_;
  StaToolOptions opt_;
  DelayCalculator calc_;
};

}  // namespace sasta::sta
