// Lock-free cross-thread justification memo cache (ROADMAP: "share
// justification results across threads").
//
// The parallel path finder's workers repeatedly ask the goal solver the
// same question from different sources and path prefixes: "is this
// conjunction of steady side-value requirements realizable from the
// primary inputs at all?"  This table memoizes the answer for the
// *fresh-state* form of that question, keyed on the canonicalized goal set
// (sorted, deduplicated `(net, value)` pairs over the netlist's levelized
// net ids).
//
// Soundness of reuse — why a cached verdict is context-free:
//
//   * The fresh-state solve starts from an all-unknown assignment, so its
//     verdict depends only on (netlist, goal set, backtrack budget, cube
//     ordering guide) — all fixed for a PathFinder run.  Whichever worker
//     computes it, at whatever time, the verdict is identical: the cache
//     can be shared across threads without any effect on results.
//   * A CONFLICT verdict is an exhaustive refutation: no primary-input
//     assignment realizes the conjunction.  Mid-search the DFS state only
//     *adds* constraints (narrowed values from the launched transition and
//     earlier side assignments), and constraints never create witnesses,
//     so a fresh-state CONFLICT implies in-context infeasibility for every
//     source, every prefix, and both transition directions.  Any vector
//     trial whose side-goal conjunction (or whose accumulated prefix
//     conjunction — a subset of what record() must later justify) is
//     fresh-CONFLICT can therefore be skipped outright: its subtree can
//     never record a path, and the enumerated path set is bit-identical
//     with the cache on or off.
//   * JUSTIFIABLE and UNKNOWN (budget-limited) verdicts authorize nothing:
//     the caller proceeds exactly as without the cache.  Likewise a miss,
//     a mid-insert ("pending") entry, or a capacity-full drop all read as
//     UNKNOWN, so overflow degrades to the uncached search, never to a
//     wrong answer.
//
// Table design: open-addressed, sharded, fixed capacity, no locks and no
// blocking anywhere.  An entry is two 64-bit atomics:
//
//   tag     = [epoch:16 | key.lo:48]   claimed by CAS (0 = never used)
//   payload = [key.hi:61 | verdict:3]  published with release order after
//                                      the claim (0 = claim pending)
//
// Readers verify 48 + 61 = 109 bits of the 128-bit goal-set fingerprint,
// so a wrong-verdict aliasing requires a 109-bit collision between two
// canonical goal sets probed in one run — negligible against the test
// battery's differential checks, and an *eviction-like* miss (not a wrong
// answer) in every partial-collision case.  Epochs are tracked *per
// shard*: clear() bumps every shard (an O(shards) invalidation that never
// touches slot memory), while invalidate() bumps only the shards whose
// inserted-support union intersects a perturbed-net mask — the scoped
// eviction that lets a long-lived serve-mode session keep memos for
// untouched logic across ECO edits.  Both are safe against concurrent
// probes (stale-epoch entries read as empty and are reclaimed by later
// inserts).  Epochs wrap at 2^16 - 1 generations;
// verdicts are pure per netlist/tier/budget, so even an ABA'd survivor
// would still be correct for the same PathFinder instance.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sta/justify.h"

namespace sasta::sta {

/// Where the path finder keeps its justification memo table.
enum class JustifyCacheMode {
  kOff,    ///< no cache: the pre-cache search, trial for trial
  kShared  ///< one lock-free table read/written by all workers (default)
};

/// Refutation tiers for resolving a memo-cache miss (see pathfinder.h).
enum class JustifyTier {
  kImplication,  ///< closure-only: CONFLICT or give up (ablation)
  kBoth,         ///< closure first, escalate to the solver (default)
  kAdaptive      ///< kBoth, but an EscalationController may veto the solver
                 ///< when escalations stop paying for themselves
};

/// Fresh-state verdict for a canonical goal set.  Values 1..5 are stored;
/// kUnknown doubles as "not cached".  Only kConflict authorizes pruning —
/// every other verdict is either positive-but-context-bound
/// (kJustifiable) or a *negative memo* (kBudgetLimited, kInconclusive)
/// whose whole point is to stop repeat misses from re-running the tier
/// that already gave up on this conjunction.
enum class JustifyVerdict : std::uint8_t {
  kUnknown = 0,        ///< not in the table (miss / pending / overflow)
  kJustifiable = 1,    ///< a witness exists from a fresh state
  kConflict = 2,       ///< exhaustively refuted — infeasible in any context
  kBudgetLimited = 3,  ///< the full solver gave up on its backtrack budget
  kInconclusive = 4    ///< implication-only tier could not refute (the
                       ///< solver was not consulted; kImplication ablation)
};

/// Canonical identity of a goal conjunction: the 128-bit fingerprint of
/// the sorted, deduplicated `(net, value)` pairs.  Permutations and exact
/// duplicates of the input hash identically; a net required at both
/// values is flagged instead of hashed (the conjunction is trivially
/// infeasible and must never enter the table).
struct GoalSetKey {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  /// 64-bit folded support: bit `net % 64` set for every net the
  /// conjunction constrains.  Used only for scoped invalidation (see
  /// JustifyCache::invalidate) — never for identity or placement, so two
  /// keys with equal fingerprints always carry equal supports.
  std::uint64_t support = 0;
  bool contradictory = false;  ///< some net required steady-0 AND steady-1
  bool empty = false;          ///< no goals survived deduplication

  bool operator==(const GoalSetKey&) const = default;
};

/// Builds the canonical key for `goals` (any order, duplicates allowed).
/// `scratch` is caller-owned working memory, reused so the hot path never
/// allocates; its contents on return are unspecified.
GoalSetKey canonicalize_goals(std::span<const Goal> goals,
                              std::vector<std::uint64_t>& scratch);
/// Allocating convenience overload (tests, cold paths).
GoalSetKey canonicalize_goals(std::span<const Goal> goals);

class JustifyCache {
 public:
  struct Config {
    /// Total entry slots; rounded up to a power of two.  16 bytes/slot.
    std::size_t capacity = std::size_t{1} << 16;
    /// Shard count (power of two, clamped to <= capacity).  Probes touch a
    /// single shard, so unrelated keys never contend on the same lines.
    unsigned shards = 16;
    /// Linear-probe window per shard; a full window fails the operation
    /// (UNKNOWN / kFull) rather than ever scanning further or blocking.
    unsigned max_probe = 16;
  };

  JustifyCache();  ///< default Config (defined out of line: C++ forbids
                   ///< nested default member initializers in a default
                   ///< argument before the enclosing class is complete)
  explicit JustifyCache(const Config& config);
  JustifyCache(const JustifyCache&) = delete;
  JustifyCache& operator=(const JustifyCache&) = delete;

  /// Looks up a key.  kUnknown on miss, on a mid-insert entry, or after
  /// the probe window — never blocks, never waits.
  JustifyVerdict probe(const GoalSetKey& key) const;

  enum class InsertOutcome {
    kInserted,  ///< this call claimed the slot and published the verdict
    kRaced,     ///< another thread already holds (or is publishing) the key
    kFull       ///< probe window exhausted — verdict dropped, table intact
  };

  /// Publishes a verdict (must not be kUnknown; key must be hashable —
  /// neither contradictory nor empty).  Wait-free: one CAS attempt per
  /// probed slot, losers re-check and move on.
  InsertOutcome insert(const GoalSetKey& key, JustifyVerdict verdict);

  /// O(shards) invalidation of every entry by bumping each shard's epoch;
  /// concurrent probes and inserts stay safe (old-epoch entries read as
  /// empty).
  void clear();

  /// Scoped invalidation for ECO-incremental re-analysis: bumps the epoch
  /// of only those shards whose resident entries may constrain a net in
  /// `affected_support` (the 64-bit folded mask of the perturbed region's
  /// nets, bit `net % 64`).  Each shard tracks the union of the supports
  /// of every key inserted since its last bump; a shard whose union mask
  /// is disjoint from `affected_support` provably holds no verdict about
  /// any affected net, and its memos survive the ECO.  The fold makes the
  /// per-shard mask a superset of the true support set, so false sharing
  /// of a bit can only *over*-invalidate — never keep a stale verdict.
  /// Returns the number of shards bumped.
  ///
  /// Requires insert-quiescence: no concurrent insert() while invalidating
  /// (a racing insert could publish its support union after the reset and
  /// be missed by a *later* invalidate).  Concurrent probes are safe.  The
  /// serve-mode session satisfies this by applying ECOs strictly between
  /// search runs.
  std::size_t invalidate(std::uint64_t affected_support);

  std::size_t capacity() const { return slots_.size(); }
  unsigned shard_count() const { return shards_; }
  /// The first shard's epoch.  clear() bumps every shard in lockstep, so
  /// for whole-table clears this behaves exactly like the pre-sharded
  /// global epoch (tests rely on the 1..0xFFFF wrap there); after a scoped
  /// invalidate() the shards may disagree and per-shard epochs are the
  /// only meaningful view (shard_epoch()).
  std::uint32_t epoch() const {
    return shard_epoch_[0].load(std::memory_order_relaxed);
  }
  std::uint32_t shard_epoch(unsigned shard) const {
    return shard_epoch_[shard].load(std::memory_order_relaxed);
  }
  /// Union of inserted-key supports since the shard's last bump.
  std::uint64_t shard_support(unsigned shard) const {
    return shard_support_[shard].load(std::memory_order_relaxed);
  }

  /// Published current-epoch entries resident per shard, in shard order.
  /// A linear scan over the table — diagnostics and run reports only,
  /// never the hot path.  Safe against concurrent writers (relaxed counts
  /// may trail in-flight inserts but never tear).
  std::vector<std::size_t> shard_occupancy() const;

 private:
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<std::uint64_t> payload{0};
  };

  std::uint64_t tag_for(const GoalSetKey& key, std::size_t shard) const;
  static std::uint64_t payload_for(const GoalSetKey& key,
                                   JustifyVerdict verdict);
  /// First slot index of the key's probe sequence (within its shard).
  std::size_t slot_base(const GoalSetKey& key) const;
  /// Bumps one shard's epoch (1..0xFFFF, never 0) and resets its support
  /// union.
  void bump_shard(std::size_t shard);

  std::vector<Slot> slots_;
  unsigned shards_ = 1;
  std::size_t shard_slots_ = 0;  ///< slots per shard (power of two)
  unsigned max_probe_ = 16;
  /// Per-shard epoch (1..0xFFFF, never 0) and inserted-support union.
  std::unique_ptr<std::atomic<std::uint32_t>[]> shard_epoch_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> shard_support_;
};

/// Online payoff controller for JustifyTier::kAdaptive (ROADMAP: "adaptive
/// solver escalation").
///
/// The solver tier only pays for itself when its escalations refute
/// conjunctions the implication closure could not — each such CONFLICT is
/// a permanent memo that prunes every later trial carrying the same
/// conjunction.  The controller measures refutes-per-escalation online in
/// fixed-size windows, smooths the ratio with an exponentially decaying
/// average, and *disables* escalation when the smoothed payoff drops below
/// a threshold, degrading the `both` pipeline to closure-only cost on
/// circuits where the solver tier loses.  While disabled, a sparse probe
/// stream (1 in probe_interval candidates) still escalates so the payoff
/// estimate stays live and escalation can re-enable if the search moves
/// into a region where the solver wins again.
///
/// Soundness is free — the controller only decides whether the solver runs
/// on a memo miss.  A vetoed candidate is negatively memoized as
/// kInconclusive, exactly the closure-only tier's verdict, and no tier
/// choice can ever change the enumerated paths (only CONFLICTs authorize
/// pruning, and every tier's CONFLICT is a sound exhaustive refutation).
/// Only the run's *cost* — vector_trials, escalations, wall clock — may
/// move.  This is the one sanctioned exception to the "telemetry is never
/// load-bearing" rule: the telemetry here steers effort, never results.
class EscalationController {
 public:
  struct Config {
    /// Minimum smoothed refutes-per-escalation to keep the solver enabled.
    double payoff_threshold = 0.1;
    /// Escalations per payoff-evaluation window.
    int window = 64;
    /// Weight of the previous smoothed payoff when a window closes
    /// (payoff = decay * payoff + (1 - decay) * window_ratio); [0, 1).
    double decay = 0.5;
    /// While disabled, escalate 1 in this many candidates as probes.
    int probe_interval = 32;
  };

  explicit EscalationController(const Config& config);

  /// Whether the next escalation candidate may run the solver.  Lock-free;
  /// called on every memo miss that survives the closure tier.
  bool should_escalate();
  /// Reports one admitted escalation's outcome (refuted = the solver
  /// returned CONFLICT).  Takes a mutex — escalations are bounded solver
  /// runs, so the lock is noise against the work it accounts for.
  void record_outcome(bool refuted);
  /// Reports one vetoed candidate (bookkeeping only).
  void record_veto();

  struct Snapshot {
    long escalations = 0;  ///< candidates admitted to the solver
    long refutes = 0;      ///< admitted escalations returning CONFLICT
    long vetoes = 0;       ///< candidates denied the solver
    long windows = 0;      ///< payoff windows completed
    long disables = 0;     ///< enabled -> disabled transitions
    double payoff = -1.0;  ///< smoothed refutes-per-escalation (-1: no
                           ///< window has completed yet)
    bool enabled = true;   ///< current gate state
  };
  Snapshot snapshot() const;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

 private:
  Config cfg_;
  std::atomic<bool> enabled_{true};
  std::atomic<long> probe_ticks_{0};
  std::atomic<long> vetoes_{0};
  mutable std::mutex mu_;  ///< guards the window accumulators below
  long window_escalations_ = 0;
  long window_refutes_ = 0;
  long total_escalations_ = 0;
  long total_refutes_ = 0;
  long windows_ = 0;
  long disables_ = 0;
  double payoff_ = -1.0;
};

}  // namespace sasta::sta
