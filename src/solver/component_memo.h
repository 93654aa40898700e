#ifndef GSLS_SOLVER_COMPONENT_MEMO_H_
#define GSLS_SOLVER_COMPONENT_MEMO_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/dynamic_condensation.h"

namespace gsls::solver {

/// Per-component memo of solved results, keyed by component id: entry `c`
/// is *valid* when the persistent tapes
/// (`TruthTape`/`StageTape` of `IncrementalSolver`) hold the final values
/// of component `c` for the current program — i.e. the component was
/// solved and no later delta could have moved it.
///
/// This is what makes goal-directed queries (`IncrementalSolver::
/// QueryAtom`) cheap on repeat: a query solves the down-cone of its atom
/// once, marks those components valid, and a second query over an
/// overlapping cone serves every still-valid component straight from the
/// tape — zero evaluation, one byte test per cone member (and when *every*
/// component is valid, the query skips even the cone walk).
///
/// Invalidation is the mirror image of the delta path's dirtying and is
/// deliberately *lazy and change-pruned*, never a transitive sweep:
///
///  - A fact or rule delta invalidates exactly the components whose rule
///    set changed (the same dirty sets `CondensationRepair` and the
///    up-cone path already compute) — O(delta), not O(up-cone).
///  - When a later solve re-runs an invalid component and its values (or
///    stages) actually move, the re-solve invalidates the component's
///    direct dependents in turn (the same occurrence scan the up-cone
///    change pruning uses). Staleness therefore propagates exactly as far
///    as real value changes do, one solved component at a time, and a
///    delta whose effects die out locally never touches the memo beyond
///    its own cone.
///
/// The closure invariant that makes the laziness sound: a valid entry's
/// tape values are correct *provided every invalid component below it is
/// re-solved first (in dependency order) and dependents are invalidated
/// whenever a re-solve changes values*. The cone pass maintains exactly
/// this discipline in both directions (query and delta).
///
/// Component ids are stable under condensation repairs
/// (`DynamicCondensation`), so an entry stays attached to its component
/// across deltas; `ApplyRepair` only drops the repair's dirty components.
/// An id freed by a merge and later reused by a split piece or a new atom
/// is dirty (or seeded) at its reuse, so no stale entry survives the
/// reuse.
///
/// Thread-safety: none. The cone pass reads validity before its executor
/// runs and writes it after — see `IncrementalSolver::RunConePass`.
class ComponentMemo {
 public:
  /// Lifetime counters for diagnostics and the serving-layer telemetry.
  struct Stats {
    uint64_t hits = 0;           ///< cone members served from the memo
    uint64_t misses = 0;         ///< cone members that had to re-solve
    uint64_t invalidations = 0;  ///< valid entries dropped by deltas/changes
    std::string ToString() const;
  };

  /// Number of components currently tracked.
  uint32_t size() const { return static_cast<uint32_t>(valid_.size()); }

  /// True iff component `c`'s tape values are served as final.
  bool Valid(uint32_t c) const { return c < valid_.size() && valid_[c] != 0; }

  /// True iff every tracked component is valid — the all-memo-hit fast
  /// path: a query can answer from the tape without walking its cone.
  bool AllValid() const { return invalid_count_ == 0; }

  /// Grows to `id_bound` entries; new components (fresh ids of split
  /// pieces or newly interned atoms) start invalid.
  void Grow(uint32_t id_bound) {
    if (id_bound <= valid_.size()) return;
    invalid_count_ += id_bound - static_cast<uint32_t>(valid_.size());
    valid_.resize(id_bound, 0);
  }

  /// Resizes to exactly `id_bound` entries, all invalid — the ids of a
  /// rebuilt condensation name different components.
  void Reset(uint32_t id_bound) {
    InvalidateAll();
    valid_.assign(id_bound, 0);
    invalid_count_ = id_bound;
  }

  /// Records that `c` was solved against the current program.
  void MarkValid(uint32_t c) {
    if (valid_[c] == 0) {
      valid_[c] = 1;
      --invalid_count_;
    }
  }

  /// Marks every entry valid — a full solve just finalized every
  /// component.
  void MarkAllValid() {
    std::fill(valid_.begin(), valid_.end(), 1);
    invalid_count_ = 0;
  }

  /// Drops entry `c`. Returns true iff it was valid (the caller queues a
  /// re-solve marker only for newly invalidated components, keeping the
  /// pending set duplicate-free).
  bool Invalidate(uint32_t c) {
    if (c >= valid_.size() || valid_[c] == 0) return false;
    valid_[c] = 0;
    ++invalid_count_;
    ++stats_.invalidations;
    return true;
  }

  /// Drops every entry (`InvalidateMemo` on the solver: the next query
  /// pays a cold cone, the next `Model()` a full solve). Keeps sizes.
  void InvalidateAll() {
    for (uint32_t c = 0; c < valid_.size(); ++c) {
      if (valid_[c] != 0) ++stats_.invalidations;
      valid_[c] = 0;
    }
    invalid_count_ = static_cast<uint32_t>(valid_.size());
  }

  /// Drops the entries of `rep.dirty`: the components whose rule set or
  /// membership the repair changed. Every other id names the same
  /// component as before, so its entry stands.
  void ApplyRepair(const CondensationRepair& rep) {
    for (uint32_t c : rep.dirty) Invalidate(c);
  }

  /// Tallies cone members served from the memo / re-solved, once per
  /// query pass.
  void CountHits(uint64_t n) { stats_.hits += n; }
  void CountMisses(uint64_t n) { stats_.misses += n; }
  const Stats& stats() const { return stats_; }

 private:
  std::vector<uint8_t> valid_;  ///< per component; 1 = served from memo
  uint32_t invalid_count_ = 0;
  Stats stats_;
};

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_COMPONENT_MEMO_H_
