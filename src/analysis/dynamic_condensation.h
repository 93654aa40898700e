#ifndef GSLS_ANALYSIS_DYNAMIC_CONDENSATION_H_
#define GSLS_ANALYSIS_DYNAMIC_CONDENSATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "util/cancel.h"
#include "util/csr.h"

namespace gsls {

namespace check {
class SolverAuditor;
}  // namespace check

/// What one rule-level repair did to the condensation — enough for
/// `IncrementalSolver` to mark exactly the affected components dirty.
/// Component ids are stable, so nothing here needs translating: a
/// component the repair did not name keeps its id, atoms, flags and label.
struct CondensationRepair {
  /// The repair rewrote membership or labels (a merge, a split, or a
  /// Pearce–Kelly relabel). When false, only flags of the head component
  /// may have tightened.
  bool recondensed = false;

  /// Components whose atoms or labels the repair wrote. Feeds the
  /// `condense.window_components` telemetry histogram.
  uint32_t written = 0;

  /// Components whose values may have changed and must be re-solved: the
  /// rule's head component plus every component whose membership changed
  /// (merged or split). Dependents are *not* listed — the solver's
  /// change-pruned cone discovers them. This same set drives the query
  /// memo's invalidation (`solver::ComponentMemo`): fact and rule deltas
  /// compose with goal-directed queries for free because both consumers
  /// key off this one dirty set.
  std::vector<uint32_t> dirty;

  /// Components in the Pearce–Kelly affected region of a cycle-closing
  /// insertion (see `InsertRule`). 0 when the repair did not narrow
  /// (edge-only inserts, removals). Feeds the `interior.pk_region`
  /// telemetry histogram.
  uint32_t pk_region_components = 0;
};

/// Dynamic SCC maintenance over a `GroundProgram` that changes one rule at
/// a time: the mutable owner of an `AtomDependencyGraph` whose component
/// ids are *stable* across arbitrary `AssertRule`/`RetractRule` deltas.
/// The dependency order lives in per-component labels
/// (`AtomDependencyGraph::Label`): every enabled rule's body component
/// carries a lower label than its head's — the invariant every downstream
/// consumer (the cone pass's min-heap, stage reconstruction) schedules by.
///
/// Repairs are *localized*: a rule edge that respects the current order
/// (body label <= head label) costs O(rule); only an order violation — a
/// body component labelled above the head's, the one way a delta can
/// create or extend a cycle — runs the Pearce–Kelly repair over the
/// affected region, which re-hands the region's own labels and merges the
/// new cycle (if any) into the head's id. Retracting a rule can only split
/// the head's own component (removing cross-component edges relaxes order
/// constraints but never changes membership), so its repair is one
/// `ForEachScc` run (analysis/scc.h) over that single component.
///
/// Ids: a merge keeps the head component's id and frees the others; a
/// split keeps the old id for its first piece and takes the others from
/// the free list (or appends). Labels: live components also form a list in
/// label order. A merge's dropped labels become gaps; a split places its
/// pieces evenly in the gap between its component's label and the next
/// live label, and when that gap is too narrow it first relabels the
/// smallest aligned label block around the component that is sparse
/// enough (the order-maintenance scheme of Bender et al., "Two simplified
/// algorithms for maintaining order in a list") — O(log C) labels
/// amortized per placed piece, never a pass over the whole program
/// (`Stats::relabels`). Atoms: each component is an (offset, size) slice
/// of one array; a split rewrites its slice in place, a merge appends, and
/// the array is compacted once dead space exceeds live.
///
/// The condensation tracks the *enabled* subprogram: callers flip the
/// per-`RuleId` disabled mask first and then report the delta here.
/// Compiled per-component state is invalidated exactly as narrowly as the
/// repair: `CondensationRepair::dirty` names the components whose
/// `RuleTable` compilations and tape values the solver must redo; every
/// other component's state stays live.
class DynamicCondensation {
 public:
  /// Builds the initial condensation of the enabled subprogram.
  DynamicCondensation(const GroundProgram& gp,
                      const std::vector<uint8_t>* disabled);

  /// The live condensation. Labels remain in dependency order after every
  /// repair; the reference is stable, its contents change under repairs.
  const AtomDependencyGraph& graph() const { return graph_; }

  /// True once a repair moved ids or labels off the fresh build's dense
  /// numbering (a merge, a split or a relabel): ascending id order is then
  /// no longer a dependency order, and holes may exist.
  bool repaired() const { return repaired_; }

  /// Replaces the condensation by a fresh build of the enabled subprogram
  /// (dense ids in dependency order, `repaired()` false). Stats are kept.
  void Rebuild(const GroundProgram& gp, const std::vector<uint8_t>* disabled);

  /// Adds singleton components for atoms [graph().atom_count(),
  /// new_atom_count) — atoms interned since the last repair. They carry no
  /// rules yet, so any fresh label is order-correct; a later `InsertRule`
  /// mentioning them repairs the order if needed.
  void AddAtoms(size_t new_atom_count);

  /// Repairs the condensation after rule `r` of `gp` was enabled (newly
  /// added, or its disabled-mask byte cleared). Every atom of the rule
  /// must already be covered (`AddAtoms`).
  ///
  /// Cancellation (`cancel` non-null): a repair polls the ctx every
  /// `kCancelStride` steps, but — unlike the solve loops — it always
  /// *completes structurally*: a half-repaired condensation has no
  /// consistent state to roll back to, so the checkpoints latch the
  /// outcome (and count toward fault/step budgets) while the repair runs
  /// to the end. The abort then lands at the next solve-side checkpoint;
  /// repairs are O(affected region), so the added latency is bounded by
  /// the repair the caller already asked for.
  CondensationRepair InsertRule(const GroundProgram& gp,
                                const std::vector<uint8_t>* disabled,
                                RuleId r, CancelCtx* cancel = nullptr);

  /// Repairs the condensation after rule `r` of `gp` was disabled. Only
  /// the head's component can change (it may split). Cancellation as in
  /// `InsertRule`: latch-only, the repair always completes.
  CondensationRepair RemoveRule(const GroundProgram& gp,
                                const std::vector<uint8_t>* disabled,
                                RuleId r, CancelCtx* cancel = nullptr);

  /// Counters describing how local the repairs stayed.
  struct Stats {
    uint64_t inserts = 0;        ///< InsertRule calls
    uint64_t removals = 0;       ///< RemoveRule calls
    uint64_t windows = 0;        ///< recondensing repairs (split or PK)
    uint64_t window_atoms = 0;   ///< atoms visited across all windows
    uint64_t window_ns = 0;      ///< wall time inside those repairs
    uint64_t merges = 0;         ///< windows that merged components
    uint64_t splits = 0;         ///< windows that split a component
    uint64_t pk_regions = 0;       ///< inserts repaired by PK narrowing
    uint64_t pk_region_comps = 0;  ///< components across all PK regions
    uint64_t relabels = 0;       ///< label blocks relabelled for room
    uint64_t relabel_comps = 0;  ///< components across those blocks

    std::string ToString() const;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Re-runs `ForEachScc` over component `c` (enabled rules only, edges
  /// leaving it ignored) after a retraction removed one of its internal edges.
  /// One piece: only the flags are recomputed, and the repair is not
  /// reported as `recondensed` (the slice, local ids and label stand, so
  /// warm state keyed by them survives). Several: the pieces are
  /// written back into `c`'s slice in callee-first order, the first keeps
  /// id `c` and its label, and the rest take evenly spaced labels in the
  /// gap up to the next live label (`MakeRoom`).
  void SplitComponent(const GroundProgram& gp,
                      const std::vector<uint8_t>* disabled, uint32_t c,
                      CondensationRepair* out, CancelCtx* cancel);

  /// Pearce–Kelly repair for a cycle-closing insertion of rule `r` with
  /// head component `ch` and highest-labelled body component `cmax`
  /// (`Label(cmax) > Label(ch)`). Computes the affected region: F =
  /// components forward-reachable from `ch` with labels <= Label(cmax),
  /// B = components backward-reachable from the rule's violating body
  /// components with labels >= Label(ch) (the new rule's own edges
  /// excluded from both searches). Every new cycle passes through the new
  /// edge, hence through `ch`, so the merged SCC — if any — is exactly
  /// M = F ∩ B at component granularity, every member absorbed whole; no
  /// Tarjan run is needed. The region's own labels, sorted, go to
  /// [B \ M, merged M, F \ M] — a placement every mixed edge tolerates,
  /// since B members only move earlier and F members only later — and
  /// components outside the region keep id, atoms, flags and label, which
  /// is what lets the solver's per-component warm state
  /// (`solver::WarmComponent`) survive the repair.
  void NarrowedInsertRepair(const GroundProgram& gp,
                            const std::vector<uint8_t>* disabled, RuleId r,
                            uint32_t ch, uint32_t cmax,
                            CondensationRepair* out, CancelCtx* cancel);

  /// A free id, or a new one appended to every per-component array.
  uint32_t AllocId();
  /// Makes room for `n` labels right after live component `c` and returns
  /// their spacing: the j-th goes at `Label(c) + j * step`, j = 1..n, all
  /// below the next live label. A gap that is too narrow first relabels,
  /// evenly and in order, the smallest aligned label block around `c`
  /// whose density stays below a threshold that shrinks with the block's
  /// size; the labels of the other live components keep their order.
  uint64_t MakeRoom(uint32_t c, uint32_t n);
  /// Exclusive bound for labels placed right after `c`: the next live
  /// label, or past the last component `n + 1` fresh strides (capped at
  /// the label space).
  uint64_t RoomEnd(uint32_t c, uint32_t n) const;
  /// Inserts `c` into the label-order list after `pos` (`kNone`: first).
  void LinkAfter(uint32_t pos, uint32_t c);
  void Unlink(uint32_t c);
  /// Drops the dead space merges left in the atom array.
  void CompactAtoms();

  static constexpr uint32_t kNone = UINT32_MAX;

  AtomDependencyGraph graph_;
  /// Live components as a doubly linked list in ascending label order
  /// (per component id; `kNone` ends, and for freed ids).
  std::vector<uint32_t> prev_;
  std::vector<uint32_t> next_;
  uint32_t first_ = kNone;
  uint32_t last_ = kNone;
  /// Atoms in the array not covered by a live slice (merged-away slices).
  size_t dead_atoms_ = 0;
  bool repaired_ = false;

  // Split scratch, reused across repairs. The split's graph is over the
  // component's dense ranks (`LocalIndexOf`), so no per-atom global array
  // needs resetting between repairs.
  std::vector<AtomId> old_window_atoms_;  ///< pre-repair slice, by rank
  Csr<uint32_t> split_adj_;               ///< induced edges, rank -> rank
  std::vector<AtomId> new_atoms_;         ///< re-grouped slice
  std::vector<uint32_t> new_offsets_;     ///< prefix sizes of the pieces

  // Pearce–Kelly frontier scratch. Epoch-stamped marks over component ids
  // (stamping beats clearing).
  std::vector<uint32_t> pk_f_;      ///< forward-mark epoch per component
  std::vector<uint32_t> pk_b_;      ///< backward-mark epoch per component
  std::vector<uint32_t> pk_seq_f_;  ///< F in discovery order, then F \ M
  std::vector<uint32_t> pk_seq_b_;  ///< B in discovery order, then B \ M
  std::vector<uint32_t> pk_seq_m_;  ///< M = F ∩ B
  /// The region F ∪ B sorted by label, those labels, and per slot the
  /// list element it follows (`kChained`: the previous slot).
  std::vector<uint32_t> pk_region_;
  std::vector<uint64_t> pk_labels_;
  std::vector<uint32_t> pk_anchor_;
  uint32_t pk_epoch_ = 0;

  Stats stats_;

  /// The auditor checks the label-order list against the labels.
  friend class check::SolverAuditor;
};

}  // namespace gsls

#endif  // GSLS_ANALYSIS_DYNAMIC_CONDENSATION_H_
