#ifndef GSLS_ANALYSIS_DYNAMIC_CONDENSATION_H_
#define GSLS_ANALYSIS_DYNAMIC_CONDENSATION_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "util/cancel.h"

namespace gsls {

/// What one rule-level repair did to the condensation — enough for
/// `IncrementalSolver` to mark exactly the affected components dirty and
/// for `ComponentDag::Splice` to patch the scheduling DAG without a
/// from-scratch rebuild.
struct CondensationRepair {
  /// A window of component ids was re-condensed (local Tarjan). When
  /// false, membership and ids are untouched everywhere.
  bool recondensed = false;
  uint32_t window_lo = 0;        ///< first id of the window (unchanged)
  uint32_t old_window_size = 0;  ///< components in the window before
  uint32_t new_window_size = 0;  ///< components in the window after

  /// Per old window id `window_lo + i`: the new id of the component its
  /// atoms landed in. Well defined for insertions (edges only merge
  /// components, never split them); on a split (`new_window_size >
  /// old_window_size`) the old component fans out and this map is not
  /// produced — the scheduling DAG must rebuild instead of splice.
  std::vector<uint32_t> old_to_new;

  /// Cross-component dependency edges introduced by the rule, as
  /// (body component, head component) pairs in *final* ids. Always
  /// descending (`first < second`); empty for removals.
  std::vector<std::pair<uint32_t, uint32_t>> new_edges;

  /// Components (final ids) whose values may have changed and must be
  /// re-solved: the rule's head component plus every component whose
  /// membership changed (merged or split). Dependents are *not* listed —
  /// the solver's change-pruned cone discovers them. This same set drives
  /// the query memo's invalidation (`solver::ComponentMemo`): fact and
  /// rule deltas compose with goal-directed queries for free because both
  /// consumers key off this one dirty set.
  std::vector<uint32_t> dirty;

  /// Components in the Pearce–Kelly affected region of a cycle-closing
  /// insertion — the true forward/backward frontier re-Tarjaned instead of
  /// the whole id window (see `InsertRule`). 0 when the repair did not
  /// narrow (edge-only inserts, removals). Feeds the `interior.pk_region`
  /// telemetry histogram.
  uint32_t pk_region_components = 0;

  bool split() const { return new_window_size > old_window_size; }
  bool merged() const { return new_window_size < old_window_size; }

  /// Signed shift applied to every component id above the window
  /// (merge-negative, split-positive). Consumers holding per-component
  /// state outside the window — the scheduling DAG's rows, the query
  /// memo's validity map (`solver::ComponentMemo::ApplyRepair`) —
  /// translate their ids by exactly this.
  int64_t id_shift() const {
    return static_cast<int64_t>(new_window_size) -
           static_cast<int64_t>(old_window_size);
  }
};

/// Dynamic SCC maintenance over a `GroundProgram` that changes one rule at
/// a time: the mutable owner of an `AtomDependencyGraph` whose dense
/// component ids stay in dependency order (every enabled rule's body atom
/// lies in a component with id <= its head's) across arbitrary
/// `AssertRule`/`RetractRule` deltas — the invariant every downstream
/// consumer (the cone pass's min-heap and DAG release, stage
/// reconstruction) schedules by.
///
/// Repairs are *localized*: a rule edge that respects the current order
/// (body component <= head component) costs O(rule); only an order
/// violation — a body component above the head's, the one way a delta can
/// create or extend a cycle — triggers a re-run of Tarjan over the id
/// window [head component, max body component], whose atoms sit in one
/// contiguous slice of the component CSR. Any path closing a cycle through
/// the new edge descends through ids inside that window, so components
/// outside it keep membership and id verbatim; the window's components are
/// renumbered in the local Tarjan emission order and spliced back, and
/// ids above shift by the (merge-negative, split-positive) size delta in
/// one linear pass. Retracting a rule can only split the head's own
/// component (removing cross-component edges relaxes order constraints but
/// never changes membership), so its window is that single component.
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

  /// The live condensation. Ids remain in dependency order after every
  /// repair; the reference is stable, its contents change under repairs.
  const AtomDependencyGraph& graph() const { return graph_; }

  /// Appends singleton components for atoms [graph().atom_count(),
  /// new_atom_count) — atoms interned since the last repair. They carry no
  /// rules yet, so a trailing id is always order-correct; a later
  /// `InsertRule` mentioning them repairs the order if needed.
  void AddAtoms(size_t new_atom_count);

  /// Repairs the condensation after rule `r` of `gp` was enabled (newly
  /// added, or its disabled-mask byte cleared). Every atom of the rule
  /// must already be covered (`AddAtoms`).
  ///
  /// Cancellation (`cancel` non-null): a recondensation window polls the
  /// ctx every `kCancelStride` steps, but — unlike the solve loops — it
  /// always *completes structurally*: a half-spliced condensation has no
  /// consistent state to roll back to, so the checkpoints latch the
  /// outcome (and count toward fault/step budgets) while the window runs
  /// to the end. The abort then lands at the next solve-side checkpoint;
  /// windows are O(affected slice), so the added latency is bounded by
  /// the repair the caller already asked for.
  CondensationRepair InsertRule(const GroundProgram& gp,
                                const std::vector<uint8_t>* disabled,
                                RuleId r, CancelCtx* cancel = nullptr);

  /// Repairs the condensation after rule `r` of `gp` was disabled. Only
  /// the head's component can change (it may split). Cancellation as in
  /// `InsertRule`: latch-only, the window always completes.
  CondensationRepair RemoveRule(const GroundProgram& gp,
                                const std::vector<uint8_t>* disabled,
                                RuleId r, CancelCtx* cancel = nullptr);

  /// Counters describing how local the repairs stayed.
  struct Stats {
    uint64_t inserts = 0;        ///< InsertRule calls
    uint64_t removals = 0;       ///< RemoveRule calls
    uint64_t windows = 0;        ///< repairs that re-ran Tarjan
    uint64_t window_atoms = 0;   ///< atoms visited across all windows
    uint64_t window_ns = 0;      ///< wall time inside re-Tarjan windows
    uint64_t merges = 0;         ///< windows that merged components
    uint64_t splits = 0;         ///< windows that split a component
    uint64_t pk_regions = 0;       ///< inserts repaired by PK narrowing
    uint64_t pk_region_comps = 0;  ///< components across all PK regions

    std::string ToString() const;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Re-runs Tarjan over the induced subgraph of components [lo, hi]
  /// (enabled rules only, edges leaving the window ignored), splices the
  /// resulting components back into ids lo.., shifts ids above by the size
  /// delta, and recomputes the window's recursion/negation flags.
  void RecondenseWindow(const GroundProgram& gp,
                        const std::vector<uint8_t>* disabled, uint32_t lo,
                        uint32_t hi, CondensationRepair* out,
                        CancelCtx* cancel);

  /// Pearce–Kelly narrowed repair for a cycle-closing insertion of rule
  /// `r` with head component `ch` and max body component `cmax > ch`.
  /// Instead of re-Tarjaning the whole id window [ch, cmax], computes the
  /// true affected region: F = components forward-reachable from `ch`
  /// within ids <= cmax, B = components backward-reachable from the rule's
  /// violating body components within ids >= ch (the new rule's own edges
  /// excluded from both searches). Every new cycle passes through the new
  /// edge, hence through `ch`, so the merged SCC — if any — is exactly
  /// F ∩ B at component granularity, with every member component absorbed
  /// whole; no Tarjan run is needed. The region is renumbered as
  /// [sorted(B \ M), merged M, sorted(F \ M)] over the region's own id
  /// slots — a placement every mixed edge tolerates, since F members only
  /// move later and B members only earlier — and components outside the
  /// region keep membership and id verbatim, which is what lets the
  /// solver's per-component warm state (`solver::WarmComponent`) survive
  /// repairs that the full-window rewrite would have evicted.
  void NarrowedInsertRepair(const GroundProgram& gp,
                            const std::vector<uint8_t>* disabled, RuleId r,
                            uint32_t ch, uint32_t cmax,
                            CondensationRepair* out, CancelCtx* cancel);

  AtomDependencyGraph graph_;

  // Window scratch, reused across repairs. All Tarjan state is local to
  // the window (dense window-local atom indices), so no per-atom global
  // array needs resetting between repairs.
  std::vector<AtomId> old_window_atoms_;  ///< pre-repair window slice
  std::vector<AtomId> new_atoms_;         ///< re-grouped window slice
  std::vector<uint32_t> new_offsets_;     ///< prefix sizes of new comps

  // Pearce–Kelly frontier scratch. Epoch-stamped marks over *component*
  // ids (a repair touches one in-window region; stamping beats clearing).
  std::vector<uint32_t> pk_f_;      ///< forward-mark epoch per component
  std::vector<uint32_t> pk_b_;      ///< backward-mark epoch per component
  std::vector<uint32_t> pk_stack_;  ///< BFS worklist of component ids
  std::vector<uint32_t> pk_seq_b_;  ///< region ids in B \ M, ascending
  std::vector<uint32_t> pk_seq_m_;  ///< region ids in M = F ∩ B, ascending
  std::vector<uint32_t> pk_seq_f_;  ///< region ids in F \ M, ascending
  std::vector<uint8_t> pk_neg_;     ///< per emitted comp: internal_neg flag
  std::vector<uint8_t> pk_rec_;     ///< per emitted comp: recursive flag
  uint32_t pk_epoch_ = 0;

  Stats stats_;
};

}  // namespace gsls

#endif  // GSLS_ANALYSIS_DYNAMIC_CONDENSATION_H_
