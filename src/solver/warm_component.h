#ifndef GSLS_SOLVER_WARM_COMPONENT_H_
#define GSLS_SOLVER_WARM_COMPONENT_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "solver/component_eval.h"
#include "solver/solver.h"
#include "solver/truth_tape.h"
#include "util/cancel.h"

namespace gsls::solver {

/// Persistent intra-component evaluation state: the warm dual of the
/// component-level change pruning `IncrementalSolver` already does. One
/// instance lives per large recursive component (keyed by its first member
/// atom) and survives across deltas, keeping a trail-recording
/// `ComponentEvaluator` (solver/component_eval.h):
///
///   * the component's keep-all `RuleTable` (every candidate retained, so
///     mask flips and external drift are counter patches, not recompiles),
///   * the `SourceTracker` with its live source pointers,
///   * a decision trail: every decided atom in decision order, with a
///     monotone batch stamp and, for true atoms, the rule that fired it, and
///   * a drift record: the mask flips and external moves the owner
///     reported since the last re-solve (`RecordRuleFlip`,
///     `RecordExternalMove`).
///
/// A delta then re-solves the component by *patching*: reconcile the
/// recorded drift against the table's snapshots (the delta's footprint,
/// never a scan of every rule or external), undo the smallest trail
/// suffix whose justifications the drift invalidated, seed the unfounded
/// flood from exactly the undone atoms and killed rules, and resume the
/// alternating fixpoint — instead of a cold compile + `InitSources` over
/// the whole component. `SolveComponent` runs both the first solve and
/// the re-solves as its component step.
///
/// Soundness rests on two invariants, both audited (`AuditInvariants`,
/// called from `check::SolverAuditor`):
///
///   * Justification monotonicity: the batch of every atom justifying a
///     decision (the firing rule's satisfied body for a true atom; the
///     dead rules' witnesses for a false atom) is smaller than the
///     decision's own batch, except that one flood's falsifications share
///     one batch (they are mutually justified — a partial flood undo would
///     be unsound). Undoing a *suffix* of the trail by batch therefore
///     leaves every survivor fully justified, and the alternating fixpoint
///     restarted from that sound under-approximation converges to the same
///     well-founded model a cold solve computes.
///   * Warm state is provably consistent or discarded: the owner resumes
///     an entry only after `BindingValid` (same atom sequence, same
///     candidate rule count, tape consistent with the tracker) and throws
///     the entry away on any abort or recondensation touching it.
class WarmComponent {
 public:
  /// Whether `comp` should carry warm state at all: recursive and at least
  /// `warm_min_atoms` atoms (0 disables). Depends only on component shape,
  /// never on the schedule, so warm/cold decisions are identical at every
  /// thread count.
  static bool Eligible(const AtomDependencyGraph& graph, uint32_t comp,
                       uint32_t warm_min_atoms) {
    return warm_min_atoms != 0 && graph.IsRecursive(comp) &&
           graph.Atoms(comp).size() >= warm_min_atoms;
  }

  /// True once `Solve` has built the warm state: the next step resumes.
  bool solved() const { return eval_.has_value(); }

  /// Cold-compiles the keep-all table and runs the full alternating
  /// fixpoint with trail recording: `ComponentEvaluator::Solve`'s
  /// contract, producing the same values plus a reusable warm state.
  /// False iff the pass aborted; the instance must then be discarded.
  bool Solve(const GroundProgram& gp, const AtomDependencyGraph& graph,
             uint32_t comp, const std::vector<uint8_t>* disabled,
             TruthTape* values, SolverDiagnostics* diag, CancelCtx* cancel);

  /// True iff this warm state still describes component `comp`: identical
  /// atom sequence (a recondensation that reordered or re-grouped members
  /// invalidates the local ids), identical candidate-rule count (rules are
  /// only ever appended to `gp`, so count equality means no new rule
  /// targets this component — mask flips of retained rules stay patchable),
  /// and a tape consistent with the tracker state (guards against
  /// out-of-band solves having rewritten the component's bytes).
  bool BindingValid(const GroundProgram& gp, const AtomDependencyGraph& graph,
                    uint32_t comp, const TruthTape& values) const;

  /// Drift recording, the owner's half of the footprint contract: every
  /// event that can move a rule's counters between two re-solves must be
  /// reported here — a disabled-mask flip of one of the component's rules
  /// (`RecordRuleFlip`) and a tape move of one of its external atoms
  /// (`RecordExternalMove`, for every occurrence, disabled rules included:
  /// a move under a disabled rule that is later re-enabled and then moved
  /// back would otherwise match its snapshot again while the rule's
  /// counters are stale). The record is a set keyed by local index, so it
  /// stays bounded by rules + externals however long the entry waits.
  /// Rules and atoms this table does not hold are ignored (a new rule
  /// fails `BindingValid` anyway). Thread-safe: pool workers re-solving
  /// several lower components may record into one entry at once.
  void RecordRuleFlip(RuleId r);
  void RecordExternalMove(AtomId a);

  /// Warm re-solve: patch, undo, seed, resume (see class comment). On
  /// entry the tape holds the previous quiescent model for this component
  /// and final post-delta values for every lower component; `disabled` is
  /// the post-delta mask. False iff the pass aborted — the tape may hold
  /// partial writes and the instance must be discarded.
  bool Resolve(const std::vector<uint8_t>* disabled, TruthTape* values,
               SolverDiagnostics* diag, CancelCtx* cancel);

  /// Deep consistency check of the persisted state against the live tape
  /// and mask, for `check::SolverAuditor`: tracker/tape agreement, source
  /// pointers live and acyclic, live-rule counters equal to a from-scratch
  /// recount, snapshots reconciled or their drift recorded, trail batches
  /// monotone with every decision justified (a false atom's rules by
  /// `FalseWitnessed`).
  /// Returns false and sets `*why` (when non-null) to a one-line reason on
  /// the first violation.
  bool AuditInvariants(const GroundProgram& gp,
                       const AtomDependencyGraph& graph, uint32_t comp,
                       const std::vector<uint8_t>* disabled,
                       const TruthTape& values, std::string* why) const;

  size_t atom_count() const { return eval_->table_.atom_count(); }

 private:
  /// True iff dead rule `r`, whose head is false, still justifies that
  /// falsification without leaning on a later decision: `r` is disabled,
  /// has an external witness, a false internal positive decided no later
  /// than the head (the same batch is the same flood), or a true internal
  /// negative decided before it.
  bool FalseWitnessed(LocalRule r, const TruthTape& values,
                      const std::vector<uint8_t>* disabled) const;

  std::optional<ComponentEvaluator<true>> eval_;

  // Patch scratch, reused across calls.
  std::vector<LocalRule> recomputed_;  ///< rules patched this resolve
  std::vector<uint32_t> rule_stamp_;   ///< dedup epoch per rule
  uint32_t stamp_ = 0;

  // The drift record: pending local rules and external indexes, each
  // listed once (the per-index bytes dedupe). Guarded by `drift_mu_`.
  mutable std::mutex drift_mu_;
  std::vector<LocalRule> drift_rules_;
  std::vector<uint32_t> drift_exts_;
  std::vector<uint8_t> rule_recorded_;  ///< per local rule
  std::vector<uint8_t> ext_recorded_;   ///< per external index
};

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_WARM_COMPONENT_H_
