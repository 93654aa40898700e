#ifndef GSLS_SOLVER_COMPONENT_EVAL_H_
#define GSLS_SOLVER_COMPONENT_EVAL_H_

#include <cstdint>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "solver/rule_table.h"
#include "solver/solver.h"
#include "solver/stages.h"
#include "solver/truth_tape.h"
#include "solver/unfounded.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace gsls::solver {

/// The per-component evaluation machinery of `SolveWfs`, shared by the
/// full solver, the delta-driven `IncrementalSolver`, and the ready-release
/// schedule (solver/parallel.h). Every entry point takes an optional
/// `disabled` mask (one byte per `RuleId`; nonzero = the rule does not
/// exist for this solve), which is how retracted facts are hidden without
/// rebuilding the `GroundProgram`.
///
/// All evaluation reads and writes a `TruthTape` — the flat byte-per-atom
/// model store — rather than the bit-packed `Interpretation`: one load per
/// atom on the hot path, and disjoint components touch disjoint bytes, so
/// workers finalizing different components never share a memory location.

class WarmComponent;

inline constexpr uint64_t kNoBatch = UINT64_MAX;

/// The decision trail a warm component keeps (solver/warm_component.h):
/// every decided atom in decision order, with a monotone batch stamp and,
/// for true atoms, the rule that fired it.
struct DecisionTrail {
  std::vector<LocalAtom> order;   ///< decided atoms, decision order
  std::vector<uint64_t> batch;    ///< per atom; kNoBatch if undecided
  std::vector<LocalRule> firing;  ///< per atom; rule that fired it
  uint64_t next_batch = 0;
};

/// Drives one recursive component to its local well-founded fixpoint:
/// watched-counter truth propagation alternating with source-pointer
/// unfounded-set floods, writing decided atoms straight into the global
/// tape. Undecided atoms at quiescence are undefined.
///
/// `kTrail` selects the warm variant: a keep-all rule table (every
/// candidate retained, so a later delta patches counters instead of
/// recompiling) and a `DecisionTrail` recording every decision. The cold
/// variant compiles only the live rules and writes no trail; its trail
/// vectors stay empty and never allocate.
template <bool kTrail>
class ComponentEvaluator {
 public:
  /// Compiles the rules of component `comp` against the final lower
  /// values in `values`. A cancellation trip mid-compile leaves an empty
  /// table (`Solve` then returns false without touching the tape).
  ComponentEvaluator(const GroundProgram& gp, const AtomDependencyGraph& graph,
                     uint32_t comp, const TruthTape& values,
                     const std::vector<uint8_t>* disabled, CancelCtx* cancel);
  ComponentEvaluator(const ComponentEvaluator&) = delete;
  ComponentEvaluator& operator=(const ComponentEvaluator&) = delete;

  /// Solves the component from scratch: every atom must be undefined in
  /// `*values` and every lower component final. With a non-null `cancel`,
  /// the compile, propagation and flood loops poll it every
  /// `kCancelStride` steps; false means the pass aborted and the tape may
  /// hold partial writes for this component's atoms.
  bool Solve(TruthTape* values, SolverDiagnostics* diag, CancelCtx* cancel);

 private:
  friend class WarmComponent;

  void SetTrue(LocalAtom a, LocalRule r, TruthTape* values);
  void SetFalse(LocalAtom a, uint64_t batch, TruthTape* values);
  /// Falsifies `unfounded_` — one flood, so (with a trail) one batch.
  void FalsifyUnfounded(TruthTape* values, SolverDiagnostics* diag);
  void Kill(LocalRule r);
  bool Propagate(TruthTape* values, CancelCtx* cancel);
  /// The alternating loop (lfp propagation x unfounded floods), from
  /// whatever the queues and the tracker hold. False on abort.
  bool RunToFixpoint(TruthTape* values, SolverDiagnostics* diag,
                     CancelCtx* cancel);

  RuleTable table_;
  SourceTracker support_;
  std::vector<LocalAtom> true_queue_;
  std::vector<LocalAtom> false_queue_;
  std::vector<LocalAtom> unfounded_;
  DecisionTrail trail_;  ///< written only when kTrail
};

/// Solves component `comp` into `*values`, assuming all lower components
/// final: the one component step of every schedule (the whole-program
/// solve below, the incremental cone pass, the auditor's re-solve).
///
/// A non-null `cancel` is polled once at entry (the component-boundary
/// checkpoint: "one checkpoint per component processed" holds at any
/// thread count, which keeps the fault injector's numbering
/// deterministic) and strided inside the recursive loops. A non-recursive
/// singleton is one 3-valued pass over its rules. A recursive component
/// runs the cold `ComponentEvaluator` — all its atoms undefined on entry —
/// unless `warm` is given: a fresh `WarmComponent` solves from scratch
/// (atoms undefined on entry) and becomes reusable, a solved one resumes
/// from the previous quiescent model (`WarmComponent::Resolve`).
///
/// When `stages` is non-null, the component's V_P stage levels are
/// reconstructed into it right after its values finalize
/// (`ReconstructComponentStages`, solver/stages.h), which requires the
/// stages of every lower component to be final in `*stages`. Null skips
/// every levels cost.
///
/// Returns false iff the pass aborted before this component finalized;
/// its tape entries are then all-undefined and its stage entries
/// untouched, so the abort invariant "fully old or fully new" reduces to
/// the caller restoring its own snapshot (the delta path) or nothing at
/// all (the from-scratch path). An aborted warm entry is inconsistent and
/// must be discarded.
bool SolveComponent(const GroundProgram& gp, const AtomDependencyGraph& graph,
                    uint32_t comp, const std::vector<uint8_t>* disabled,
                    TruthTape* values, StageTape* stages,
                    SolverDiagnostics* diag, CancelCtx* cancel = nullptr,
                    WarmComponent* warm = nullptr);

/// Solves every component of a freshly built `graph` (whose ids are a
/// dependency order) into `*values`, re-sized and reset to all-undefined,
/// with V_P stages into `*stages` when non-null (re-sized and reset
/// likewise). With a null `pool`, in id order on the calling thread;
/// otherwise by ready-release on the pool: each component is released to
/// an idle worker the moment its predecessors are final, each worker
/// accumulates private diagnostics merged into `*diag` after the barrier,
/// and the model and stages are identical to the sequential ones.
///
/// A non-null `cancel` can abort between and inside components; every
/// component not finalized keeps its all-undefined reset state. `*solved`
/// (when non-null; one byte per component) records which components
/// finalized. Returns true iff all of them did.
bool SolveAllComponents(const GroundProgram& gp,
                        const AtomDependencyGraph& graph,
                        const std::vector<uint8_t>* disabled,
                        WorkStealingPool* pool, TruthTape* values,
                        StageTape* stages, SolverDiagnostics* diag,
                        CancelCtx* cancel = nullptr,
                        std::vector<uint8_t>* solved = nullptr);

/// The public `WfsModel` of a solved tape: the model, `rounds` as
/// `iterations`, the pass outcome of `cancel` (completed when null), and
/// the stage levels when `stages` is non-null.
WfsModel ToWfsModel(const TruthTape& values, const StageTape* stages,
                    uint64_t rounds, const CancelCtx* cancel);

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_COMPONENT_EVAL_H_
