#ifndef GSLS_WFS_WFS_H_
#define GSLS_WFS_WFS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ground/ground_program.h"
#include "util/cancel.h"
#include "wfs/interpretation.h"
#include "wfs/operators.h"

namespace gsls {

/// The well-founded partial model of a finite ground program, with
/// iteration diagnostics and (when requested) the V_P stage levels.
struct WfsModel {
  Interpretation model;
  /// Number of outer iterations until the fixpoint closed.
  uint32_t iterations = 0;

  /// How the solve that produced this model ended. Anything other than
  /// `kCompleted` means the pass hit a cancellation checkpoint
  /// (`SolverOptions::cancel`/`deadline_ns`/`step_budget`) and the model
  /// is partial: components finalized before the abort carry their exact
  /// well-founded values, the rest keep their previous values (undefined
  /// on a from-scratch solve). `IncrementalSolver::Model` resumes exactly
  /// the remaining work on the next call once the stop condition clears.
  SolveOutcome outcome = SolveOutcome::kCompleted;

  /// Global-tree stage levels (Def. 2.4 / Cor. 4.6), per atom, 0 when the
  /// literal of that sign is not in the model. Filled only when the solve
  /// was asked for them (`SolverOptions::compute_levels`), in which case
  /// they are reconstructed from the SCC schedule (solver/stages.h) and
  /// agree atom-for-atom with the `ComputeWfsStages` oracle.
  std::vector<uint32_t> true_stage;
  std::vector<uint32_t> false_stage;
  bool has_levels = false;

  TruthValue Value(AtomId a) const { return model.Value(a); }
};

/// Stages of Def. 2.4: for each literal in the well-founded model, the
/// least (finite, successor) iteration of V_P at which it appears. Stage 0
/// means "not in the model" (undefined atom).
struct WfsStages {
  Interpretation model;
  std::vector<uint32_t> true_stage;   ///< per atom; 0 if not true.
  std::vector<uint32_t> false_stage;  ///< per atom; 0 if not false.
  uint32_t iterations = 0;
};

/// Computes M_WF(P) by iterating W_P(I) = T_P(I) ∪ ¬·U_P(I) from ∅
/// (Def. 2.3). Quadratic worst case (each round is linear, at most
/// |atoms|+1 rounds). `SolveWfs` (src/solver/) computes the same model
/// SCC-stratified in near-linear time and is the production hot path;
/// the iterations here stay as the executable definition and oracle.
WfsModel ComputeWfs(const GroundProgram& gp);

/// Computes M_WF(P) by iterating V_P(I) = T̃_P^ω(I) ∪ ¬·U_P(I) from ∅
/// (Def. 2.4 / Lemma 2.1), recording the stage of every literal. The
/// stages are what Corollary 4.6 relates to global-tree levels.
///
/// Test/bench oracle only: no production path uses this quadratic,
/// inherently sequential iteration anymore. `SolveWfs` / `IncrementalSolver`
/// with `SolverOptions::compute_levels` reconstruct the identical stages
/// from the SCC schedule (solver/stages.h) — near-linear, parallel, and
/// maintained incrementally across fact deltas — and both engines read
/// their levels from there. The executable definition stays here as the
/// agreement reference (tests/stages_test.cc).
WfsStages ComputeWfsStages(const GroundProgram& gp);

/// Computes M_WF(P) by Van Gelder's alternating fixpoint (the polynomial
/// bottom-up algorithm the paper's footnote 5 refers to):
/// S(I) = lfp of positive derivation with negatives read against I;
/// the true set is the least fixpoint of S∘S, the false set the complement
/// of its S-image.
WfsModel ComputeWfsAlternating(const GroundProgram& gp);

/// True iff `total` (which must be total) satisfies every rule of `gp`
/// two-valued: head true, or some positive body atom false, or some
/// negative body atom true.
bool IsTwoValuedModel(const GroundProgram& gp, const Interpretation& total);

/// Renders the atoms on which two partial interpretations disagree, as
/// `atom: lhs-value vs rhs-value` lines — the debugging companion of the
/// model-agreement tests and benches. Empty when the models are equal.
std::string DescribeModelDifference(const GroundProgram& gp,
                                    const Interpretation& lhs,
                                    const Interpretation& rhs);

/// Least fixpoint of positive derivation where `not q` is read as
/// "q not in assumed_true": the Gelfond-Lifschitz reduct closure. This is
/// the S operator of the alternating fixpoint; it is also the stability
/// check (M is a stable model iff PositiveClosureAssuming(gp, M) == M).
DenseBitset PositiveClosureAssuming(const GroundProgram& gp,
                                    const DenseBitset& assumed_true);

}  // namespace gsls

#endif  // GSLS_WFS_WFS_H_
