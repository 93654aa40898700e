#ifndef GSLS_SOLVER_STAGES_H_
#define GSLS_SOLVER_STAGES_H_

#include <cstdint>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "solver/truth_tape.h"

namespace gsls::solver {

/// Flat per-atom store of the V_P stage levels (Def. 2.4): for every
/// literal of the well-founded model, the least iteration of V_P at which
/// it appears. 0 means "no stage" (the atom is undefined, or the literal of
/// that sign is not in the model) — the same convention as `WfsStages`.
///
/// Like `TruthTape`, entries of different atoms are distinct memory
/// locations, so parallel workers reconstructing the stages of disjoint
/// components write disjoint `uint32_t` slots with plain stores; the
/// release/acquire edges of the component schedule order them exactly as
/// they order the truth bytes. No per-worker side copy or merge step is
/// needed.
struct StageTape {
  std::vector<uint32_t> true_stage;   ///< per atom; 0 if not true
  std::vector<uint32_t> false_stage;  ///< per atom; 0 if not false

  /// Resets to `atom_count` atoms, all stageless.
  void Assign(size_t atom_count) {
    true_stage.assign(atom_count, 0);
    false_stage.assign(atom_count, 0);
  }

  /// Grows to `atom_count` atoms; new atoms are stageless.
  void Resize(size_t atom_count) {
    true_stage.resize(atom_count, 0);
    false_stage.resize(atom_count, 0);
  }

  size_t size() const { return true_stage.size(); }
};

/// Reconstructs the global V_P stages of one component's atoms from the SCC
/// schedule, after the component has been solved: `values` holds the final
/// truth values of the component and of everything below it, and `*stages`
/// holds the final stages of every lower component. Overwrites exactly the
/// entries of `comp`'s atoms (undefined atoms get 0/0).
///
/// This is the Lonc-Truszczyński composition: stages satisfy the local
/// fixpoint equations
///
///   t(a) = min over a's rules of  max(1, max_pos t(b), max_neg f(b)+1)
///   f(a) = max(1, max over a's rules of
///              min(min over false pos b of f(b),
///                  min over true  neg b of t(b)+1))
///
/// where body atoms of lower components contribute their already-final
/// stages as per-rule offsets and only intra-component references stay
/// symbolic — positive edges carry stages unchanged (T̃_P^ω closes
/// positively within one V_P round) and negative edges add one (a literal
/// only becomes usable the round after its complement settled). Truth is
/// inductive and resolves by label-setting in increasing stage order;
/// falsity is coinductive *within* a round (U_P is the greatest unfounded
/// set), so atoms whose remaining support is a positive loop fall together
/// — detected by the same counting unfounded-set pass the solver's
/// source-pointer detector runs, here once per distinct stage.
///
/// Cost is near-linear in the component's rules per distinct stage value
/// that occurs inside the component, and zero allocation on the
/// non-recursive singleton fast path — versus the globally quadratic
/// `ComputeWfsStages`, which this reconstruction agrees with atom-for-atom
/// (tests/stages_test.cc; `bench_solver` times both).
void ReconstructComponentStages(const GroundProgram& gp,
                                const AtomDependencyGraph& graph,
                                uint32_t comp,
                                const std::vector<uint8_t>* disabled,
                                const TruthTape& values, StageTape* stages);

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_STAGES_H_
