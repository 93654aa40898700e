#ifndef GSLS_CORE_TABLED_H_
#define GSLS_CORE_TABLED_H_

#include <memory>
#include <optional>

#include "core/engine.h"
#include "ground/grounder.h"
#include "serve/session.h"
#include "solver/incremental.h"
#include "util/status.h"
#include "wfs/wfs.h"

namespace gsls {

/// Options for `TabledEngine`.
struct TabledOptions {
  GroundingOptions grounding;
  size_t max_answers = 1'000'000;
  /// Compute the V_P stage levels (Def. 2.4) alongside the model,
  /// reconstructed from the SCC schedule (solver/stages.h) as each
  /// component is solved — not via the quadratic V_P iteration, which no
  /// production path runs anymore. Levels parallelize and survive
  /// `session()` deltas like the model itself. When off,
  /// `LevelOf` has no level to report for registered atoms and answers
  /// carry `level_exact == false`; the solve skips every levels cost.
  bool compute_stages = true;
  /// Tuning of the SCC solver, notably `SolverOptions::num_threads`
  /// (work-stealing parallel per-SCC scheduling; model *and* levels are
  /// thread-count invariant). `compute_levels` is derived from
  /// `compute_stages` above.
  SolverOptions solver;
};

/// The effective variant of global SLS-resolution for function-free
/// programs (Sec. 7): memoing prunes positive loops (tabling over the
/// relevant Herbrand instantiation) and negative loops (bottom-up
/// well-founded fixpoint, the polynomial algorithm of footnote 5). Query
/// answering then uses the exact correspondence of Theorem 4.7:
/// a ground goal is successful iff its positive atoms are well-founded-true
/// and its negated atoms well-founded-false, and the level of a determined
/// goal equals the maximum stage of its literals (Thm. 4.5 / Cor. 4.6).
///
/// Every engine runs on one persistent `IncrementalSolver`: the model (and,
/// with `compute_stages`, the exact levels) comes from the near-linear
/// SCC-stratified pipeline, and ground deltas through `session()` re-solve
/// only the affected up-cone between queries — there is no separate
/// "staged" engine mode anymore.
///
/// Termination is guaranteed whenever the grounding fits the configured
/// budgets — always achievable for function-free programs, where the
/// relevant instantiation is finite. Programs with function symbols can be
/// handled up to a universe depth bound (the result is then exact for goals
/// whose derivations stay within the bound).
class TabledEngine {
 public:
  /// Grounds `program` and computes its well-founded model via the
  /// SCC-stratified incremental solver — with exact stage levels when
  /// `opts.compute_stages`.
  static Result<TabledEngine> Create(const Program& program,
                                     TabledOptions opts = {});

  /// Like `Create`, but restricts the tables to the rules relevant to
  /// `roots` (goal-directed memoing; sound by the relevance property of the
  /// well-founded semantics).
  static Result<TabledEngine> CreateForQuery(const Program& program,
                                             const Goal& query,
                                             TabledOptions opts = {});

  /// Well-founded truth value of a ground atom in the full model (read
  /// after the lazy whole-model solve). Atoms outside the
  /// relevant instantiation are false. A raw model read: it does not apply
  /// the truncation cone, so on a depth-capped grounding the value is only
  /// the bounded fragment's — `StatusOf` reports those atoms `kUnknown`.
  TruthValue ValueOf(const Term* ground_atom) const;

  /// Status of the goal `<- atom` under global SLS-resolution (Thm. 4.7):
  /// `session().Query(atom).status`. Goal-directed — only the atom's
  /// down-cone is solved — and `kUnknown` where no exact answer exists:
  /// for atoms in the truncation cone of a depth-capped grounding
  /// (`ground/truncation.h`) and when the pass was cancelled.
  GoalStatus StatusOf(const Term* ground_atom) const;

  /// Level of `<- atom`: the stage of the corresponding literal
  /// (Cor. 4.6). Empty for undefined atoms (no level exists), for
  /// registered atoms when the engine was created without stages, and
  /// exactly where `StatusOf` answers `kUnknown` (truncation cone, or a
  /// pass that did not complete).
  std::optional<Ordinal> LevelOf(const Term* ground_atom) const;

  /// Evaluates a (possibly nonground) goal: enumerates every answer
  /// substitution grounding the goal into well-founded truth, with levels
  /// when stages were computed. Applies the truncation cone like
  /// `StatusOf`: an instance reading a cone atom is neither an answer nor
  /// a failure, and when such an instance exists — or a positive literal
  /// unifies with a cone atom, registered or not — the status is
  /// `kUnknown` unless an exact answer succeeded (or the goal
  /// floundered), never `kFailed`.
  QueryResult Solve(const Goal& goal) const;

  /// The persistent solver behind this engine (delta mask, stats,
  /// diagnostics, telemetry): `session().solver()`.
  const IncrementalSolver& solver() const { return session_->solver(); }

  /// The direct-mode `Session` this engine answers over, and the one
  /// place its deltas enter: fact and ground-rule `Assert`/`Retract`, and
  /// point `Query`s with status, level and cone cost. Deadlines, step
  /// budgets and cancellation come from `TabledOptions::solver`; the
  /// caller keeps the `CancelToken` and trips or resets it there.
  Session& session() { return *session_; }
  const Session& session() const { return *session_; }

  const GroundProgram& ground() const { return solver().program(); }
  const Program& program() const { return *program_; }

 private:
  TabledEngine(const Program& program, Session session, TabledOptions opts)
      : program_(&program),
        session_(std::make_unique<Session>(std::move(session))),
        opts_(std::move(opts)) {}

  /// The current well-founded model (lazily delta-refreshed; stage levels
  /// ride along when computed). No copy per delta — the up-cone re-solve
  /// stays the only per-delta cost.
  const WfsModel& wfs() const { return session_->solver().Model(); }
  const Interpretation& model() const { return wfs().model; }

  bool has_stages() const { return opts_.compute_stages; }

  /// Backtracking matcher over the atom registry for the positive part of
  /// a goal; `on_complete` is invoked once per grounding substitution.
  template <typename Fn>
  void MatchPositives(const Goal& goal, size_t index, Substitution& subst,
                      Fn&& on_complete) const;

  const Program* program_;
  /// The facade owning the solver. Direct mode: zero extra threads.
  std::unique_ptr<Session> session_;
  TabledOptions opts_;
};

}  // namespace gsls

#endif  // GSLS_CORE_TABLED_H_
