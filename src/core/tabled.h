#ifndef GSLS_CORE_TABLED_H_
#define GSLS_CORE_TABLED_H_

#include <memory>
#include <optional>

#include "core/engine.h"
#include "ground/grounder.h"
#include "serve/session.h"
#include "solver/incremental.h"
#include "util/cancel.h"
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

  /// Well-founded truth value of a ground atom in the full model (the
  /// lazy `Refresh` every whole-model read performs). Atoms outside the
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
  /// (Cor. 4.6). Empty for undefined atoms (no level exists) and for
  /// registered atoms when the engine was created without stages.
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

  /// Retracts rule `r` — from the base grounding or a previous
  /// `session().Assert(clause)`. The head's component re-condenses if the
  /// rule held it together (it may split). Returns true iff the rule was
  /// enabled.
  bool RetractRule(RuleId r);

  /// Refreshes the model — the lazy full-or-incremental solve every read
  /// (`ValueOf`/`StatusOf`/`Solve`) performs implicitly — and reports the
  /// pass outcome. `kCompleted` means the model is exact. `kCancelled` /
  /// `kDeadlineExceeded` mean the pass aborted at a checkpoint: the model
  /// is the *anytime* partial state (every component either fully solved
  /// or untouched; see docs/serving.md) and the unfinished remainder stays
  /// queued. Clear the stop condition (`ResetCancel`, or a fresh deadline)
  /// and call `Refresh` again to resume exactly the remaining work.
  SolveOutcome Refresh() { return incremental_->Model().outcome; }

  /// Requests cooperative cancellation of the in-flight (or next) solve
  /// pass. Thread-safe; callable from any thread while another thread is
  /// inside `Solve`/`StatusOf`/`Refresh`. The pass stops at its next
  /// checkpoint with the abort invariant above. The request *latches*:
  /// every later pass also aborts immediately until `ResetCancel`.
  void Cancel() { token_->Cancel(); }

  /// Clears a previous `Cancel` so the next read resumes solving.
  void ResetCancel() { token_->Reset(); }

  /// The cancellation token the engine's solver polls — the one `Cancel`
  /// trips. `TabledOptions::solver.cancel` when the caller supplied one,
  /// otherwise a token the engine owns (attached at creation, so `Cancel`
  /// works out of the box).
  CancelToken* cancel_token() const { return token_; }

  /// Deadline / step-budget for every subsequent solve pass (0 = none);
  /// see `SolverOptions::deadline_ns` / `step_budget`. Passes re-read
  /// these at entry, so setting a fresh deadline after a
  /// `kDeadlineExceeded` pass resumes the remaining work under it.
  void SetDeadlineNs(uint64_t deadline_ns) {
    incremental_->SetDeadlineNs(deadline_ns);
  }
  void SetStepBudget(uint64_t step_budget) {
    incremental_->SetStepBudget(step_budget);
  }

  /// The persistent solver behind this engine (delta mask, stats,
  /// diagnostics).
  const IncrementalSolver& solver() const { return *incremental_; }

  /// The direct-mode `Session` every delta and goal-directed query of this
  /// engine routes through — the unified facade (serve/session.h): fact
  /// and ground-rule deltas (`Assert`/`Retract`) and point `Query`s with
  /// status, level and cone cost.
  Session& session() { return *session_; }
  const Session& session() const { return *session_; }

  /// Telemetry dump of the persistent solver: avoided-work stats, pipeline
  /// diagnostics, condensation-repair stats, and — when the engine was
  /// created with `TabledOptions::solver.telemetry` — the metrics registry
  /// table (per-delta latency/cone histograms with percentiles).
  void DumpTelemetry(std::ostream& os) const {
    incremental_->DumpTelemetry(os);
  }

  const GroundProgram& ground() const { return incremental_->program(); }
  const Program& program() const { return *program_; }

 private:
  TabledEngine(const Program& program, std::unique_ptr<Session> session)
      : program_(&program),
        session_(std::move(session)),
        incremental_(&session_->solver()) {}

  static Result<TabledEngine> FinishCreate(const Program& program,
                                           GroundProgram gp,
                                           TabledOptions opts);

  /// The current well-founded model (lazily delta-refreshed; stage levels
  /// ride along when computed). No copy per delta — the up-cone re-solve
  /// stays the only per-delta cost.
  const WfsModel& wfs() const { return incremental_->Model(); }
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
  /// Cached view of `session_`'s solver for the inline diagnostics paths
  /// (stable across engine moves: both live behind unique_ptrs).
  IncrementalSolver* incremental_ = nullptr;
  TabledOptions opts_;
  /// Engine-owned token attached when the caller supplied none (behind a
  /// pointer: `TabledEngine` moves through `Result`, atomics do not).
  std::unique_ptr<CancelToken> owned_token_;
  CancelToken* token_ = nullptr;  ///< the attached token (owned or caller's)
};

}  // namespace gsls

#endif  // GSLS_CORE_TABLED_H_
