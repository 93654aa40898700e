#ifndef GSLS_CORE_ENGINE_H_
#define GSLS_CORE_ENGINE_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/derivation.h"
#include "core/ordinal.h"
#include "lang/program.h"
#include "solver/incremental.h"
#include "term/substitution.h"

namespace gsls {

/// Thm. 4.7: the status of a ground atom under global SLS-resolution is its
/// well-founded value — true is successful, false is failed, undefined is
/// indeterminate.
GoalStatus StatusOfValue(TruthValue v);

/// Cor. 4.6: the level of a successful (failed) ground atom is the Def. 2.4
/// stage `true_stage` (`false_stage`) that decided it. Undefined atoms have
/// no level, and neither has a stage recorded as 0 (levels not computed).
std::optional<Ordinal> LevelOfStages(TruthValue v, uint32_t true_stage,
                                     uint32_t false_stage);

/// Engine configuration: computation rule plus resource budgets (the paper's
/// procedure is ideal/non-effective; budgets make the search an anytime
/// approximation that is exact whenever it reports a well-determined
/// status).
struct EngineOptions {
  SelectionMode selection = SelectionMode::kPositivistic;
  /// Negatively parallel rule (Def. 3.1): evaluate every ground negative
  /// literal of an active leaf, combining statuses; `false` evaluates them
  /// left-to-right and gets stuck on the first undetermined one
  /// (Example 3.3's sequential counterexample).
  bool negatively_parallel = true;
  /// Prune a branch when a ground goal repeats (as a literal set) along it:
  /// such a branch repeats forever, and infinite branches are failed.
  bool prune_repeated_goals = true;
  /// SLG-style simplification: ground positive literals whose status is
  /// already memoized are resolved against the memo (success deletes the
  /// literal, carrying its level contribution; failure prunes the branch).
  /// Status-preserving by Lemma 4.1 / Thm. 4.7.
  bool memo_simplification = true;
  /// Seed the memo from the bottom-up SCC-stratified solver (`SolveWfs`,
  /// src/solver/) before the first query, making memo simplification an
  /// exact oracle: every registered ground atom resolves in O(1) with the
  /// status Thm. 4.7 prescribes, and (when `compute_levels` is set) the
  /// level Cor. 4.6 prescribes, reconstructed from the SCC schedule
  /// (solver/stages.h) alongside the model — the quadratic V_P iteration
  /// is not involved. Engaged only where it is provably exact and
  /// complete: function-free programs under the preferential rule
  /// (positivistic selection, negatively parallel, memo simplification
  /// on). Otherwise the engine searches as before.
  bool bottom_up_oracle = true;
  /// Compute ordinal levels (Def. 3.3) alongside statuses.
  bool compute_levels = true;
  /// The bottom-up oracle's `Session::Open` options. `num_threads` above
  /// one schedules its solve on a work-stealing pool; the model (and thus
  /// every status served from the memo) is identical at any thread count.
  /// `cancel`, `deadline_ns`, `step_budget` and `fault` stop its grounding
  /// and solve: a stopped oracle seeds nothing, the search answers alone,
  /// and the next query retries.
  SolverOptions solver;

  size_t max_slp_depth = 512;        ///< Max resolution depth per SLP tree.
  size_t max_negation_depth = 96;    ///< Max nesting through negation nodes.
  size_t max_work = 2'000'000;       ///< Total resolution steps budget.
  size_t max_answers = 100'000;      ///< Stop collecting answers after this.
};

/// Result of evaluating one goal.
struct QueryResult {
  GoalStatus status = GoalStatus::kUnknown;
  std::vector<Answer> answers;
  /// Failure level when failed; minimum success level when successful.
  Ordinal level;
  bool level_exact = false;
  /// Some node under the root floundered (a goal can be both successful
  /// and floundered; no other pair of statuses coexists).
  bool floundered_somewhere = false;
  size_t work = 0;            ///< Resolution steps performed.
  size_t negation_nodes = 0;  ///< Negation nodes traversed.
  std::string diagnostic;
};

/// Top-down query evaluation by global SLS-resolution (Def. 3.5): SLP-tree
/// search with recursive evaluation of the ground negative subgoals at
/// active leaves, a memo table for ground subgoal statuses, negative-loop
/// detection, and bottom-up computation of statuses and ordinal levels per
/// Def. 3.3.
///
/// Sound for all programs under a safe rule (Thm. 5.4); complete for
/// nonfloundering queries under the preferential rule (Thm. 6.2), up to the
/// budgets (exhaustion reports `kUnknown`, never a wrong determination).
class Session;  // serve/session.h — the unified facade the engine adapts

class GlobalSlsEngine {
 public:
  explicit GlobalSlsEngine(const Program& program, EngineOptions opts = {});
  ~GlobalSlsEngine();  // out-of-line: `Session` is incomplete here

  /// Evaluates an arbitrary goal, enumerating answer substitutions.
  QueryResult Solve(const Goal& goal);

  /// Evaluates the goal `<- atom`.
  QueryResult SolveAtom(const Term* atom);

  /// Status of the ground goal `<- atom` (memoized across calls).
  GoalStatus StatusOf(const Term* ground_atom);

  /// Clears the ground-subgoal memo table (the bottom-up oracle reseeds it
  /// on the next query when enabled). The oracle's solver and its solved
  /// model are retained while the clause count is unchanged, so reseeding
  /// costs one memo fill, not a re-ground and re-solve. After
  /// `Program::AddClause`, the next query re-opens the oracle on the grown
  /// program, so the memo and the search resolve against the same clauses.
  void ClearMemo() {
    memo_.clear();
    oracle_attempted_ = false;
  }

  /// The direct-mode session the bottom-up oracle lives behind (null
  /// before the first query, or when the oracle does not apply or its
  /// `Session::Open` stopped). It is read-only here: the engine answers
  /// queries over the program it was given, so deltas go through
  /// `Program::AddClause` + `ClearMemo`, or through a `Session` of the
  /// caller's own. Deadlines, step budgets and cancellation enter through
  /// `EngineOptions::solver`; the caller keeps the `CancelToken`.
  const Session* session() const { return oracle_session_.get(); }

  const EngineOptions& options() const { return opts_; }

 private:
  struct SubgoalOutcome {
    GoalStatus status = GoalStatus::kUnknown;
    Ordinal level;
    bool level_exact = false;
    bool floundered_somewhere = false;
  };
  struct MemoEntry {
    bool in_progress = false;
    bool done = false;
    SubgoalOutcome outcome;
  };
  using Taint = std::unordered_set<const Term*>;

  struct TreeOutcome {
    bool any_success = false;
    bool any_floundered = false;
    bool any_indeterminate = false;
    bool any_unknown = false;
    // Levels of failed negation-node children (for the fail level) and the
    // minimum successful-leaf level (for the success level).
    Ordinal fail_lub;
    Ordinal min_success;
    bool has_min_success = false;
    bool level_exact = true;
    /// Memo-simplification deleted a successful literal whose own
    /// derivation had negation-node children (success level > 1). Its
    /// leaves' negative literals are not represented in this tree, so a
    /// *failure* level computed here may overestimate the true level.
    bool fail_level_approximate = false;
    std::vector<Answer> answers;
  };

  /// Evaluates the subsidiary tree for ground atom `q` behind a negation
  /// node (memoized; detects negative loops via `in_progress`).
  SubgoalOutcome EvalGroundSubgoal(const Term* q, size_t neg_depth,
                                   Taint* taint);

  /// Depth-first expansion of the SLP tree for `goal`. `carry_lub` /
  /// `carry_exact` accumulate the negation-node level contributions of
  /// positive literals that memo-simplification deleted along this branch.
  void Expand(const Goal& goal, const Substitution& theta, size_t depth,
              size_t neg_depth, std::vector<uint64_t>* path_keys,
              const Goal& root_goal, bool collect_answers,
              const Ordinal& carry_lub, bool carry_exact, Taint* taint,
              TreeOutcome* out);

  /// Handles an active leaf (only negative literals).
  void HandleActiveLeaf(const Goal& leaf, const Substitution& theta,
                        size_t neg_depth, const Goal& root_goal,
                        bool collect_answers, const Ordinal& carry_lub,
                        bool carry_exact, Taint* taint, TreeOutcome* out);

  /// Aggregates a finished TreeOutcome into a SubgoalOutcome status.
  static SubgoalOutcome Aggregate(const TreeOutcome& t);

  /// True when the bottom-up oracle applies to this engine's options and
  /// program (preferential rule, memoing, function-free clauses).
  bool OracleApplies() const;

  /// Seeds the memo from the bottom-up well-founded model on the first
  /// query after construction or `ClearMemo`, when `bottom_up_oracle`
  /// applies (see EngineOptions). Opens the oracle's session first, and
  /// re-opens it when the program's clause count moved since. No-op on
  /// programs with function symbols or under counterexample rules.
  void MaybeSeedOracle();

  const Program& program_;
  TermStore& store_;
  EngineOptions opts_;
  /// Bottom-up oracle state, opened once per engine and reused across
  /// queries and `ClearMemo` (`IncrementalSolver::Model` is cached).
  /// Re-opened when the program's clause count moved since the open: the
  /// mutate-then-`ClearMemo` pattern must not answer from a stale model.
  std::unique_ptr<Session> oracle_session_;
  size_t oracle_clause_count_ = 0;
  std::unordered_map<const Term*, MemoEntry> memo_;
  size_t work_ = 0;
  size_t negation_nodes_ = 0;
  bool work_exhausted_ = false;
  bool oracle_attempted_ = false;
};

}  // namespace gsls

#endif  // GSLS_CORE_ENGINE_H_
