#ifndef GSLS_CORE_DERIVATION_H_
#define GSLS_CORE_DERIVATION_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/ordinal.h"
#include "lang/clause.h"
#include "term/substitution.h"

namespace gsls {

// The derivation step of the paper's top-down procedures and its
// bookkeeping, written once for every procedure that searches: the
// SLP-tree builder, global SLS-resolution (core/engine.h), the SLDNF
// baseline (sldnf/sldnf.h) and the tabled engine's answer enumeration
// (core/tabled.h). Each caller keeps only its own search order and budgets.

/// Status of a goal in a global tree (Def. 3.3 rule 4, plus `kUnknown`).
///
/// `kIndeterminate` is reported when the engine *proves* the evaluation
/// recurses through negation (a negative loop over ground subgoals), the
/// situation the paper calls indeterminate. `kUnknown` is reported when a
/// resource budget was exhausted first; the paper's procedure would simply
/// not have terminated yet. Global SLS-resolution is not effective
/// (Sec. 7), so a faithful implementation must have both escape hatches.
enum class GoalStatus : uint8_t {
  kSuccessful,
  kFailed,
  kFloundered,
  kIndeterminate,
  kUnknown,
};

const char* GoalStatusName(GoalStatus s);

/// Literal-selection component of the computation rule (Def. 3.1).
enum class SelectionMode : uint8_t {
  /// Positivistic: positive literals strictly ahead of negative ones
  /// (required for completeness; part of the preferential rule).
  kPositivistic,
  /// Counterexample mode for Example 3.2: selects the leftmost negative
  /// literal ahead of positive ones. Not safe for completeness.
  kNegativesFirst,
  /// Strict leftmost literal of either sign (SLDNF-style order).
  kLeftmost,
};

/// One computed answer for a goal: the composed most general unifier along
/// a successful branch (Def. 3.4) and the level of the root tree node with
/// respect to it (Def. 3.3 rule 3(b)).
struct Answer {
  Substitution theta;
  Ordinal level;
  bool level_exact = false;
};

/// Index of the literal `mode` selects in `goal`, or SIZE_MAX when the goal
/// is an active leaf (empty, or all-negative under the positivistic rule:
/// no literal may be selected before the negative-leaf stage).
size_t SelectLiteral(const Goal& goal, SelectionMode mode);

/// A child of a derivation step: the resolvent and the composed mgu along
/// the branch to it.
struct Resolvent {
  Goal goal;
  Substitution theta;
};

/// Def. 3.2 resolution step: renames `clause` apart and unifies its head
/// with the selected positive literal `goal[sel]`. On success returns
/// `goal[0..sel)`, the clause body and `goal(sel..]`, all under the mgu,
/// with `theta` composed with the mgu. Empty when the head does not unify.
std::optional<Resolvent> Resolve(TermStore& store, const Clause& clause,
                                 const Goal& goal, size_t sel,
                                 const Substitution& theta);

/// Goals are literal sets (queries are sets, Def. 1.3): drops duplicate
/// literals, keeping first occurrences in order so selection rules see a
/// stable order and repeated-goal detection sees set equality.
Goal NormalizeGoal(const Goal& goal);

/// Canonical key of a ground goal as a literal set, for repeated-goal
/// (infinite branch) detection; 0 when the goal is nonground.
uint64_t GroundGoalKey(const Goal& goal);

/// Def. 3.4: the computed answer substitution `theta` restricted to the
/// variables of the query `root`.
Substitution ProjectAnswer(TermStore& store, const Substitution& theta,
                           const Goal& root);

/// Keeps one answer per instance of `root`, keyed on the instantiated
/// (hash-consed) atoms, in first-occurrence order. Several successful
/// leaves can carry the same answer; the root's level with respect to it
/// is the *minimum* over them (Def. 3.3 rule 3(b)), so the kept answer
/// takes the least level.
void DeduplicateAnswers(TermStore& store, const Goal& root,
                        std::vector<Answer>* answers);

/// Def. 3.3's fold over a node's children: which statuses occur, the least
/// level of a successful child and the lub of the failed children's levels,
/// each with its exactness. Rules 2 and 3 conclude a negation or tree
/// node's status and level from it.
struct ChildStatusFold {
  bool any_success = false;
  bool any_floundered = false;
  bool any_indeterminate = false;
  bool any_unknown = false;
  Ordinal min_success;
  bool min_success_exact = true;
  Ordinal fail_lub;
  bool fail_exact = true;

  void Add(GoalStatus status, const Ordinal& level, bool level_exact);
};

}  // namespace gsls

#endif  // GSLS_CORE_DERIVATION_H_
