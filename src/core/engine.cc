#include "core/engine.h"

#include <algorithm>
#include <cassert>

#include "serve/session.h"
#include "solver/solver.h"
#include "wfs/wfs.h"

namespace gsls {

const char* GoalStatusName(GoalStatus s) {
  switch (s) {
    case GoalStatus::kSuccessful: return "successful";
    case GoalStatus::kFailed: return "failed";
    case GoalStatus::kFloundered: return "floundered";
    case GoalStatus::kIndeterminate: return "indeterminate";
    case GoalStatus::kUnknown: return "unknown";
  }
  return "?";
}

GoalStatus StatusOfValue(TruthValue v) {
  switch (v) {
    case TruthValue::kTrue: return GoalStatus::kSuccessful;
    case TruthValue::kFalse: return GoalStatus::kFailed;
    case TruthValue::kUndefined: return GoalStatus::kIndeterminate;
  }
  return GoalStatus::kUnknown;
}

std::optional<Ordinal> LevelOfStages(TruthValue v, uint32_t true_stage,
                                     uint32_t false_stage) {
  const uint32_t stage = v == TruthValue::kTrue    ? true_stage
                         : v == TruthValue::kFalse ? false_stage
                                                   : 0;
  if (stage == 0) return std::nullopt;
  return Ordinal::Finite(stage);
}

namespace {

/// Goals are literal sets (queries are sets, Def. 1.3): drop duplicates,
/// preserving first-occurrence order so selection rules see a stable order.
Goal NormalizeGoal(const Goal& goal) {
  Goal out;
  out.reserve(goal.size());
  for (const Literal& l : goal) {
    if (std::find(out.begin(), out.end(), l) == out.end()) out.push_back(l);
  }
  return out;
}

uint64_t MixKey(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h *= 0xc4ceb9fe1a85ec53ULL;
  return h ^ (h >> 29);
}

}  // namespace

GlobalSlsEngine::GlobalSlsEngine(const Program& program, EngineOptions opts)
    : program_(program), store_(program.store()), opts_(opts) {}

GlobalSlsEngine::~GlobalSlsEngine() = default;

bool GlobalSlsEngine::OracleApplies() const {
  // The bottom-up model matches the search statuses only under the
  // preferential rule (Thm. 4.7); the counterexample computation rules of
  // Examples 3.2/3.3 must keep exhibiting their incompleteness.
  if (!opts_.bottom_up_oracle || !opts_.memo_simplification) return false;
  if (opts_.selection != SelectionMode::kPositivistic ||
      !opts_.negatively_parallel) {
    return false;
  }
  // Exactness needs the depth-1 relevant grounding to be the whole
  // relevant instantiation: function-free programs only (arguments are
  // constants or variables, i.e. atom depth <= 2).
  for (const Clause& c : program_.clauses()) {
    if (c.head->depth() > 2) return false;
    for (const Literal& l : c.body) {
      if (l.atom->depth() > 2) return false;
    }
  }
  return true;
}

void GlobalSlsEngine::MaybeSeedOracle() {
  if (oracle_attempted_) return;
  oracle_attempted_ = true;
  if (!OracleApplies()) {
    // The clause base may have grown out of the oracle's domain (e.g. a
    // function-symbol clause arrived): a previously opened oracle is now
    // stale and must never seed another memo. Queries fall back to plain
    // search.
    oracle_session_.reset();
    return;
  }
  // A program that gained clauses since the oracle was opened (AddClause,
  // then ClearMemo) invalidates the ground model wholesale: re-open.
  if (oracle_session_ == nullptr ||
      oracle_clause_count_ != program_.clauses().size()) {
    oracle_session_.reset();
    // Levels ride the same SCC schedule as the model (solver/stages.h).
    SessionOptions sopts;
    sopts.solver = opts_.solver;
    sopts.compute_levels = opts_.compute_levels;
    Result<Session> opened = Session::Open(program_, std::move(sopts));
    if (!opened.ok()) {
      // Over the grounding budget: plain search until the next
      // `ClearMemo`. Stopped by the caller's cancel, deadline or budget:
      // plain search now, and the next query retries the open.
      const StatusCode code = opened.status().code();
      oracle_attempted_ = code != StatusCode::kCancelled &&
                          code != StatusCode::kDeadlineExceeded;
      return;
    }
    oracle_session_ = std::make_unique<Session>(std::move(opened.value()));
    oracle_clause_count_ = program_.clauses().size();
  }
  // The session persists across queries and `ClearMemo`: `Model()`
  // returns the cached solve when the program is unchanged, so reseeding
  // is one O(atoms) memo fill, not a re-ground and re-solve.
  IncrementalSolver& oracle = oracle_session_->solver();
  const GroundProgram& gp = oracle.program();
  const WfsModel& wfs = oracle.Model();
  if (wfs.outcome != SolveOutcome::kCompleted) {
    // The seed pass was cancelled or hit its deadline: the model is the
    // anytime partial state, not Thm. 4.7's — seeding from it would
    // memoize wrong determinations. Leave the memo empty (plain search is
    // sound without it) and let a later query retry the seed, resuming
    // exactly the solver's remaining work.
    oracle_attempted_ = false;
    return;
  }
  const bool levels = wfs.has_levels;
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    MemoEntry& entry = memo_[gp.AtomTerm(a)];
    entry.done = true;
    SubgoalOutcome& out = entry.outcome;
    const TruthValue v = wfs.model.Value(a);
    out.status = StatusOfValue(v);
    if (!levels) continue;
    if (std::optional<Ordinal> level =
            LevelOfStages(v, wfs.true_stage[a], wfs.false_stage[a])) {
      out.level = *level;
      out.level_exact = true;
    }
  }
}

size_t GlobalSlsEngine::SelectLiteral(const Goal& goal) const {
  if (goal.empty()) return SIZE_MAX;
  switch (opts_.selection) {
    case SelectionMode::kPositivistic:
      for (size_t i = 0; i < goal.size(); ++i) {
        if (goal[i].positive) return i;
      }
      return SIZE_MAX;
    case SelectionMode::kNegativesFirst:
      for (size_t i = 0; i < goal.size(); ++i) {
        if (!goal[i].positive) return i;
      }
      return 0;
    case SelectionMode::kLeftmost:
      return 0;
  }
  return SIZE_MAX;
}

uint64_t GlobalSlsEngine::GroundGoalKey(const Goal& goal) {
  std::vector<uint64_t> keys;
  keys.reserve(goal.size());
  for (const Literal& l : goal) {
    if (!l.atom->ground()) return 0;
    keys.push_back(l.atom->hash() * 2 + (l.positive ? 1 : 0));
  }
  std::sort(keys.begin(), keys.end());
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (uint64_t k : keys) h = MixKey(h, k);
  return h == 0 ? 1 : h;
}

GlobalSlsEngine::SubgoalOutcome GlobalSlsEngine::EvalGroundSubgoal(
    const Term* q, size_t neg_depth, Taint* taint) {
  auto it = memo_.find(q);
  if (it != memo_.end()) {
    if (it->second.done) return it->second.outcome;
    if (it->second.in_progress) {
      // Negative loop: the evaluation of q recursively requires q through
      // negation. Provisionally treat the subgoal as indeterminate; the
      // result is tainted and will not be cached unless the loop is on q
      // itself (see below).
      taint->insert(q);
      SubgoalOutcome out;
      out.status = GoalStatus::kIndeterminate;
      out.level_exact = false;
      return out;
    }
  }
  if (neg_depth > opts_.max_negation_depth) {
    SubgoalOutcome out;
    out.status = GoalStatus::kUnknown;
    return out;
  }
  memo_[q].in_progress = true;

  Taint local;
  TreeOutcome tree;
  std::vector<uint64_t> path;
  Goal root{Literal::Pos(q)};
  Expand(root, Substitution(), /*depth=*/0, neg_depth, &path, root,
         /*collect_answers=*/false, Ordinal(), /*carry_exact=*/true, &local,
         &tree);
  SubgoalOutcome out = Aggregate(tree);

  // Re-lookup: recursion may have rehashed the memo table.
  MemoEntry& entry = memo_[q];
  entry.in_progress = false;
  local.erase(q);
  // Caching policy. Successful/failed conclusions never rest on the
  // provisional "indeterminate" answer handed to negative loops (such an
  // answer can only block a leaf from succeeding or a negation node from
  // failing, never enable either), so they are always safe to cache.
  // Indeterminate conclusions are cached only when the only loop involved
  // was through q itself; unknown conclusions are budget-dependent and are
  // never cached.
  bool cacheable = false;
  if (out.status == GoalStatus::kSuccessful ||
      out.status == GoalStatus::kFailed) {
    cacheable = true;
  } else if (out.status == GoalStatus::kFloundered ||
             out.status == GoalStatus::kIndeterminate) {
    cacheable = local.empty();
  }
  if (cacheable) {
    entry.done = true;
    entry.outcome = out;
  } else {
    memo_.erase(q);
  }
  for (const Term* t : local) taint->insert(t);
  return out;
}

void GlobalSlsEngine::HandleActiveLeaf(const Goal& leaf,
                                       const Substitution& theta,
                                       size_t neg_depth, const Goal& root_goal,
                                       bool collect_answers,
                                       const Ordinal& carry_lub,
                                       bool carry_exact, Taint* taint,
                                       TreeOutcome* out) {
  bool any_success_child = false;
  Ordinal min_success_child;
  bool min_success_exact = true;
  bool have_min_success = false;
  bool child_unknown = false;
  bool child_floundered = false;
  bool child_indeterminate = false;
  bool any_nonground = false;
  Ordinal lub_fail;
  bool fail_exact = true;

  auto absorb = [&](const SubgoalOutcome& so) {
    if (so.floundered_somewhere) out->any_floundered = true;
    switch (so.status) {
      case GoalStatus::kSuccessful:
        if (!have_min_success || so.level < min_success_child) {
          min_success_child = so.level;
          min_success_exact = so.level_exact;
        }
        have_min_success = true;
        any_success_child = true;
        break;
      case GoalStatus::kFailed:
        lub_fail = Ordinal::Lub(lub_fail, so.level);
        fail_exact = fail_exact && so.level_exact;
        break;
      case GoalStatus::kFloundered:
        child_floundered = true;
        break;
      case GoalStatus::kIndeterminate:
        child_indeterminate = true;
        break;
      case GoalStatus::kUnknown:
        child_unknown = true;
        break;
    }
  };

  if (opts_.negatively_parallel) {
    // Preferential rule: all ground negative literals of the leaf are
    // expanded together (their statuses combine symmetrically, so simple
    // iteration implements the paper's parallelism).
    for (const Literal& l : leaf) {
      assert(!l.positive);
      if (!l.atom->ground()) {
        any_nonground = true;  // nonground node child: floundered
        continue;
      }
      ++negation_nodes_;
      absorb(EvalGroundSubgoal(l.atom, neg_depth + 1, taint));
    }
  } else {
    // Sequential counterexample mode (Example 3.3): literals are expanded
    // left to right; the first undetermined one wedges the whole leaf even
    // if a later literal would decide it.
    for (const Literal& l : leaf) {
      assert(!l.positive);
      if (!l.atom->ground()) {
        any_nonground = true;
        break;
      }
      ++negation_nodes_;
      SubgoalOutcome so = EvalGroundSubgoal(l.atom, neg_depth + 1, taint);
      absorb(so);
      if (so.status != GoalStatus::kFailed) break;
    }
  }

  // Negation-node status calculus (Def. 3.3 rule 2).
  if (any_success_child) {
    // J is failed; its level is the minimum level of its successful
    // children. The enclosing tree node's failure level takes the lub.
    out->fail_lub = Ordinal::Lub(out->fail_lub, min_success_child);
    if (!min_success_exact || child_unknown) out->level_exact = false;
    return;
  }
  if (child_unknown) {
    out->any_unknown = true;
    out->level_exact = false;
    return;
  }
  if (any_nonground || child_floundered) {
    out->any_floundered = true;
    return;
  }
  if (child_indeterminate) {
    out->any_indeterminate = true;
    out->level_exact = false;
    return;
  }
  // All children failed (or none): J is successful at the lub of its
  // children's levels; the tree node succeeds via this leaf at lub + 1.
  // Deleted (memo-simplified) positive literals contribute their own
  // negation-node levels through the carry.
  out->any_success = true;
  fail_exact = fail_exact && carry_exact;
  Ordinal leaf_level = Ordinal::Lub(lub_fail, carry_lub) + Ordinal::Finite(1);
  if (!out->has_min_success || leaf_level < out->min_success) {
    out->min_success = leaf_level;
    out->has_min_success = true;
  }
  if (!fail_exact) out->level_exact = false;
  if (collect_answers && out->answers.size() < opts_.max_answers) {
    Answer ans;
    // Restrict the composed mgu to the variables of the original goal
    // (Def. 3.4's computed answer substitution, projected for readability).
    std::vector<VarId> root_vars;
    for (const Literal& l : root_goal) CollectVars(l.atom, &root_vars);
    for (VarId v : root_vars) {
      const Term* image = theta.Apply(store_, store_.Var(v));
      if (!(image->IsVar() && image->var() == v)) ans.theta.Bind(v, image);
    }
    ans.level = leaf_level;
    ans.level_exact = fail_exact;
    out->answers.push_back(std::move(ans));
  }
}

void GlobalSlsEngine::Expand(const Goal& goal_in, const Substitution& theta,
                             size_t depth, size_t neg_depth,
                             std::vector<uint64_t>* path_keys,
                             const Goal& root_goal, bool collect_answers,
                             const Ordinal& carry_lub, bool carry_exact,
                             Taint* taint, TreeOutcome* out) {
  if (work_ >= opts_.max_work) {
    work_exhausted_ = true;
    out->any_unknown = true;
    out->level_exact = false;
    return;
  }
  if (depth > opts_.max_slp_depth) {
    out->any_unknown = true;
    out->level_exact = false;
    return;
  }

  // Memo simplification (Sec. 7 memoing device): a ground positive literal
  // with a finished memo entry is resolved against the table instead of
  // being re-derived. Status-preserving by Lemma 4.1 + Thm. 4.7: deleting
  // a successful literal keeps exactly the leaves that matter, and a failed
  // literal fails every leaf below this goal.
  Goal goal = goal_in;
  Ordinal carry = carry_lub;
  bool carry_ok = carry_exact;
  if (opts_.memo_simplification) {
    Goal kept;
    kept.reserve(goal.size());
    bool changed = false;
    for (const Literal& l : goal) {
      if (l.positive && l.atom->ground()) {
        auto it = memo_.find(l.atom);
        if (it != memo_.end() && it->second.done) {
          const SubgoalOutcome& so = it->second.outcome;
          if (so.status == GoalStatus::kFailed) {
            // Every active leaf below this goal contains a witness from the
            // failed literal's derivation: the branch only produces failed
            // leaves. For single-literal goals the failure level transfers
            // exactly.
            if (goal.size() == 1) {
              out->fail_lub = Ordinal::Lub(
                  out->fail_lub,
                  so.level.IsSuccessor() ? so.level.Predecessor() : so.level);
              if (!so.level_exact) out->level_exact = false;
            } else {
              out->level_exact = false;
            }
            return;
          }
          if (so.status == GoalStatus::kSuccessful) {
            carry = Ordinal::Lub(
                carry,
                so.level.IsSuccessor() ? so.level.Predecessor() : so.level);
            carry_ok = carry_ok && so.level_exact;
            if (so.floundered_somewhere) out->any_floundered = true;
            // A fact-level success (level 1) has an empty negation node:
            // deleting it cannot hide successful complements from any
            // leaf. Deeper successes can, so failure levels computed in
            // this tree become approximate.
            if (!(so.level == Ordinal::Finite(1) && so.level_exact)) {
              out->fail_level_approximate = true;
            }
            changed = true;
            continue;
          }
        }
      }
      kept.push_back(l);
    }
    if (changed) goal = std::move(kept);
  }

  size_t sel = SelectLiteral(goal);
  if (sel == SIZE_MAX) {
    ++work_;
    HandleActiveLeaf(goal, theta, neg_depth, root_goal, collect_answers,
                     carry, carry_ok, taint, out);
    return;
  }
  const Literal selected = goal[sel];

  if (!selected.positive) {
    // Non-positivistic computation rule: the selected literal is negative
    // and is resolved inline, sequentially (this is exactly what loses
    // completeness in Example 3.2).
    if (!selected.atom->ground()) {
      out->any_floundered = true;  // unsafe selection: flounders
      out->level_exact = false;
      return;
    }
    ++work_;
    ++negation_nodes_;
    SubgoalOutcome so = EvalGroundSubgoal(selected.atom, neg_depth + 1, taint);
    out->level_exact = false;  // levels are only tracked faithfully for
                               // the positivistic rule
    switch (so.status) {
      case GoalStatus::kSuccessful:
        return;  // complement succeeded: this branch dies
      case GoalStatus::kFailed: {
        Goal rest;
        rest.reserve(goal.size() - 1);
        for (size_t i = 0; i < goal.size(); ++i) {
          if (i != sel) rest.push_back(goal[i]);
        }
        Expand(rest, theta, depth + 1, neg_depth, path_keys, root_goal,
               collect_answers, carry, carry_ok, taint, out);
        return;
      }
      case GoalStatus::kFloundered:
        out->any_floundered = true;
        return;
      case GoalStatus::kIndeterminate:
        out->any_indeterminate = true;
        return;
      case GoalStatus::kUnknown:
        out->any_unknown = true;
        return;
    }
    return;
  }

  // Positive selection: resolve against every program clause whose head
  // unifies (Def. 3.2).
  ++work_;
  uint64_t key = 0;
  if (opts_.prune_repeated_goals) {
    key = GroundGoalKey(goal);
    if (key != 0) {
      if (std::find(path_keys->begin(), path_keys->end(), key) !=
          path_keys->end()) {
        // The same ground goal repeats along this branch, so the branch is
        // infinite; infinite branches are failed (Sec. 7 item 1) and
        // contribute no active leaves.
        return;
      }
      path_keys->push_back(key);
    }
  }

  const std::vector<size_t>& clause_ids =
      program_.ClausesFor(selected.atom->functor());
  for (size_t ci : clause_ids) {
    if (out->answers.size() >= opts_.max_answers) {
      out->any_unknown = true;
      out->level_exact = false;
      break;
    }
    Clause variant = RenameApart(store_, program_.clauses()[ci]);
    Substitution mgu;
    if (!Unify(selected.atom, variant.head, &mgu)) continue;
    Goal child;
    child.reserve(goal.size() - 1 + variant.body.size());
    for (size_t i = 0; i < sel; ++i) {
      child.push_back(Literal{mgu.Apply(store_, goal[i].atom),
                              goal[i].positive});
    }
    for (const Literal& b : variant.body) {
      child.push_back(Literal{mgu.Apply(store_, b.atom), b.positive});
    }
    for (size_t i = sel + 1; i < goal.size(); ++i) {
      child.push_back(Literal{mgu.Apply(store_, goal[i].atom),
                              goal[i].positive});
    }
    Expand(NormalizeGoal(child), theta.ComposeWith(store_, mgu), depth + 1,
           neg_depth, path_keys, root_goal, collect_answers, carry, carry_ok,
           taint, out);
  }
  if (key != 0) path_keys->pop_back();
}

GlobalSlsEngine::SubgoalOutcome GlobalSlsEngine::Aggregate(
    const TreeOutcome& t) {
  SubgoalOutcome out;
  out.floundered_somewhere = t.any_floundered;
  if (t.any_success) {
    out.status = GoalStatus::kSuccessful;
    out.level = t.min_success;
    out.level_exact = t.level_exact;
    return out;
  }
  if (t.any_unknown) {
    out.status = GoalStatus::kUnknown;
    return out;
  }
  if (t.any_floundered) {
    out.status = GoalStatus::kFloundered;
    return out;
  }
  if (t.any_indeterminate) {
    out.status = GoalStatus::kIndeterminate;
    return out;
  }
  out.status = GoalStatus::kFailed;
  out.level = t.fail_lub + Ordinal::Finite(1);
  out.level_exact = t.level_exact && !t.fail_level_approximate;
  return out;
}

QueryResult GlobalSlsEngine::Solve(const Goal& goal) {
  MaybeSeedOracle();
  size_t work_before = work_;
  size_t neg_before = negation_nodes_;
  Taint taint;
  TreeOutcome tree;
  std::vector<uint64_t> path;
  Goal root = NormalizeGoal(goal);
  Expand(root, Substitution(), 0, 0, &path, root, /*collect_answers=*/true,
         Ordinal(), /*carry_exact=*/true, &taint, &tree);
  SubgoalOutcome so = Aggregate(tree);

  QueryResult result;
  result.status = so.status;
  result.level = so.level;
  result.level_exact = so.level_exact && opts_.compute_levels;
  result.floundered_somewhere = so.floundered_somewhere;
  result.answers = std::move(tree.answers);
  // Deduplicate answers by their effect on the goal. Several successful
  // leaves can carry the same substitution; the root's level with respect
  // to that answer is one more than the *minimum* child level (Def. 3.3
  // rule 3(b)), so keep the smallest.
  {
    std::unordered_map<uint64_t, size_t> seen;
    std::vector<Answer> unique;
    for (Answer& a : result.answers) {
      uint64_t h = 0x12345;
      for (const Literal& l : root) {
        h = MixKey(h, a.theta.Apply(store_, l.atom)->hash());
      }
      auto [it, inserted] = seen.emplace(h, unique.size());
      if (inserted) {
        unique.push_back(std::move(a));
      } else {
        Answer& kept = unique[it->second];
        if (a.level < kept.level) {
          kept.level = a.level;
          kept.level_exact = a.level_exact;
        }
      }
    }
    result.answers = std::move(unique);
  }
  result.work = work_ - work_before;
  result.negation_nodes = negation_nodes_ - neg_before;
  if (result.status == GoalStatus::kUnknown) {
    result.diagnostic = work_exhausted_
                            ? "work budget exhausted"
                            : "depth budget exhausted or answers truncated";
  }
  return result;
}

QueryResult GlobalSlsEngine::SolveAtom(const Term* atom) {
  return Solve(Goal{Literal::Pos(atom)});
}

GoalStatus GlobalSlsEngine::StatusOf(const Term* ground_atom) {
  assert(ground_atom->ground());
  MaybeSeedOracle();
  Taint taint;
  SubgoalOutcome so = EvalGroundSubgoal(ground_atom, 0, &taint);
  return so.status;
}

}  // namespace gsls
