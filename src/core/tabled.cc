#include "core/tabled.h"

#include <algorithm>

#include "term/substitution.h"

namespace gsls {

/// One path for both modes: the SCC-stratified incremental solver behind
/// a direct-mode `Session`, with `solver.compute_levels` selecting
/// stage-level reconstruction on top of the same schedule.
Result<TabledEngine> TabledEngine::Create(const Program& program,
                                          TabledOptions opts) {
  SessionOptions sopts;
  sopts.grounding = opts.grounding;
  sopts.solver = opts.solver;
  sopts.compute_levels = opts.solver.compute_levels;
  Result<Session> session = Session::Open(program, std::move(sopts));
  if (!session.ok()) return session.status();
  return TabledEngine(program, std::move(session.value()), std::move(opts));
}

Result<TabledEngine> TabledEngine::CreateForQuery(const Program& program,
                                                  const Goal& query,
                                                  TabledOptions opts) {
  // The program is restricted before the solver is built, so this path
  // adopts a solver instead of opening a session; the grounding still
  // stops on the same conditions as `Session::Open`'s.
  const SolverOptions& sopts = opts.solver;
  CancelCtx cancel(sopts.cancel, sopts.deadline_ns, sopts.step_budget,
                   sopts.fault);
  Result<GroundProgram> gp = GroundRelevant(
      program, opts.grounding, cancel.active() ? &cancel : nullptr, nullptr);
  if (!gp.ok()) return gp.status();
  std::vector<const Term*> roots;
  roots.reserve(query.size());
  for (const Literal& l : query) roots.push_back(l.atom);
  auto solver = std::make_unique<IncrementalSolver>(
      RestrictToRelevant(gp.value(), roots), sopts);
  SessionOptions sess_opts;
  sess_opts.compute_levels = sopts.compute_levels;
  Session session = Session::Adopt(std::move(solver), std::move(sess_opts));
  return TabledEngine(program, std::move(session), std::move(opts));
}

TruthValue TabledEngine::ValueOf(const Term* ground_atom) const {
  std::optional<AtomId> id = ground().FindAtom(ground_atom);
  // Atoms outside the relevant instantiation have no derivation, hence are
  // unfounded at the first stage.
  if (!id.has_value()) return TruthValue::kFalse;
  return model().Value(*id);
}

GoalStatus TabledEngine::StatusOf(const Term* ground_atom) const {
  return session_->Query(ground_atom).status;
}

std::optional<Ordinal> TabledEngine::LevelOf(const Term* ground_atom) const {
  const SessionAnswer answer = session_->Query(ground_atom);
  if (answer.status == GoalStatus::kUnknown) return std::nullopt;
  // Outside the relevant instantiation: fails at stage 1, with or
  // without stages.
  if (!ground().FindAtom(ground_atom).has_value()) return Ordinal::Finite(1);
  return answer.level;
}

template <typename Fn>
void TabledEngine::MatchPositives(const Goal& goal, size_t index,
                                  Substitution& subst,
                                  Fn&& on_complete) const {
  while (index < goal.size() && !goal[index].positive) ++index;
  if (index == goal.size()) {
    on_complete(subst);
    return;
  }
  const Term* pattern = goal[index].atom;
  // Candidate atoms: every registered atom of the same predicate whose
  // value is not false (false atoms cannot contribute to a success or to an
  // undefined instance; instances using them are failed and enumerate to
  // nothing).
  for (AtomId a = 0; a < ground().atom_count(); ++a) {
    const Term* atom = ground().AtomTerm(a);
    if (atom->functor() != pattern->functor()) continue;
    if (model().IsFalse(a)) continue;
    Substitution extended = subst;
    if (!Unify(pattern, atom, &extended)) continue;
    MatchPositives(goal, index + 1, extended, on_complete);
  }
}

QueryResult TabledEngine::Solve(const Goal& goal) const {
  QueryResult result;
  TermStore& store = program_->store();

  bool any_success = false;
  bool any_undefined = false;
  bool any_floundered = false;
  // A depth-capped grounding leaves the truncation cone's answers open: a
  // positive literal that could match a cone atom (registered or not), or
  // an instance reading one, rules out an exact failure.
  const TruncationCone* cone = session_->DirectTruncation();
  bool any_truncated = false;
  for (const Literal& l : goal) {
    if (cone != nullptr && l.positive && cone->Overlaps(l.atom)) {
      any_truncated = true;
    }
  }
  Ordinal min_success;
  bool have_min = false;

  Substitution empty;
  Substitution scratch = empty;
  MatchPositives(goal, 0, scratch, [&](const Substitution& subst) {
    // All positive literals are matched to non-false registered atoms.
    // Evaluate the instance three-valued.
    bool instance_true = true;
    bool instance_false = false;
    bool instance_truncated = false;
    Ordinal level;  // max stage over the literals (Thm. 4.5)
    for (const Literal& l : goal) {
      const Term* atom = subst.Apply(store, l.atom);
      if (cone != nullptr && atom->ground() && cone->Contains(atom)) {
        // The bounded fragment's value is not the program's: only the
        // other literals can still decide this instance (to false).
        instance_truncated = true;
        continue;
      }
      if (l.positive) {
        std::optional<AtomId> id = ground().FindAtom(atom);
        // Positive literals were matched against registered atoms.
        TruthValue v = model().Value(*id);
        if (v == TruthValue::kUndefined) instance_true = false;
        if (v == TruthValue::kTrue && has_stages()) {
          level = Ordinal::Lub(level,
                               Ordinal::Finite(wfs().true_stage[*id]));
        }
      } else {
        if (!atom->ground()) {
          // A variable occurs only in negative literals: the instance
          // flounders (cf. the `term` guard of Sec. 6 to prevent this).
          any_floundered = true;
          instance_true = false;
          instance_false = true;
          break;
        }
        switch (ValueOf(atom)) {
          case TruthValue::kTrue:
            instance_false = true;
            instance_true = false;
            break;
          case TruthValue::kUndefined:
            instance_true = false;
            break;
          case TruthValue::kFalse: {
            if (!has_stages()) break;
            std::optional<AtomId> id = ground().FindAtom(atom);
            uint32_t stage = id.has_value() ? wfs().false_stage[*id] : 1;
            level = Ordinal::Lub(level, Ordinal::Finite(stage));
            break;
          }
        }
      }
      if (instance_false) break;
    }
    if (instance_false) return;
    if (instance_truncated) {
      any_truncated = true;
      return;
    }
    if (!instance_true) {
      any_undefined = true;
      return;
    }
    any_success = true;
    if (result.answers.size() >= opts_.max_answers) return;
    Answer ans;
    ans.theta = ProjectAnswer(store, subst, goal);
    ans.level = level;
    ans.level_exact = has_stages();
    if (!have_min || ans.level < min_success) {
      min_success = ans.level;
      have_min = true;
    }
    result.answers.push_back(std::move(ans));
  });

  // Different matchings can induce the same grounding of the goal.
  DeduplicateAnswers(store, goal, &result.answers);

  if (any_success) {
    result.status = GoalStatus::kSuccessful;
    result.level = min_success;
    result.level_exact = has_stages();
  } else if (any_floundered) {
    result.status = GoalStatus::kFloundered;
  } else if (any_truncated) {
    result.status = GoalStatus::kUnknown;
  } else if (any_undefined) {
    result.status = GoalStatus::kIndeterminate;
  } else {
    result.status = GoalStatus::kFailed;
    // Failure level of a compound goal is not reconstructed here; atom
    // queries get it from `LevelOf`.
    if (goal.size() == 1 && goal[0].positive && goal[0].atom->ground()) {
      if (auto lvl = LevelOf(goal[0].atom); lvl.has_value()) {
        result.level = *lvl;
        result.level_exact = true;
      }
    }
  }
  result.floundered_somewhere = any_floundered;
  return result;
}

}  // namespace gsls
