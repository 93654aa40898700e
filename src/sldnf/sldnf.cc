#include "sldnf/sldnf.h"

#include <algorithm>

namespace gsls {

SldnfEngine::SldnfEngine(const Program& program, SldnfOptions opts)
    : program_(program), store_(program.store()), opts_(opts) {}

void SldnfEngine::Expand(const Goal& goal, const Substitution& theta,
                         size_t depth, const Goal& root_goal,
                         bool collect_answers, Outcome* out) {
  if (work_ >= opts_.max_work || depth > opts_.max_depth) {
    out->any_unknown = true;
    return;
  }
  ++work_;
  if (goal.empty()) {
    out->any_success = true;
    if (collect_answers && out->answers.size() < opts_.max_answers) {
      Answer ans;
      ans.theta = ProjectAnswer(store_, theta, root_goal);
      out->answers.push_back(std::move(ans));
    }
    return;
  }
  // Safe computation rule: leftmost literal that is positive or ground.
  size_t sel = SIZE_MAX;
  for (size_t i = 0; i < goal.size(); ++i) {
    if (goal[i].positive || goal[i].atom->ground()) {
      sel = i;
      break;
    }
  }
  if (sel == SIZE_MAX) {
    // Only nonground negative literals remain: the derivation flounders.
    out->any_floundered = true;
    return;
  }
  const Literal selected = goal[sel];

  if (!selected.positive) {
    // Negation as failure: subsidiary SLDNF tree for the complement.
    Outcome sub;
    Expand(Goal{Literal::Pos(selected.atom)}, Substitution(), depth + 1,
           root_goal, /*collect_answers=*/false, &sub);
    if (sub.any_success) return;  // complement provable: branch fails
    if (sub.any_unknown) {
      out->any_unknown = true;  // cannot establish finite failure
      return;
    }
    if (sub.any_floundered) {
      out->any_floundered = true;
      return;
    }
    // Finitely failed: `not q` succeeds.
    Goal rest = goal;
    rest.erase(rest.begin() + static_cast<ptrdiff_t>(sel));
    Expand(rest, theta, depth + 1, root_goal, collect_answers, out);
    return;
  }

  // The clause body goes ahead of the goal's other literals: resolve with
  // the selected literal rotated to the front.
  Goal rotated = goal;
  std::rotate(rotated.begin(), rotated.begin() + static_cast<ptrdiff_t>(sel),
              rotated.begin() + static_cast<ptrdiff_t>(sel) + 1);
  for (size_t ci : program_.ClausesFor(selected.atom->functor())) {
    std::optional<Resolvent> child =
        Resolve(store_, program_.clauses()[ci], rotated, 0, theta);
    if (!child.has_value()) continue;
    Expand(child->goal, child->theta, depth + 1, root_goal, collect_answers,
           out);
    if (out->answers.size() >= opts_.max_answers) {
      out->any_unknown = true;
      break;
    }
  }
}

QueryResult SldnfEngine::Solve(const Goal& goal) {
  size_t work_before = work_;
  Outcome out;
  Expand(goal, Substitution(), 0, goal, /*collect_answers=*/true, &out);
  QueryResult result;
  if (out.any_success) {
    result.status = GoalStatus::kSuccessful;
  } else if (out.any_unknown) {
    result.status = GoalStatus::kUnknown;
    result.diagnostic = "budget exhausted (SLDNF would not terminate here)";
  } else if (out.any_floundered) {
    result.status = GoalStatus::kFloundered;
  } else {
    result.status = GoalStatus::kFailed;
  }
  result.answers = std::move(out.answers);
  result.floundered_somewhere = out.any_floundered;
  result.work = work_ - work_before;
  return result;
}

QueryResult SldnfEngine::SolveAtom(const Term* atom) {
  return Solve(Goal{Literal::Pos(atom)});
}

}  // namespace gsls
