#include "core/derivation.h"

#include <algorithm>
#include <map>

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

size_t SelectLiteral(const Goal& goal, SelectionMode mode) {
  if (goal.empty()) return SIZE_MAX;
  switch (mode) {
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

std::optional<Resolvent> Resolve(TermStore& store, const Clause& clause,
                                 const Goal& goal, size_t sel,
                                 const Substitution& theta) {
  Clause variant = RenameApart(store, clause);
  Substitution mgu;
  if (!Unify(goal[sel].atom, variant.head, &mgu)) return std::nullopt;
  Resolvent out;
  out.goal.reserve(goal.size() - 1 + variant.body.size());
  auto push = [&](const Literal& l) {
    out.goal.push_back(Literal{mgu.Apply(store, l.atom), l.positive});
  };
  for (size_t i = 0; i < sel; ++i) push(goal[i]);
  for (const Literal& b : variant.body) push(b);
  for (size_t i = sel + 1; i < goal.size(); ++i) push(goal[i]);
  out.theta = theta.ComposeWith(store, mgu);
  return out;
}

Goal NormalizeGoal(const Goal& goal) {
  Goal out;
  out.reserve(goal.size());
  for (const Literal& l : goal) {
    if (std::find(out.begin(), out.end(), l) == out.end()) out.push_back(l);
  }
  return out;
}

uint64_t GroundGoalKey(const Goal& goal) {
  std::vector<uint64_t> keys;
  keys.reserve(goal.size());
  for (const Literal& l : goal) {
    if (!l.atom->ground()) return 0;
    keys.push_back(l.atom->hash() * 2 + (l.positive ? 1 : 0));
  }
  std::sort(keys.begin(), keys.end());
  uint64_t h = 0x9ae16a3b2f90404fULL;
  for (uint64_t k : keys) {
    h ^= k + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 29;
  }
  return h == 0 ? 1 : h;
}

Substitution ProjectAnswer(TermStore& store, const Substitution& theta,
                           const Goal& root) {
  std::vector<VarId> vars;
  for (const Literal& l : root) CollectVars(l.atom, &vars);
  Substitution out;
  for (VarId v : vars) {
    const Term* image = theta.Apply(store, store.Var(v));
    if (!(image->IsVar() && image->var() == v)) out.Bind(v, image);
  }
  return out;
}

void DeduplicateAnswers(TermStore& store, const Goal& root,
                        std::vector<Answer>* answers) {
  std::map<std::vector<const Term*>, size_t> seen;
  std::vector<Answer> unique;
  for (Answer& a : *answers) {
    std::vector<const Term*> instance;
    instance.reserve(root.size());
    for (const Literal& l : root) {
      instance.push_back(a.theta.Apply(store, l.atom));
    }
    auto [it, inserted] = seen.emplace(std::move(instance), unique.size());
    if (inserted) {
      unique.push_back(std::move(a));
    } else if (a.level < unique[it->second].level) {
      unique[it->second].level = a.level;
      unique[it->second].level_exact = a.level_exact;
    }
  }
  *answers = std::move(unique);
}

void ChildStatusFold::Add(GoalStatus status, const Ordinal& level,
                          bool level_exact) {
  switch (status) {
    case GoalStatus::kSuccessful:
      if (!any_success || level < min_success) {
        min_success = level;
        min_success_exact = level_exact;
      }
      any_success = true;
      break;
    case GoalStatus::kFailed:
      fail_lub = Ordinal::Lub(fail_lub, level);
      fail_exact = fail_exact && level_exact;
      break;
    case GoalStatus::kFloundered:
      any_floundered = true;
      break;
    case GoalStatus::kIndeterminate:
      any_indeterminate = true;
      break;
    case GoalStatus::kUnknown:
      any_unknown = true;
      break;
  }
}

}  // namespace gsls
