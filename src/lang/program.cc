#include "lang/program.h"

#include <algorithm>
#include <unordered_set>

#include "util/strings.h"

namespace gsls {

void Program::AddClause(Clause clause) {
  const FunctorId pred = clause.predicate();
  uint32_t i = FindPredicate(pred);
  if (i == IdTable::kNone) {
    i = static_cast<uint32_t>(by_predicate_.size());
    pred_ids_.Insert(pred, i);
    by_predicate_.emplace_back(pred, std::vector<size_t>());
    by_predicate_.back().second.reserve(4);
  }
  by_predicate_[i].second.push_back(clauses_.size());
  clauses_.push_back(std::move(clause));
}

uint32_t Program::FindPredicate(FunctorId pred) const {
  return pred_ids_.Find(
      pred, [&](uint32_t i) { return by_predicate_[i].first == pred; });
}

const std::vector<size_t>& Program::ClausesFor(FunctorId pred) const {
  const uint32_t i = FindPredicate(pred);
  return i == IdTable::kNone ? empty_ : by_predicate_[i].second;
}

std::vector<FunctorId> Program::Predicates() const {
  std::vector<FunctorId> out;
  std::unordered_set<FunctorId> seen;
  auto add = [&](FunctorId f) {
    if (seen.insert(f).second) out.push_back(f);
  };
  for (const Clause& c : clauses_) {
    add(c.predicate());
    for (const Literal& l : c.body) add(l.predicate());
  }
  return out;
}

std::pair<std::vector<const Term*>, std::vector<FunctorId>>
Program::ScanSymbols() const {
  std::vector<const Term*> constants;
  std::vector<FunctorId> functions;
  std::unordered_set<const Term*> seen_consts;
  std::unordered_set<FunctorId> seen_funcs;
  // `t` is an argument term (not an atom root).
  auto scan = [&](auto& self, const Term* t) -> void {
    if (t->IsVar()) return;
    if (t->IsConstant()) {
      if (seen_consts.insert(t).second) constants.push_back(t);
      return;
    }
    if (seen_funcs.insert(t->functor()).second) {
      functions.push_back(t->functor());
    }
    for (const Term* a : t->args()) self(self, a);
  };
  for (const Clause& c : clauses_) {
    for (const Term* a : c.head->args()) scan(scan, a);
    for (const Literal& l : c.body) {
      for (const Term* a : l.atom->args()) scan(scan, a);
    }
  }
  return {std::move(constants), std::move(functions)};
}

std::vector<const Term*> Program::Constants() const {
  return ScanSymbols().first;
}

std::vector<FunctorId> Program::FunctionSymbols() const {
  return ScanSymbols().second;
}

bool Program::IsRangeRestricted() const {
  return std::all_of(clauses_.begin(), clauses_.end(),
                     [](const Clause& c) {
                       return gsls::IsRangeRestricted(c);
                     });
}

std::string Program::ToString() const {
  std::string out;
  for (const Clause& c : clauses_) {
    out += c.ToString(*store_);
    out += '\n';
  }
  return out;
}

}  // namespace gsls
