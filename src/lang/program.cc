#include "lang/program.h"

#include <algorithm>

#include "util/strings.h"

namespace gsls {

void Program::AddClause(Clause clause) {
  by_predicate_[clause.predicate()].push_back(clauses_.size());
  clauses_.push_back(std::move(clause));
}

const std::vector<size_t>& Program::ClausesFor(FunctorId pred) const {
  auto it = by_predicate_.find(pred);
  return it == by_predicate_.end() ? empty_ : it->second;
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

void Program::ScanAtomSymbols(
    const Term* t, std::vector<const Term*>* constants,
    std::unordered_set<const Term*>* seen_consts,
    std::vector<FunctorId>* functions,
    std::unordered_set<FunctorId>* seen_funcs) const {
  // `t` is an argument term (not an atom root).
  if (t->IsVar()) return;
  if (t->IsConstant()) {
    if (seen_consts->insert(t).second) constants->push_back(t);
    return;
  }
  if (seen_funcs->insert(t->functor()).second) {
    functions->push_back(t->functor());
  }
  for (const Term* a : t->args()) {
    ScanAtomSymbols(a, constants, seen_consts, functions, seen_funcs);
  }
}

std::vector<const Term*> Program::Constants() const {
  std::vector<const Term*> constants;
  std::unordered_set<const Term*> seen_consts;
  std::vector<FunctorId> functions;
  std::unordered_set<FunctorId> seen_funcs;
  for (const Clause& c : clauses_) {
    for (const Term* a : c.head->args()) {
      ScanAtomSymbols(a, &constants, &seen_consts, &functions, &seen_funcs);
    }
    for (const Literal& l : c.body) {
      for (const Term* a : l.atom->args()) {
        ScanAtomSymbols(a, &constants, &seen_consts, &functions, &seen_funcs);
      }
    }
  }
  return constants;
}

std::vector<FunctorId> Program::FunctionSymbols() const {
  std::vector<const Term*> constants;
  std::unordered_set<const Term*> seen_consts;
  std::vector<FunctorId> functions;
  std::unordered_set<FunctorId> seen_funcs;
  for (const Clause& c : clauses_) {
    for (const Term* a : c.head->args()) {
      ScanAtomSymbols(a, &constants, &seen_consts, &functions, &seen_funcs);
    }
    for (const Literal& l : c.body) {
      for (const Term* a : l.atom->args()) {
        ScanAtomSymbols(a, &constants, &seen_consts, &functions, &seen_funcs);
      }
    }
  }
  return functions;
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
