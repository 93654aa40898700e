#ifndef GSLS_LANG_PROGRAM_H_
#define GSLS_LANG_PROGRAM_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lang/clause.h"
#include "term/term_store.h"

namespace gsls {

/// A normal logic program: a finite set of clauses over a `TermStore`
/// (Def. 1.1). The program does not own the store; the store must outlive
/// the program.
class Program {
 public:
  explicit Program(TermStore* store) : store_(store) {}

  TermStore& store() const { return *store_; }

  /// Appends a clause (invalidates no iterators into `clauses()`; the
  /// per-predicate index is maintained incrementally).
  void AddClause(Clause clause);

  const std::vector<Clause>& clauses() const { return clauses_; }
  size_t size() const { return clauses_.size(); }

  /// Indexes of clauses whose head predicate is `pred` (possibly empty).
  const std::vector<size_t>& ClausesFor(FunctorId pred) const;

  /// All predicate symbols appearing in heads or bodies.
  std::vector<FunctorId> Predicates() const;

  /// All constants appearing in the program, in first-appearance order.
  /// If the program has none, the Herbrand universe convention (Def. 1.2)
  /// says to act as if one extra constant existed; callers handle that.
  std::vector<const Term*> Constants() const;

  /// All function symbols of arity >= 1 appearing in the program.
  std::vector<FunctorId> FunctionSymbols() const;

  /// True iff no function symbols of arity >= 1 appear (Datalog with
  /// negation) — the class for which global SLS-resolution can be made
  /// effective by memoing (Sec. 7).
  bool IsFunctionFree() const { return FunctionSymbols().empty(); }

  /// True iff every clause is range-restricted.
  bool IsRangeRestricted() const;

  /// One clause per line.
  std::string ToString() const;

 private:
  void ScanAtomSymbols(const Term* t,
                       std::vector<const Term*>* constants,
                       std::unordered_set<const Term*>* seen_consts,
                       std::vector<FunctorId>* functions,
                       std::unordered_set<FunctorId>* seen_funcs) const;

  TermStore* store_;
  std::vector<Clause> clauses_;
  std::unordered_map<FunctorId, std::vector<size_t>> by_predicate_;
  std::vector<size_t> empty_;
};

}  // namespace gsls

#endif  // GSLS_LANG_PROGRAM_H_
