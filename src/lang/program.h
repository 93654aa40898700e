#ifndef GSLS_LANG_PROGRAM_H_
#define GSLS_LANG_PROGRAM_H_

#include <string>
#include <utility>
#include <vector>

#include "lang/clause.h"
#include "term/term_store.h"
#include "util/id_table.h"

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
  /// Constants, then function symbols of arity >= 1, each in
  /// first-appearance order.
  std::pair<std::vector<const Term*>, std::vector<FunctorId>> ScanSymbols()
      const;

  /// Index into `by_predicate_`, or `IdTable::kNone`.
  uint32_t FindPredicate(FunctorId pred) const;

  TermStore* store_;
  std::vector<Clause> clauses_;
  /// Clause indexes per head predicate, found through `pred_ids_`.
  std::vector<std::pair<FunctorId, std::vector<size_t>>> by_predicate_;
  IdTable pred_ids_;
  std::vector<size_t> empty_;
};

}  // namespace gsls

#endif  // GSLS_LANG_PROGRAM_H_
