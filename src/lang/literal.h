#ifndef GSLS_LANG_LITERAL_H_
#define GSLS_LANG_LITERAL_H_

#include <string>
#include <vector>

#include "term/term.h"
#include "term/term_store.h"

namespace gsls {

/// A positive or negative literal over an atom. The atom is a term whose
/// root functor is the predicate symbol.
struct Literal {
  const Term* atom = nullptr;
  bool positive = true;

  static Literal Pos(const Term* a) { return Literal{a, true}; }

  /// Predicate symbol of the underlying atom.
  FunctorId predicate() const { return atom->functor(); }

  bool ground() const { return atom->ground(); }

  /// Pointer-based equality (atoms are hash-consed).
  friend bool operator==(const Literal& a, const Literal& b) {
    return a.atom == b.atom && a.positive == b.positive;
  }

  /// `p(t)` or `not p(t)`.
  std::string ToString(const TermStore& store) const;
};

/// A goal / query body: conjunction of literals. The paper's `<- Q`.
using Goal = std::vector<Literal>;

/// Renders `l1, l2, ..., ln` (or `true` when empty).
std::string GoalToString(const TermStore& store, const Goal& goal);

/// Hash functor for literals (combines atom identity and sign).
struct LiteralHash {
  size_t operator()(const Literal& l) const {
    return l.atom->hash() * 2 + (l.positive ? 1 : 0);
  }
};

}  // namespace gsls

#endif  // GSLS_LANG_LITERAL_H_
