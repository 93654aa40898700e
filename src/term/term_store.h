#ifndef GSLS_TERM_TERM_STORE_H_
#define GSLS_TERM_TERM_STORE_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "term/symbol_table.h"
#include "term/term.h"
#include "util/arena.h"
#include "util/id_table.h"

namespace gsls {

/// Creates, interns, and owns all terms for one logic program universe.
///
/// All term memory is arena-managed: a `TermStore` must outlive every
/// `const Term*` it hands out. Hash-consing guarantees that two structurally
/// equal terms built through the same store are the identical pointer. The
/// hash-consing index is one flat `IdTable` over the interned compounds:
/// no node per term.
class TermStore {
 public:
  TermStore() = default;
  TermStore(const TermStore&) = delete;
  TermStore& operator=(const TermStore&) = delete;

  /// The symbol/functor tables backing this store.
  SymbolTable& symbols() { return symbols_; }
  const SymbolTable& symbols() const { return symbols_; }

  /// Allocates a fresh variable with a printable name hint. Each call
  /// returns a distinct variable term.
  const Term* NewVar(std::string_view name_hint = "_G");

  /// Returns the variable term for an existing id (requires `id` was
  /// produced by this store).
  const Term* Var(VarId id) const { return vars_[id]; }

  /// Printable name of a variable id.
  const std::string& VarName(VarId id) const { return var_names_[id]; }

  /// Number of variables allocated so far.
  uint32_t var_count() const { return static_cast<uint32_t>(vars_.size()); }

  /// Interns the compound `functor(args...)`. `functor`'s arity must equal
  /// `args.size()`.
  const Term* MakeCompound(FunctorId functor,
                           std::span<const Term* const> args);

  /// Convenience: interns `name(args...)`.
  const Term* MakeApp(std::string_view name,
                      std::initializer_list<const Term*> args);
  const Term* MakeApp(std::string_view name,
                      std::span<const Term* const> args);

  /// Convenience: interns the constant `name`.
  const Term* MakeConstant(std::string_view name) { return MakeApp(name, {}); }

  /// Makes room for `terms` more interned compounds and half as many new
  /// symbols without growing an index (a parse sizes the store from its
  /// text once).
  void Reserve(size_t terms);

  /// Renders a term using this store's symbol names (variables print by
  /// name, e.g. `X`, `_G12`).
  std::string ToString(const Term* t) const;

  /// Number of distinct interned compound terms.
  size_t interned_count() const { return compounds_.size(); }
  /// Arena bytes consumed by term nodes.
  size_t arena_bytes() const { return arena_.bytes_allocated(); }

 private:
  void AppendTermString(const Term* t, std::string* out) const;

  Arena arena_;
  SymbolTable symbols_;
  std::vector<const Term*> vars_;
  std::vector<std::string> var_names_;
  std::vector<const Term*> compounds_;  ///< interned, by index
  IdTable interned_;  ///< over the non-constant `compounds_`
  std::vector<const Term*> constants_;  ///< by functor, or null
};

}  // namespace gsls

#endif  // GSLS_TERM_TERM_STORE_H_
