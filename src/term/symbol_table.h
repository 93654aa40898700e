#ifndef GSLS_TERM_SYMBOL_TABLE_H_
#define GSLS_TERM_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/id_table.h"

namespace gsls {

/// Index of an interned name in a `SymbolTable`.
using SymbolId = uint32_t;

/// Index of an interned (name, arity) pair in a `SymbolTable`. Functors
/// identify both function symbols and predicate symbols, Prolog-style:
/// `p/1` and `p/2` are distinct functors.
using FunctorId = uint32_t;

/// Sentinel for "no functor".
inline constexpr FunctorId kInvalidFunctor = UINT32_MAX;

/// Interns names and (name, arity) functor pairs, assigning dense ids.
/// Lookups by id are O(1); interning is amortized O(length). Both indexes
/// are flat `IdTable`s probed with the `string_view` itself, so a lookup
/// allocates nothing; only a new name is copied.
class SymbolTable {
 public:
  /// Interns `name`, returning its id (stable across calls).
  SymbolId InternName(std::string_view name);

  /// Interns the functor `name/arity`.
  FunctorId InternFunctor(std::string_view name, uint32_t arity);

  /// Returns the functor id for `name/arity` if already interned, else
  /// `kInvalidFunctor`.
  FunctorId FindFunctor(std::string_view name, uint32_t arity) const;

  /// Name for an interned symbol id.
  const std::string& NameOf(SymbolId id) const { return names_[id]; }

  /// Name part of a functor.
  const std::string& FunctorName(FunctorId id) const {
    return names_[functors_[id].name];
  }
  /// Arity part of a functor.
  uint32_t FunctorArity(FunctorId id) const { return functors_[id].arity; }
  /// "name/arity" rendering of a functor.
  std::string FunctorToString(FunctorId id) const;

  /// Makes room for `more` new names and functors without growing.
  void Reserve(size_t more);

  size_t name_count() const { return names_.size(); }
  size_t functor_count() const { return functors_.size(); }

 private:
  struct FunctorKey {
    SymbolId name;
    uint32_t arity;
  };

  static uint64_t FunctorHash(std::string_view name, uint32_t arity);
  FunctorId FindFunctor(uint64_t hash, std::string_view name,
                        uint32_t arity) const;

  std::vector<std::string> names_;
  IdTable name_ids_;  ///< over `names_`
  std::vector<FunctorKey> functors_;
  IdTable functor_ids_;  ///< over `functors_`, keyed by name text and arity
};

}  // namespace gsls

#endif  // GSLS_TERM_SYMBOL_TABLE_H_
