#include "term/symbol_table.h"

#include "util/strings.h"

namespace gsls {

namespace {

/// One multiply per 8 bytes; `IdTable` avalanches the result.
uint64_t NameHash(std::string_view name) {
  uint64_t h = name.size();
  for (size_t i = 0; i < name.size(); i += 8) {
    uint64_t word = 0;
    for (size_t j = i; j < name.size() && j < i + 8; ++j) {
      word |= uint64_t{static_cast<unsigned char>(name[j])} << (8 * (j - i));
    }
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
  }
  return h;
}

}  // namespace

uint64_t SymbolTable::FunctorHash(std::string_view name, uint32_t arity) {
  return NameHash(name) ^ (uint64_t{arity} * 0x9e3779b97f4a7c15ULL);
}

SymbolId SymbolTable::InternName(std::string_view name) {
  const uint64_t h = NameHash(name);
  const uint32_t found =
      name_ids_.Find(h, [&](uint32_t id) { return names_[id] == name; });
  if (found != IdTable::kNone) return found;
  const SymbolId id = static_cast<SymbolId>(names_.size());
  name_ids_.Insert(h, id);
  names_.emplace_back(name);
  return id;
}

FunctorId SymbolTable::InternFunctor(std::string_view name, uint32_t arity) {
  const uint64_t h = FunctorHash(name, arity);
  const FunctorId found = FindFunctor(h, name, arity);
  if (found != kInvalidFunctor) return found;
  const FunctorId id = static_cast<FunctorId>(functors_.size());
  const SymbolId sym = InternName(name);
  functor_ids_.Insert(h, id);
  functors_.push_back(FunctorKey{sym, arity});
  return id;
}

FunctorId SymbolTable::FindFunctor(std::string_view name,
                                   uint32_t arity) const {
  return FindFunctor(FunctorHash(name, arity), name, arity);
}

FunctorId SymbolTable::FindFunctor(uint64_t hash, std::string_view name,
                                   uint32_t arity) const {
  static_assert(IdTable::kNone == kInvalidFunctor);
  return functor_ids_.Find(hash, [&](uint32_t f) {
    return functors_[f].arity == arity && names_[functors_[f].name] == name;
  });
}

void SymbolTable::Reserve(size_t more) {
  if (names_.capacity() - names_.size() < more) {
    names_.reserve(2 * names_.size() + more);
    functors_.reserve(2 * functors_.size() + more);
  }
  name_ids_.Reserve(more);
  functor_ids_.Reserve(more);
}

std::string SymbolTable::FunctorToString(FunctorId id) const {
  return StrCat(FunctorName(id), "/", FunctorArity(id));
}

}  // namespace gsls
