#include "term/term_store.h"

#include <algorithm>
#include <cassert>

#include "util/strings.h"

namespace gsls {

namespace {

uint64_t HashCombine(uint64_t h, uint64_t v) {
  // 64-bit variant of boost::hash_combine with a stronger mix.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 12) + (h >> 4);
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace

const Term* TermStore::NewVar(std::string_view name_hint) {
  VarId id = static_cast<VarId>(vars_.size());
  Term* t = new (arena_.Allocate(sizeof(Term), alignof(Term))) Term();
  t->kind_ = Term::Kind::kVar;
  t->ground_ = false;
  t->id_ = id;
  t->arity_ = 0;
  t->depth_ = 1;
  t->var_count_ = 1;
  t->hash_ = HashCombine(0x5aul, id);
  t->args_ = nullptr;
  vars_.push_back(t);
  if (name_hint == "_G") {
    var_names_.push_back(StrCat("_G", id));
  } else {
    var_names_.emplace_back(name_hint);
  }
  return t;
}

const Term* TermStore::MakeCompound(FunctorId functor,
                                    std::span<const Term* const> args) {
  assert(symbols_.FunctorArity(functor) == args.size());
  // A constant is found by its functor alone, any other compound through
  // the index; children are already canonical, so equality is shallow.
  const bool constant = args.empty();
  uint64_t h = HashCombine(0xc0ul, functor);
  if (constant) {
    if (functor < constants_.size() && constants_[functor] != nullptr) {
      return constants_[functor];
    }
  } else {
    for (const Term* a : args) h = HashCombine(h, a->hash());
    const uint32_t found = interned_.Find(h, [&](uint32_t id) {
      const Term* t = compounds_[id];
      return t->hash_ == h && t->id_ == functor &&
             std::equal(args.begin(), args.end(), t->args_);
    });
    if (found != IdTable::kNone) return compounds_[found];
  }

  Term* t = new (arena_.Allocate(sizeof(Term), alignof(Term))) Term();
  t->kind_ = Term::Kind::kCompound;
  t->ground_ = true;
  t->id_ = functor;
  t->arity_ = static_cast<uint32_t>(args.size());
  t->depth_ = 1;
  t->hash_ = h;  // `Term()` zeroed `var_count_` and `args_`
  for (const Term* a : args) {
    t->ground_ = t->ground_ && a->ground();
    t->depth_ = std::max(t->depth_, a->depth() + 1);
    t->var_count_ += a->var_count();
  }
  if (constant) {
    if (constants_.size() <= functor) {
      constants_.resize(symbols_.functor_count());
    }
    constants_[functor] = t;
  } else {
    const Term** arg_copy = arena_.AllocateArray<const Term*>(args.size());
    std::copy(args.begin(), args.end(), arg_copy);
    t->args_ = arg_copy;
    interned_.Insert(h, static_cast<uint32_t>(compounds_.size()));
  }
  compounds_.push_back(t);
  return t;
}

const Term* TermStore::MakeApp(std::string_view name,
                               std::initializer_list<const Term*> args) {
  return MakeApp(name,
                 std::span<const Term* const>(args.begin(), args.size()));
}

const Term* TermStore::MakeApp(std::string_view name,
                               std::span<const Term* const> args) {
  FunctorId f =
      symbols_.InternFunctor(name, static_cast<uint32_t>(args.size()));
  return MakeCompound(f, args);
}

void TermStore::Reserve(size_t terms) {
  // Vectors grow geometrically here too, so many small parses stay linear.
  if (compounds_.capacity() - compounds_.size() < terms) {
    compounds_.reserve(2 * compounds_.size() + terms);
  }
  interned_.Reserve(terms);
  symbols_.Reserve(terms / 2);
}

void TermStore::AppendTermString(const Term* t, std::string* out) const {
  if (t->IsVar()) {
    out->append(VarName(t->var()));
    return;
  }
  out->append(symbols_.FunctorName(t->functor()));
  if (t->arity() > 0) {
    out->push_back('(');
    for (uint32_t i = 0; i < t->arity(); ++i) {
      if (i > 0) out->push_back(',');
      AppendTermString(t->arg(i), out);
    }
    out->push_back(')');
  }
}

std::string TermStore::ToString(const Term* t) const {
  std::string out;
  AppendTermString(t, &out);
  return out;
}

}  // namespace gsls
