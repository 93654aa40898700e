#include "ground/truncation.h"

#include "term/substitution.h"

namespace gsls {

std::shared_ptr<const TruncationCone> TruncationCone::Build(
    const GroundProgram& gp, const std::vector<uint8_t>* disabled) {
  if (gp.truncated().empty()) return nullptr;
  auto cone = std::make_shared<TruncationCone>();
  cone->by_id_.assign(gp.atom_count(), 0);
  std::vector<AtomId> work;
  auto mark = [&](AtomId a) {
    if (cone->by_id_[a] != 0) return;
    cone->by_id_[a] = 1;
    cone->terms_.insert(gp.AtomTerm(a));
    work.push_back(a);
  };
  for (const Term* head : gp.truncated()) {
    std::optional<AtomId> id = gp.FindAtom(head);
    if (id.has_value()) {
      mark(*id);
    } else {
      cone->terms_.insert(head);
    }
  }
  // Up-cone: the heads of enabled rules mentioning a marked atom.
  while (!work.empty()) {
    const AtomId a = work.back();
    work.pop_back();
    for (auto occurrences :
         {gp.PositiveOccurrences(a), gp.NegativeOccurrences(a)}) {
      for (RuleId r : occurrences) {
        if (RuleEnabledIn(disabled, r)) mark(gp.rule(r).head);
      }
    }
  }
  return cone;
}

bool TruncationCone::Overlaps(const Term* pattern) const {
  for (const Term* atom : terms_) {
    Substitution subst;
    if (Unify(pattern, atom, &subst)) return true;
  }
  return false;
}

}  // namespace gsls
