#ifndef GSLS_GROUND_TRUNCATION_H_
#define GSLS_GROUND_TRUNCATION_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "ground/ground_program.h"

namespace gsls {

/// The atoms whose answer the grounder's depth cap leaves open: every head
/// recorded by `GroundProgram::MarkTruncated` (a rule instance for it was
/// dropped), plus every registered atom that depends on one, positively or
/// negatively, through an enabled rule. On these atoms the well-founded
/// value of the bounded fragment is not the program's, so
/// `Session::Query` answers `kUnknown` for them; every other answer is
/// exact as before.
class TruncationCone {
 public:
  /// The cone of `gp` under the optional disabled-rule mask
  /// (`RuleEnabledIn`). Null when `gp` recorded no truncation — the case
  /// of every function-free grounding, which pays one `empty()` check.
  static std::shared_ptr<const TruncationCone> Build(
      const GroundProgram& gp, const std::vector<uint8_t>* disabled);

  /// By id, for atoms registered when the cone was built.
  bool Contains(AtomId a) const {
    return a < by_id_.size() && by_id_[a] != 0;
  }
  /// By hash-consed term; also covers recorded heads beyond the cap,
  /// which are never registered.
  bool Contains(const Term* atom) const { return terms_.count(atom) != 0; }
  /// True iff some atom of the cone (registered or not) unifies with
  /// `pattern`: a goal literal that could be answered by such an atom has
  /// no exact failure. Linear in the cone.
  bool Overlaps(const Term* pattern) const;

 private:
  std::vector<uint8_t> by_id_;
  std::unordered_set<const Term*> terms_;
};

}  // namespace gsls

#endif  // GSLS_GROUND_TRUNCATION_H_
