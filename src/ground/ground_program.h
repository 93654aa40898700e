#ifndef GSLS_GROUND_GROUND_PROGRAM_H_
#define GSLS_GROUND_GROUND_PROGRAM_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lang/program.h"
#include "term/term_store.h"
#include "util/id_table.h"

namespace gsls {

/// Dense id of a ground atom within one `GroundProgram`.
using AtomId = uint32_t;

/// Dense id of a ground rule within one `GroundProgram`.
using RuleId = uint32_t;

/// A ground (instantiated) rule with body split by sign, as an owning
/// value: what delta callers pass to `AddRule`, `FindRule` and
/// `IncrementalSolver::AssertRule`. Stored rules are read as `RuleView`s.
struct GroundRule {
  AtomId head;
  std::vector<AtomId> pos;
  std::vector<AtomId> neg;
};

/// A stored rule: its head and its normalized (sorted, duplicate-free) body
/// halves, viewed in the program's body pool. A view dies at the next
/// `AddRule`, like the occurrence rows.
struct RuleView {
  AtomId head;
  std::span<const AtomId> pos;
  std::span<const AtomId> neg;

  /// An owning copy, for a caller that re-submits a stored rule as a delta.
  operator GroundRule() const {
    return {head, {pos.begin(), pos.end()}, {neg.begin(), neg.end()}};
  }
};

/// True iff rule `r` is enabled under an optional per-`RuleId` disabled
/// mask (nonzero byte = retracted; out-of-range ids are enabled). The one
/// definition of the mask convention `IncrementalSolver` maintains and
/// every masked consumer (condensation, ready-release schedule, per-SCC
/// evaluation) reads.
inline bool RuleEnabledIn(const std::vector<uint8_t>* disabled, RuleId r) {
  return disabled == nullptr || r >= disabled->size() || (*disabled)[r] == 0;
}

/// A finite fragment of the Herbrand instantiation of a program (Def. 1.5):
/// ground atoms with dense ids, ground rules, and the occurrence indexes
/// needed by linear-time fixpoint algorithms.
class GroundProgram {
 public:
  explicit GroundProgram(TermStore* store) : store_(store) {}

  TermStore& store() const { return *store_; }

  /// Interns `atom` (must be ground), returning its dense id.
  AtomId InternAtom(const Term* atom);

  /// The id of `atom` if present.
  std::optional<AtomId> FindAtom(const Term* atom) const;

  const Term* AtomTerm(AtomId id) const { return atom_terms_[id]; }
  size_t atom_count() const { return atom_terms_.size(); }

  /// Makes room for `atoms` further atoms and `rules` further rules, so a
  /// grounder that knows a lower bound sizes the atom and rule stores and
  /// their hash indexes once instead of growing them from 16 slots
  /// (growing an `IdTable` re-places every stored id).
  void Reserve(size_t atoms, size_t rules);

  /// Adds the rule `head :- pos, not neg` (deduplicated: an identical rule
  /// is added once; body order and repeats are irrelevant). Returns the id
  /// of the rule — the existing one when it was a duplicate. `pos` and
  /// `neg` must not view this program's body pool.
  RuleId AddRule(AtomId head, std::span<const AtomId> pos,
                 std::span<const AtomId> neg);
  RuleId AddRule(const GroundRule& rule) {
    return AddRule(rule.head, rule.pos, rule.neg);
  }

  /// The id of the unit rule `atom.` (empty body) if one exists. A fact
  /// delta (`IncrementalSolver::Assert`/`Retract`) toggles exactly this
  /// rule.
  std::optional<RuleId> FindUnitRule(AtomId atom) const;

  /// The id of the rule identical to `rule` (body order irrelevant), if
  /// present — content-addressed lookup over the dedup index, used to
  /// re-target rule deltas after a re-ground.
  std::optional<RuleId> FindRule(GroundRule rule) const;

  /// Rule `id`: a view into the body pool, dead at the next `AddRule`.
  RuleView rule(RuleId id) const {
    const RuleRecord& r = rules_[id];
    const AtomId* body = body_.data() + r.begin;
    return {r.head,
            {body, r.npos},
            {body + r.npos, rules_[id + 1].begin - r.begin - r.npos}};
  }
  size_t rule_count() const { return rules_.size() - 1; }

  /// Ids of the rules whose head is `atom`, in increasing rule id.
  ///
  /// The three index accessors are plain loads: `AddRule` appends the new
  /// rule's id to its head row and to each body atom's row, so the indexes
  /// are always current. Spans are invalidated by the next `AddRule`.
  /// Concurrent const lookups are safe; mutation (`AddRule`/`InternAtom`)
  /// requires exclusive access.
  std::span<const RuleId> RulesFor(AtomId atom) const {
    return rules_for_.Row(atom);
  }

  /// Ids of the rules where `atom` occurs in a positive body position.
  std::span<const RuleId> PositiveOccurrences(AtomId atom) const {
    return pos_occ_.Row(atom);
  }
  /// Ids of the rules where `atom` occurs in a negative body position.
  std::span<const RuleId> NegativeOccurrences(AtomId atom) const {
    return neg_occ_.Row(atom);
  }

  /// One `head :- body.` line per rule.
  std::string ToString() const;

  /// Records that the grounder dropped a rule instance with head `head`
  /// at its depth cap (`GroundingOptions::max_atom_arg_depth`): the rule
  /// set of that atom here is incomplete, so its well-founded value on
  /// this fragment may be wrong. `head` need not be registered (a head
  /// beyond the cap never is). Recording the same head twice is a no-op.
  void MarkTruncated(const Term* head);

  /// The heads recorded by `MarkTruncated`, in recording order. Empty for
  /// every grounding that never hit the cap (all function-free ones).
  /// `ground/truncation.h` turns them into the set of atoms whose answer
  /// is `kUnknown`.
  const std::vector<const Term*>& truncated() const { return truncated_; }

 private:
  /// One occurrence index: per-atom rows of rule ids, each a contiguous,
  /// id-sorted run of one shared payload with room for `bit_ceil(size)`
  /// ids. Appends arrive in rule-id order, so rows stay sorted. A full row
  /// grows in place when it ends the payload and otherwise moves to the
  /// end with doubled capacity, leaving its old slots dead; the payload is
  /// compacted once dead slots reach half the stored ids. Both keep
  /// `Append` amortized O(1).
  class OccurrenceRows {
   public:
    std::span<const RuleId> Row(AtomId atom) const {
      if (atom >= rows_.size()) return {};
      return {payload_.data() + rows_[atom].begin, rows_[atom].size};
    }
    void Append(AtomId atom, RuleId id);

   private:
    struct Extent {
      uint32_t begin = 0;
      uint32_t size = 0;
    };
    void Compact();

    std::vector<Extent> rows_;
    std::vector<RuleId> payload_;
    size_t stored_ = 0;  ///< ids in rows
    size_t dead_ = 0;    ///< payload slots no row owns
  };

  /// A stored rule: its head, and its body at `body_[begin, end)` with the
  /// `npos` positive atoms first; `end` is the next record's `begin`.
  struct RuleRecord {
    AtomId head;
    uint32_t begin;
    uint32_t npos;
  };

  /// The rule identical to the normalized `candidate` (fingerprint `fp`),
  /// or `IdTable::kNone`.
  RuleId FindNormalized(const RuleView& candidate, uint64_t fp) const;

  TermStore* store_;
  std::vector<const Term*> atom_terms_;
  IdTable atom_ids_;  ///< keyed by `Term::hash`
  /// One record per rule plus a sentinel whose `begin` ends the last
  /// rule's body, so `rule` reads no branch; a candidate body sits in the
  /// pool beyond it until `AddRule` keeps or drops it.
  std::vector<RuleRecord> rules_{RuleRecord{0, 0, 0}};
  std::vector<AtomId> body_;  ///< every rule's body, in rule id order
  IdTable rule_ids_;  ///< keyed by each rule's dedup fingerprint
  std::vector<const Term*> truncated_;
  std::unordered_set<const Term*> truncated_set_;

  OccurrenceRows rules_for_;
  OccurrenceRows pos_occ_;
  OccurrenceRows neg_occ_;
};

}  // namespace gsls

#endif  // GSLS_GROUND_GROUND_PROGRAM_H_
