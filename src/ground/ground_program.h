#ifndef GSLS_GROUND_GROUND_PROGRAM_H_
#define GSLS_GROUND_GROUND_PROGRAM_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lang/program.h"
#include "term/term_store.h"
#include "util/csr.h"
#include "util/id_table.h"

namespace gsls {

/// Dense id of a ground atom within one `GroundProgram`.
using AtomId = uint32_t;

/// Dense id of a ground rule within one `GroundProgram`.
using RuleId = uint32_t;

/// A ground (instantiated) rule with body split by sign.
struct GroundRule {
  AtomId head;
  std::vector<AtomId> pos;
  std::vector<AtomId> neg;
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

  /// Adds a rule (deduplicated: an identical rule is added once). Returns
  /// the id of the rule — the existing one when `rule` was a duplicate.
  RuleId AddRule(GroundRule rule);

  /// The id of the unit rule `atom.` (empty body) if one exists. A fact
  /// delta (`IncrementalSolver::Assert`/`Retract`) toggles exactly this
  /// rule.
  std::optional<RuleId> FindUnitRule(AtomId atom) const;

  /// The id of the rule identical to `rule` (body order irrelevant), if
  /// present — content-addressed lookup over the dedup index, used to
  /// re-target rule deltas after a re-ground.
  std::optional<RuleId> FindRule(GroundRule rule) const;

  const std::vector<GroundRule>& rules() const { return rules_; }
  size_t rule_count() const { return rules_.size(); }

  /// Ids of the rules whose head is `atom`, in increasing rule id.
  ///
  /// The three index accessors serve spans into a flat CSR index (one
  /// offsets + payload pair per index, `util/csr.h`) that is maintained
  /// lazily: `AddRule` over already-indexed atoms — a first-time fact from
  /// `IncrementalSolver::Assert`, or a non-unit delta from `AssertRule` —
  /// queues a cheap row merge (one counting pass per affected index, no
  /// rule rescan), and only a rule mentioning a never-indexed atom goes
  /// fully stale; the first lookup afterwards pays the deferred work once.
  /// Spans are invalidated by the next `AddRule`.
  /// Concurrent const lookups are safe even when the first one triggers
  /// the rebuild (it runs under an internal mutex behind an atomic
  /// freshness check); mutation (`AddRule`/`InternAtom`) still requires
  /// exclusive access, as before.
  std::span<const RuleId> RulesFor(AtomId atom) const;

  /// Ids of the rules where `atom` occurs in a positive body position.
  std::span<const RuleId> PositiveOccurrences(AtomId atom) const;
  /// Ids of the rules where `atom` occurs in a negative body position.
  std::span<const RuleId> NegativeOccurrences(AtomId atom) const;

  /// Materializes the occurrence index now if it is stale, so subsequent
  /// index reads are pure loads (the parallel solver calls this before
  /// fanning out to keep workers from serializing on the rebuild mutex).
  void EnsureOccurrenceIndex() const;

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
  enum class IndexState : uint8_t {
    kStale,        ///< full two-pass rebuild needed
    kPendingRows,  ///< valid base + queued per-rule row appends
    kFresh,        ///< serves reads as-is
  };

  /// Applies the queued rule appends as one counting pass per affected
  /// index (`rules_for_` always; the occurrence indexes only when some
  /// queued rule has a body). Pending ids all exceed every indexed id and
  /// arrive in id order, so appending keeps rows id-sorted. Caller holds
  /// `sync_->mu`.
  void MergePendingRows() const;
  void RebuildOccurrenceIndex() const;  ///< caller holds `sync_->mu`

  /// The rule identical to normalized `rule`, or `IdTable::kNone`.
  RuleId FindNormalized(const GroundRule& rule, uint64_t fp) const;

  TermStore* store_;
  std::vector<const Term*> atom_terms_;
  IdTable atom_ids_;  ///< keyed by `Term::hash`
  std::vector<GroundRule> rules_;
  IdTable rule_ids_;  ///< keyed by each rule's dedup fingerprint
  /// Unit rule per atom (at most one exists: `AddRule` deduplicates), or
  /// `IdTable::kNone`. Maintained eagerly so fact deltas never touch the
  /// lazy index.
  std::vector<RuleId> unit_rule_;
  std::vector<const Term*> truncated_;
  std::unordered_set<const Term*> truncated_set_;

  // Lazy flat occurrence index (see `RulesFor`). Boxed synchronization
  // keeps `GroundProgram` movable (a moved-from program is unusable, and
  // never used).
  struct IndexSync {
    std::mutex mu;
    std::atomic<IndexState> state{IndexState::kStale};
  };
  mutable Csr<RuleId> rules_for_;
  mutable Csr<RuleId> pos_occ_;
  mutable Csr<RuleId> neg_occ_;
  mutable std::vector<RuleId> pending_rows_;
  mutable bool pending_has_body_ = false;
  mutable std::unique_ptr<IndexSync> sync_ = std::make_unique<IndexSync>();
};

}  // namespace gsls

#endif  // GSLS_GROUND_GROUND_PROGRAM_H_
