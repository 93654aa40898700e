#include "ground/ground_program.h"

#include <algorithm>
#include <cassert>

#include "util/strings.h"

namespace gsls {

AtomId GroundProgram::InternAtom(const Term* atom) {
  assert(atom->ground());
  const uint32_t found = atom_ids_.Find(
      atom->hash(), [&](uint32_t id) { return atom_terms_[id] == atom; });
  if (found != IdTable::kNone) return found;
  AtomId id = static_cast<AtomId>(atom_terms_.size());
  atom_terms_.push_back(atom);
  atom_ids_.Insert(atom->hash(), id);
  return id;
}

std::optional<AtomId> GroundProgram::FindAtom(const Term* atom) const {
  const uint32_t found = atom_ids_.Find(
      atom->hash(), [&](uint32_t id) { return atom_terms_[id] == atom; });
  if (found == IdTable::kNone) return std::nullopt;
  return found;
}

namespace {
uint64_t RuleFingerprint(const GroundRule& r) {
  uint64_t h = r.head * 0x9e3779b97f4a7c15ULL + 1;
  for (AtomId a : r.pos) h = h * 0xff51afd7ed558ccdULL + a + 0x100;
  for (AtomId a : r.neg) h = h * 0xc4ceb9fe1a85ec53ULL + a + 0x200;
  return h;
}

/// Body order is semantically irrelevant in a ground rule; `AddRule` and
/// `FindRule` normalize before hashing/comparing.
void NormalizeBody(GroundRule* rule) {
  std::sort(rule->pos.begin(), rule->pos.end());
  rule->pos.erase(std::unique(rule->pos.begin(), rule->pos.end()),
                  rule->pos.end());
  std::sort(rule->neg.begin(), rule->neg.end());
  rule->neg.erase(std::unique(rule->neg.begin(), rule->neg.end()),
                  rule->neg.end());
}
}  // namespace

RuleId GroundProgram::FindNormalized(const GroundRule& rule,
                                     uint64_t fp) const {
  return rule_ids_.Find(fp, [&](uint32_t id) {
    const GroundRule& existing = rules_[id];
    return existing.head == rule.head &&
           existing.pos == rule.pos && existing.neg == rule.neg;
  });
}

RuleId GroundProgram::AddRule(GroundRule rule) {
  NormalizeBody(&rule);
  const uint64_t fp = RuleFingerprint(rule);
  const RuleId existing = FindNormalized(rule, fp);
  if (existing != IdTable::kNone) return existing;
  RuleId id = static_cast<RuleId>(rules_.size());
  rule_ids_.Insert(fp, id);
  bool unit = rule.pos.empty() && rule.neg.empty();
  if (unit) {
    if (unit_rule_.size() <= rule.head) {
      unit_rule_.resize(rule.head + 1, IdTable::kNone);
    }
    unit_rule_[rule.head] = id;
  }
  // AddRule requires exclusive access, so the state transitions are plain
  // stores. A rule over already-indexed atoms only appends to existing
  // rows, which queues a cheap merge — the hot path for both
  // `IncrementalSolver::Assert` of a first-time fact and non-unit
  // `AssertRule` deltas, neither of which may pay a full O(program)
  // rebuild. Only a rule mentioning a never-indexed atom goes stale.
  IndexState state = sync_->state.load(std::memory_order_relaxed);
  if (state != IndexState::kStale) {
    bool indexed = rule.head < rules_for_.rows();
    for (AtomId a : rule.pos) indexed = indexed && a < rules_for_.rows();
    for (AtomId a : rule.neg) indexed = indexed && a < rules_for_.rows();
    if (indexed) {
      pending_rows_.push_back(id);
      pending_has_body_ = pending_has_body_ || !unit;
      sync_->state.store(IndexState::kPendingRows,
                         std::memory_order_relaxed);
    } else {
      pending_rows_.clear();
      pending_has_body_ = false;
      sync_->state.store(IndexState::kStale, std::memory_order_relaxed);
    }
  }
  rules_.push_back(std::move(rule));
  return id;
}

std::optional<RuleId> GroundProgram::FindUnitRule(AtomId atom) const {
  if (atom >= unit_rule_.size() || unit_rule_[atom] == IdTable::kNone) {
    return std::nullopt;
  }
  return unit_rule_[atom];
}

std::optional<RuleId> GroundProgram::FindRule(GroundRule rule) const {
  NormalizeBody(&rule);
  const RuleId id = FindNormalized(rule, RuleFingerprint(rule));
  if (id == IdTable::kNone) return std::nullopt;
  return id;
}

void GroundProgram::RebuildOccurrenceIndex() const {
  // Two-pass counting build over all rules (util/csr.h): degrees, prefix
  // sum, fill. Rules are visited in id order both times, so every row
  // lists its rules in increasing id — the order the nested-vector index
  // produced, which the solver's deterministic scheduling relies on.
  uint32_t n = static_cast<uint32_t>(atom_terms_.size());
  rules_for_.Reset(n);
  pos_occ_.Reset(n);
  neg_occ_.Reset(n);
  for (const GroundRule& r : rules_) {
    rules_for_.CountAt(r.head);
    for (AtomId a : r.pos) pos_occ_.CountAt(a);
    for (AtomId a : r.neg) neg_occ_.CountAt(a);
  }
  rules_for_.FinishCounting();
  pos_occ_.FinishCounting();
  neg_occ_.FinishCounting();
  for (RuleId id = 0; id < rules_.size(); ++id) {
    const GroundRule& r = rules_[id];
    rules_for_.Fill(r.head, id);
    for (AtomId a : r.pos) pos_occ_.Fill(a, id);
    for (AtomId a : r.neg) neg_occ_.Fill(a, id);
  }
  rules_for_.FinishFilling();
  pos_occ_.FinishFilling();
  neg_occ_.FinishFilling();
  pending_rows_.clear();
  pending_has_body_ = false;
}

namespace {

/// Rebuilds `*index` with the queued appends folded in: one counting pass
/// over the old payload plus the queue, old items first per row so rows
/// stay id-sorted (pending ids all exceed indexed ids).
template <typename PerRule>
void MergeRows(Csr<RuleId>* index, const std::vector<RuleId>& pending,
               PerRule&& rows_of) {
  uint32_t rows = static_cast<uint32_t>(index->rows());
  Csr<RuleId> merged;
  merged.Reset(rows);
  for (uint32_t a = 0; a < rows; ++a) {
    merged.AddCount(a, static_cast<uint32_t>(index->Row(a).size()));
  }
  for (RuleId id : pending) {
    rows_of(id, [&](AtomId a) { merged.CountAt(a); });
  }
  merged.FinishCounting();
  for (uint32_t a = 0; a < rows; ++a) {
    for (RuleId id : index->Row(a)) merged.Fill(a, id);
  }
  for (RuleId id : pending) {
    rows_of(id, [&](AtomId a) { merged.Fill(a, id); });
  }
  merged.FinishFilling();
  *index = std::move(merged);
}

}  // namespace

void GroundProgram::MergePendingRows() const {
  MergeRows(&rules_for_, pending_rows_, [&](RuleId id, auto&& emit) {
    emit(rules_[id].head);
  });
  // Unit-only queues (fact churn) leave the occurrence indexes untouched.
  if (pending_has_body_) {
    MergeRows(&pos_occ_, pending_rows_, [&](RuleId id, auto&& emit) {
      for (AtomId a : rules_[id].pos) emit(a);
    });
    MergeRows(&neg_occ_, pending_rows_, [&](RuleId id, auto&& emit) {
      for (AtomId a : rules_[id].neg) emit(a);
    });
  }
  pending_rows_.clear();
  pending_has_body_ = false;
}

void GroundProgram::EnsureOccurrenceIndex() const {
  if (sync_->state.load(std::memory_order_acquire) == IndexState::kFresh) {
    return;
  }
  std::lock_guard<std::mutex> lk(sync_->mu);
  switch (sync_->state.load(std::memory_order_relaxed)) {
    case IndexState::kFresh: return;  // lost the race to another reader
    case IndexState::kPendingRows: MergePendingRows(); break;
    case IndexState::kStale: RebuildOccurrenceIndex(); break;
  }
  sync_->state.store(IndexState::kFresh, std::memory_order_release);
}

std::span<const RuleId> GroundProgram::RulesFor(AtomId atom) const {
  EnsureOccurrenceIndex();
  // Atoms interned after the rebuild have no rules yet.
  if (atom >= rules_for_.rows()) return {};
  return rules_for_.Row(atom);
}

std::span<const RuleId> GroundProgram::PositiveOccurrences(AtomId atom) const {
  EnsureOccurrenceIndex();
  if (atom >= pos_occ_.rows()) return {};
  return pos_occ_.Row(atom);
}

std::span<const RuleId> GroundProgram::NegativeOccurrences(AtomId atom) const {
  EnsureOccurrenceIndex();
  if (atom >= neg_occ_.rows()) return {};
  return neg_occ_.Row(atom);
}

std::string GroundProgram::ToString() const {
  std::string out;
  for (const GroundRule& r : rules_) {
    out += store_->ToString(atom_terms_[r.head]);
    if (!r.pos.empty() || !r.neg.empty()) {
      out += " :- ";
      bool first = true;
      for (AtomId a : r.pos) {
        if (!first) out += ", ";
        first = false;
        out += store_->ToString(atom_terms_[a]);
      }
      for (AtomId a : r.neg) {
        if (!first) out += ", ";
        first = false;
        out += "not ";
        out += store_->ToString(atom_terms_[a]);
      }
    }
    out += ".\n";
  }
  return out;
}

void GroundProgram::MarkTruncated(const Term* head) {
  if (truncated_set_.insert(head).second) truncated_.push_back(head);
}

}  // namespace gsls
