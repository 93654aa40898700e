#include "ground/ground_program.h"

#include <algorithm>
#include <bit>
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

void GroundProgram::Reserve(size_t atoms, size_t rules) {
  atom_terms_.reserve(atom_terms_.size() + atoms);
  atom_ids_.Reserve(atoms);
  rules_.reserve(rules_.size() + rules);
  rule_ids_.Reserve(rules);
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

/// A row of `n` ids owns `bit_ceil(n)` payload slots (none when empty), so
/// it is full exactly when `n` is zero or a power of two.
uint32_t Capacity(uint32_t n) { return n == 0 ? 0 : std::bit_ceil(n); }
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
  rules_for_.Append(rule.head, id);
  for (AtomId a : rule.pos) pos_occ_.Append(a, id);
  for (AtomId a : rule.neg) neg_occ_.Append(a, id);
  rules_.push_back(std::move(rule));
  return id;
}

std::optional<RuleId> GroundProgram::FindUnitRule(AtomId atom) const {
  return FindRule({atom, {}, {}});
}

std::optional<RuleId> GroundProgram::FindRule(GroundRule rule) const {
  NormalizeBody(&rule);
  const RuleId id = FindNormalized(rule, RuleFingerprint(rule));
  if (id == IdTable::kNone) return std::nullopt;
  return id;
}

void GroundProgram::OccurrenceRows::Append(AtomId atom, RuleId id) {
  if (atom >= rows_.size()) rows_.resize(atom + 1);
  Extent& row = rows_[atom];
  if (row.size == Capacity(row.size)) {
    const uint32_t grown = row.size == 0 ? 1 : 2 * row.size;
    if (row.size != 0 && row.begin + row.size == payload_.size()) {
      payload_.resize(row.begin + grown);  // the last row grows in place
    } else {
      const uint32_t begin = static_cast<uint32_t>(payload_.size());
      payload_.resize(begin + grown);
      std::copy_n(payload_.begin() + row.begin, row.size,
                  payload_.begin() + begin);
      dead_ += row.size;
      row.begin = begin;
    }
  }
  payload_[row.begin + row.size++] = id;
  if (dead_ > ++stored_) Compact();
}

void GroundProgram::OccurrenceRows::Compact() {
  size_t slots = 0;
  for (const Extent& row : rows_) slots += Capacity(row.size);
  std::vector<RuleId> packed(slots);
  uint32_t next = 0;
  for (Extent& row : rows_) {
    std::copy_n(payload_.begin() + row.begin, row.size, packed.begin() + next);
    row.begin = next;
    next += Capacity(row.size);
  }
  payload_ = std::move(packed);
  dead_ = 0;
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
