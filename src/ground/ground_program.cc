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
uint64_t RuleFingerprint(const RuleView& r) {
  uint64_t h = r.head * 0x9e3779b97f4a7c15ULL + 1;
  for (AtomId a : r.pos) h = h * 0xff51afd7ed558ccdULL + a + 0x100;
  for (AtomId a : r.neg) h = h * 0xc4ceb9fe1a85ec53ULL + a + 0x200;
  return h;
}

/// Body order is semantically irrelevant in a ground rule; `AddRule` and
/// `FindRule` sort and deduplicate each half before hashing/comparing.
/// Returns the normalized half's new end.
template <typename It>
It NormalizeHalf(It begin, It end) {
  std::sort(begin, end);
  return std::unique(begin, end);
}

bool SameRule(const RuleView& a, const RuleView& b) {
  return a.head == b.head && std::ranges::equal(a.pos, b.pos) &&
         std::ranges::equal(a.neg, b.neg);
}

/// A row of `n` ids owns `bit_ceil(n)` payload slots (none when empty), so
/// it is full exactly when `n` is zero or a power of two.
uint32_t Capacity(uint32_t n) { return n == 0 ? 0 : std::bit_ceil(n); }
}  // namespace

RuleId GroundProgram::FindNormalized(const RuleView& candidate,
                                     uint64_t fp) const {
  return rule_ids_.Find(
      fp, [&](uint32_t id) { return SameRule(rule(id), candidate); });
}

RuleId GroundProgram::AddRule(AtomId head, std::span<const AtomId> pos,
                              std::span<const AtomId> neg) {
  // The body is normalized in the pool's tail and truncated back off if
  // the rule is a duplicate.
  const size_t begin = body_.size();
  assert(begin + pos.size() + neg.size() <= UINT32_MAX);
  body_.insert(body_.end(), pos.begin(), pos.end());
  body_.erase(NormalizeHalf(body_.begin() + begin, body_.end()), body_.end());
  const size_t npos = body_.size() - begin;
  body_.insert(body_.end(), neg.begin(), neg.end());
  body_.erase(NormalizeHalf(body_.begin() + begin + npos, body_.end()),
              body_.end());
  const RuleView candidate{
      head, {body_.data() + begin, npos},
      {body_.data() + begin + npos, body_.size() - begin - npos}};
  const uint64_t fp = RuleFingerprint(candidate);
  const RuleId existing = FindNormalized(candidate, fp);
  if (existing != IdTable::kNone) {
    body_.resize(begin);
    return existing;
  }
  // The sentinel becomes the new rule's record, and a new sentinel ends
  // its body.
  const RuleId id = static_cast<RuleId>(rule_count());
  rules_.back() = RuleRecord{head, static_cast<uint32_t>(begin),
                             static_cast<uint32_t>(npos)};
  rules_.push_back(RuleRecord{0, static_cast<uint32_t>(body_.size()), 0});
  rule_ids_.Insert(fp, id);
  rules_for_.Append(head, id);
  const RuleView stored = rule(id);
  for (AtomId a : stored.pos) pos_occ_.Append(a, id);
  for (AtomId a : stored.neg) neg_occ_.Append(a, id);
  return id;
}

std::optional<RuleId> GroundProgram::FindUnitRule(AtomId atom) const {
  const RuleView unit{atom, {}, {}};
  const RuleId id = FindNormalized(unit, RuleFingerprint(unit));
  if (id == IdTable::kNone) return std::nullopt;
  return id;
}

std::optional<RuleId> GroundProgram::FindRule(GroundRule rule) const {
  rule.pos.erase(NormalizeHalf(rule.pos.begin(), rule.pos.end()),
                 rule.pos.end());
  rule.neg.erase(NormalizeHalf(rule.neg.begin(), rule.neg.end()),
                 rule.neg.end());
  const RuleView candidate{rule.head, rule.pos, rule.neg};
  const RuleId id = FindNormalized(candidate, RuleFingerprint(candidate));
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
  if (2 * dead_ >= ++stored_) Compact();
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
  for (RuleId id = 0; id < rule_count(); ++id) {
    const RuleView r = rule(id);
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
