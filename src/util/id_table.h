#ifndef GSLS_UTIL_ID_TABLE_H_
#define GSLS_UTIL_ID_TABLE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace gsls {

/// Open-addressing hash index over dense `uint32_t` ids whose keys live
/// elsewhere (the term, symbol, atom and rule arrays): linear probing over
/// a power-of-two slot array kept at most half full. Lookups pass the key's
/// hash and an equality test on candidate ids. Each slot keeps 32 bits of
/// the mixed hash beside its id, so a probe calls the equality test only on
/// a tag match and growth never re-derives a hash. One flat array, no
/// per-entry allocation — the replacement for the node-based maps and sets
/// on the parse and grounding paths, where every key is looked up once.
class IdTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The stored id whose key `eq` accepts among those hashed to `hash`,
  /// or `kNone`.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    const uint32_t tag = Tag(hash);
    for (size_t i = tag & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.tag == tag && eq(s.id)) return s.id;
    }
  }

  /// Stores `id` (whose key must be absent) under `hash`.
  void Insert(uint64_t hash, uint32_t id) {
    if ((size_ + 1) * 2 > slots_.size()) Reserve(1);
    Place(Slot{id, Tag(hash)});
    ++size_;
  }

  /// Makes room for `more` further ids without growing; growing re-places
  /// every stored id, so a caller that knows its size sizes the table once.
  void Reserve(size_t more) {
    if ((size_ + more) * 2 <= slots_.size()) return;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::max<size_t>(16, std::bit_ceil((size_ + more) * 2)),
                  Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id != kNone) Place(s);
    }
  }

 private:
  struct Slot {
    uint32_t id = kNone;
    uint32_t tag = 0;  ///< low bits of the mixed hash; also the home slot
  };

  /// Final avalanche (splitmix64), so masking the low bits is uniform even
  /// for the multiplicative rule fingerprints.
  static uint32_t Tag(uint64_t h) {
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<uint32_t>(h ^ (h >> 31));
  }

  void Place(Slot slot) {
    size_t i = slot.tag & mask_;
    while (slots_[i].id != kNone) i = (i + 1) & mask_;
    slots_[i] = slot;
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace gsls

#endif  // GSLS_UTIL_ID_TABLE_H_
