#ifndef GSLS_UTIL_ID_TABLE_H_
#define GSLS_UTIL_ID_TABLE_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace gsls {

/// Open-addressing hash index over dense `uint32_t` ids whose keys live
/// elsewhere (the atom-term and rule arrays of `GroundProgram`): linear
/// probing over a power-of-two slot array kept at most half full. Lookups
/// pass the key's hash and an equality test on candidate ids; growth
/// re-derives each stored id's hash through a callback. One flat array, no
/// per-entry allocation — the replacement for the node-based maps on the
/// grounder's emit path, where every rule and atom is looked up once.
class IdTable {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  /// The stored id whose key `eq` accepts among those hashed to `hash`,
  /// or `kNone`.
  template <typename Eq>
  uint32_t Find(uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    for (size_t i = Mix(hash) & mask_;; i = (i + 1) & mask_) {
      const uint32_t id = slots_[i];
      if (id == kNone || eq(id)) return id;
    }
  }

  /// Stores `id` (whose key must be absent) under `hash`; `hash_of(id)`
  /// re-derives the hash of every stored id when the table grows.
  template <typename HashOf>
  void Insert(uint64_t hash, uint32_t id, HashOf&& hash_of) {
    if ((size_ + 1) * 2 > slots_.size()) {
      std::vector<uint32_t> old = std::move(slots_);
      slots_.assign(old.empty() ? 16 : old.size() * 2, kNone);
      mask_ = slots_.size() - 1;
      for (uint32_t stored : old) {
        if (stored != kNone) Place(hash_of(stored), stored);
      }
    }
    Place(hash, id);
    ++size_;
  }

 private:
  /// Final avalanche (splitmix64), so masking the low bits is uniform even
  /// for the multiplicative rule fingerprints.
  static uint64_t Mix(uint64_t h) {
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    return h ^ (h >> 31);
  }

  void Place(uint64_t hash, uint32_t id) {
    size_t i = Mix(hash) & mask_;
    while (slots_[i] != kNone) i = (i + 1) & mask_;
    slots_[i] = id;
  }

  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace gsls

#endif  // GSLS_UTIL_ID_TABLE_H_
