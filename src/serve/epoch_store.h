#ifndef GSLS_SERVE_EPOCH_STORE_H_
#define GSLS_SERVE_EPOCH_STORE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "serve/snapshot.h"

namespace gsls {
namespace check {
class ServingAuditor;
}  // namespace check

namespace serve {

/// MVCC epoch store: one writer publishes immutable `Snapshot`s under
/// monotonically increasing epochs; many readers pin an epoch and read its
/// snapshot through a raw pointer — no lock, no shared_ptr refcount
/// traffic on the read path. Retired snapshots are reclaimed only once
/// every pinned epoch has moved past them (epoch-based reclamation).
///
/// The pin protocol (all `seq_cst`, so the standard EBR total-order
/// argument applies and TSan sees every edge):
///
///   reader: e = epoch.load(); loop { slot.pin = e; if (epoch.load() == e)
///           break; e = epoch.load(); }   — publish-then-revalidate
///   writer: publish = ring[e+1 % R] = snap; epoch.store(e+1)
///           reclaim = min = min(slot.pin…); free everything < min
///
/// If the writer's min-pin scan misses a reader's pin store, that store —
/// and therefore the reader's revalidating epoch load — is ordered after
/// the scan, so the reader re-pins at an epoch the scan's reclaim horizon
/// keeps alive. Ring slots of reclaimed epochs are cleared by the same
/// reasoning: no reader can still reach them.
class EpochStore {
 public:
  /// Sentinel pin value: slot holds no epoch.
  static constexpr uint64_t kNotPinned = ~uint64_t{0};
  /// Fixed reader-slot table; registration beyond this fails (serving
  /// fleets want bounded scan cost, not unbounded readers per process).
  static constexpr size_t kMaxReaders = 64;
  /// Published-snapshot ring depth — how far a pinned reader may lag the
  /// writer before the writer must wait for it.
  static constexpr size_t kRingSize = 256;

  /// A registered reader slot. One handle per thread; `Pin`/`Unpin` on
  /// the same handle must not race with themselves.
  class ReaderHandle {
   public:
    ReaderHandle() = default;
    ReaderHandle(ReaderHandle&& o) noexcept
        : store_(o.store_), slot_(o.slot_) {
      o.store_ = nullptr;
    }
    ReaderHandle& operator=(ReaderHandle&& o) noexcept {
      if (this != &o) {
        Release();
        store_ = o.store_;
        slot_ = o.slot_;
        o.store_ = nullptr;
      }
      return *this;
    }
    ReaderHandle(const ReaderHandle&) = delete;
    ReaderHandle& operator=(const ReaderHandle&) = delete;
    ~ReaderHandle() { Release(); }

    bool valid() const { return store_ != nullptr; }

   private:
    friend class EpochStore;
    void Release();

    EpochStore* store_ = nullptr;
    size_t slot_ = 0;
  };

  /// Claims a reader slot; the handle unregisters itself on destruction.
  /// Returns an invalid handle when all `kMaxReaders` slots are taken.
  ReaderHandle RegisterReader();

  struct Pinned {
    uint64_t epoch = 0;
    const Snapshot* snapshot = nullptr;
  };

  /// Pins the current epoch for `h` and returns its snapshot. The pointer
  /// stays valid until `Unpin`. Requires at least one publish.
  Pinned Pin(const ReaderHandle& h);
  void Unpin(const ReaderHandle& h);

  /// RAII pin for one read.
  class ReadGuard {
   public:
    ReadGuard(EpochStore& store, const ReaderHandle& h)
        : store_(&store), h_(&h), pinned_(store.Pin(h)) {}
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;
    ~ReadGuard() { store_->Unpin(*h_); }

    uint64_t epoch() const { return pinned_.epoch; }
    const Snapshot* operator->() const { return pinned_.snapshot; }
    const Snapshot& operator*() const { return *pinned_.snapshot; }

   private:
    EpochStore* store_;
    const ReaderHandle* h_;
    Pinned pinned_;
  };

  // --- single-writer surface (plus quiesced diagnostics) ---

  /// Publishes `snap` as epoch `current_epoch() + 1` (which `snap->epoch()`
  /// must equal). Blocks (yielding) while a reader pinned `kRingSize`
  /// epochs back would have its slot overwritten.
  void Publish(std::shared_ptr<const Snapshot> snap);

  /// The lowest currently pinned epoch, or `kNotPinned` when no reader is
  /// pinned (everything retired is then reclaimable).
  uint64_t MinPinned() const;

  /// Removes and returns every retired snapshot no pin can reach
  /// (epoch < MinPinned), clearing their ring slots. Writer-only.
  std::vector<std::shared_ptr<const Snapshot>> DrainReclaimable();

  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }
  /// Shared ownership of epoch `e`'s snapshot. Safe only while the caller
  /// holds a pin at `e` — the pin keeps the ring slot from being cleared
  /// or overwritten under the copy.
  std::shared_ptr<const Snapshot> SnapshotAt(uint64_t e) const {
    return ring_[e % kRingSize];
  }

  size_t retired_count() const { return retired_.size(); }
  size_t pinned_readers() const;

  /// Audit trail: every reclaim records the epoch freed and the min-pin
  /// horizon that justified it (`epoch < min_pin` is the audited
  /// invariant). Bounded; oldest entries are dropped.
  struct ReclaimRecord {
    uint64_t epoch = 0;
    uint64_t min_pin = 0;
  };
  const std::deque<ReclaimRecord>& reclaim_log() const {
    return reclaim_log_;
  }

 private:
  friend class gsls::check::ServingAuditor;

  static constexpr size_t kMaxReclaimLog = 65536;

  struct alignas(64) Slot {
    std::atomic<uint64_t> pin{kNotPinned};
    std::atomic<uint8_t> used{0};
  };

  std::array<Slot, kMaxReaders> slots_;
  std::atomic<uint64_t> epoch_{0};
  /// ring_[e % kRingSize] holds epoch e's snapshot from publish until
  /// reclaim (or until overwritten at e + kRingSize, which the publish
  /// wait makes unreachable while pinned).
  std::array<std::shared_ptr<const Snapshot>, kRingSize> ring_;
  std::shared_ptr<const Snapshot> current_;
  /// FIFO of superseded snapshots awaiting the reclaim horizon.
  std::deque<std::pair<uint64_t, std::shared_ptr<const Snapshot>>> retired_;
  std::deque<ReclaimRecord> reclaim_log_;
};

}  // namespace serve
}  // namespace gsls

#endif  // GSLS_SERVE_EPOCH_STORE_H_
