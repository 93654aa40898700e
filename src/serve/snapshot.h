#ifndef GSLS_SERVE_SNAPSHOT_H_
#define GSLS_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ground/truncation.h"
#include "solver/incremental.h"
#include "util/id_table.h"
#include "wfs/interpretation.h"

namespace gsls {
namespace check {
class ServingAuditor;
}  // namespace check

namespace serve {

/// Atoms per copy-on-write page. Small enough that a point delta clones
/// little (one page is ~1KB of values + 8KB of stages), large enough that
/// a snapshot of a million-atom program is ~1000 pointers.
inline constexpr uint32_t kPageAtoms = 1024;

/// One immutable page of the versioned tapes: the truth byte and (when the
/// solver computes levels) the Def. 2.4 stage slots of up to `kPageAtoms`
/// consecutive atom ids. Consecutive snapshots share untouched pages via
/// `shared_ptr`; a batch that re-solves nothing on a page costs nothing
/// for it.
struct Page {
  std::vector<uint8_t> values;        ///< byte-per-atom `TruthValue`
  std::vector<uint32_t> true_stage;   ///< empty unless levels are exported
  std::vector<uint32_t> false_stage;  ///< empty unless levels are exported
};

/// Immutable term → atom-id index carried by every snapshot so readers
/// never touch the writer-mutated `GroundProgram` registry (its tables are
/// not safe to probe while the writer interns). Two flat arrays: `terms`
/// and an `IdTable` over them keyed on each hash-consed term's address, so
/// a read compares pointers and never touches a term. Copy-on-intern:
/// rebuilt only by a publish whose batch registered new atoms, shared by
/// every other publish.
struct AtomIndex {
  IdTable ids;
  std::vector<const Term*> terms;  ///< id → hash-consed term

  std::optional<AtomId> Find(const Term* t) const {
    const uint32_t id = ids.Find(AddressHash(t),
                                 [&](uint32_t a) { return terms[a] == t; });
    if (id == IdTable::kNone) return std::nullopt;
    return id;
  }
};

/// What a point read against a snapshot reports. `registered == false`
/// means the atom was outside this epoch's relevant instantiation — by
/// the engine convention it is false (failed) at stage 1, no solving.
struct SnapshotAnswer {
  TruthValue value = TruthValue::kFalse;
  uint32_t true_stage = 0;
  uint32_t false_stage = 0;
  bool registered = false;
  /// The atom is in the epoch's `TruncationCone`: `value` is the bounded
  /// fragment's, and the session answers `kUnknown`.
  bool truncated = false;
};

/// One published epoch: an immutable, internally consistent image of the
/// well-founded model (and, with levels, the exact Def. 2.4 stages) of
/// the program state after the delta tagged `seq` was folded in. Readers
/// hold a raw pointer while pinned (see `EpochStore`); the object is kept
/// alive by the store until no pin can reach it.
class Snapshot {
 public:
  uint64_t epoch() const { return epoch_; }
  /// Sequence number of the last delta folded into this image (0 for the
  /// initial publish). The oracle-replay tests key on this: rebuilding
  /// the base program plus deltas [1, seq] and fresh-solving must
  /// reproduce every byte below.
  uint64_t seq() const { return seq_; }
  size_t atom_count() const { return atom_count_; }
  bool has_levels() const { return has_levels_; }
  const AtomIndex& index() const { return *index_; }

  TruthValue Value(AtomId a) const {
    const Page& p = *pages_[a / kPageAtoms];
    return static_cast<TruthValue>(p.values[a % kPageAtoms]);
  }

  SnapshotAnswer Query(AtomId a) const {
    SnapshotAnswer out;
    if (a >= atom_count_) {
      // Interned after this epoch published: unregistered here.
      out.value = TruthValue::kFalse;
      out.false_stage = 1;
      out.registered = false;
      return out;
    }
    out.registered = true;
    out.truncated = truncation_ != nullptr && truncation_->Contains(a);
    const Page& p = *pages_[a / kPageAtoms];
    const uint32_t i = a % kPageAtoms;
    out.value = static_cast<TruthValue>(p.values[i]);
    if (has_levels_) {
      out.true_stage = p.true_stage[i];
      out.false_stage = p.false_stage[i];
    }
    return out;
  }

  /// Point read by (hash-consed) term. Unregistered atoms are false at
  /// stage 1 — identical to `IncrementalSolver::QueryAtom(const Term*)`.
  SnapshotAnswer Query(const Term* ground_atom) const {
    std::optional<AtomId> id = index_->Find(ground_atom);
    if (!id.has_value()) {
      SnapshotAnswer out;
      out.value = TruthValue::kFalse;
      out.false_stage = 1;
      out.registered = false;
      out.truncated =
          truncation_ != nullptr && truncation_->Contains(ground_atom);
      return out;
    }
    return Query(*id);
  }

  size_t page_count() const { return pages_.size(); }

 private:
  friend class SnapshotBuilder;
  friend class gsls::check::ServingAuditor;

  uint64_t epoch_ = 0;
  uint64_t seq_ = 0;
  size_t atom_count_ = 0;
  bool has_levels_ = false;
  std::vector<std::shared_ptr<Page>> pages_;
  std::shared_ptr<const AtomIndex> index_;
  /// Null unless the grounding hit its depth cap.
  std::shared_ptr<const TruncationCone> truncation_;
};

/// Writer-owned snapshot factory. Clones exactly the pages the solver's
/// resolve log touched (plus growth), shares the rest with the previous
/// build, and recycles pages of reclaimed snapshots through a bounded
/// free pool — a retired epoch's tapes re-enter circulation only once
/// provably unreachable (`use_count() == 1`), which the serving audit
/// re-checks.
class SnapshotBuilder {
 public:
  struct Stats {
    uint64_t pages_cloned = 0;
    uint64_t pages_shared = 0;
    uint64_t pages_recycled = 0;
    uint64_t pool_hits = 0;
    uint64_t index_rebuilds = 0;
  };

  /// Builds the snapshot for `epoch`/`seq` from the solver's current
  /// tapes. Call only between solver passes (the writer, after its
  /// `Model()` returned `kCompleted`).
  std::shared_ptr<const Snapshot> Build(const IncrementalSolver& solver,
                                        IncrementalSolver::ResolveLog log,
                                        uint64_t epoch, uint64_t seq);

  /// Returns a retired snapshot's now-exclusive pages to the free pool.
  /// Pages still shared with a live snapshot are left untouched; the
  /// snapshot object itself must be uniquely owned by the caller (it is
  /// destroyed here).
  void Recycle(std::shared_ptr<const Snapshot> retired);

  const Stats& stats() const { return stats_; }

 private:
  friend class gsls::check::ServingAuditor;

  static constexpr size_t kMaxPoolPages = 4096;

  std::shared_ptr<Page> AllocPage();

  std::shared_ptr<const Snapshot> prev_;
  std::shared_ptr<const AtomIndex> index_;
  std::vector<std::shared_ptr<Page>> pool_;
  Stats stats_;
};

}  // namespace serve
}  // namespace gsls

#endif  // GSLS_SERVE_SNAPSHOT_H_
