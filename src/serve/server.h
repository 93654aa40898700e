#ifndef GSLS_SERVE_SERVER_H_
#define GSLS_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/delta.h"
#include "serve/epoch_store.h"
#include "serve/snapshot.h"
#include "solver/incremental.h"

namespace gsls {
namespace check {
class ServingAuditor;
}  // namespace check

namespace serve {

/// Bounded MPSC delta queue between callers and the serving writer.
/// `Push` blocks while full (backpressure, never unbounded memory);
/// `DrainInto` hands the writer everything pending at once — the batching
/// lever: N queued deltas become one cone re-solve, so the capacity also
/// bounds one publish's batch.
class DeltaQueue {
 public:
  /// Pending deltas at which `Push` blocks.
  static constexpr size_t kCapacity = 1024;

  /// Enqueues `op`, blocking while the queue is full. Returns the
  /// sequence number assigned (1-based, dense). Returns 0 if closed.
  uint64_t Push(DeltaOp op);

  /// Blocks until at least one delta is pending (or the queue closes),
  /// then moves every pending delta into `*out` (cleared first). Returns
  /// false iff closed and drained dry.
  bool DrainInto(std::vector<DeltaOp>* out);

  void Close();
  size_t depth() const;
  uint64_t last_seq() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<DeltaOp> items_;
  uint64_t next_seq_ = 1;
  bool closed_ = false;
};

struct ServeOptions {
  /// `serve.*` channels land here (may be the same registry the solver
  /// publishes its `delta.*`/`query.*` channels into). Null: no-op.
  obs::Telemetry* telemetry = nullptr;
  /// Start with the writer paused (deltas queue but do not apply until
  /// `Resume`) — the deterministic-batching lever for tests and audits.
  bool start_paused = false;
};

/// The MVCC serving layer: snapshot-isolated readers over a batching
/// delta writer (the tentpole of the concurrent-serving roadmap item).
///
/// One writer thread drains the bounded delta queue, batch-applies the
/// drained deltas (each only marks dirty state), pays **one** cone
/// re-solve via `Model()` for the whole batch, and — when the pass
/// completes — publishes an immutable `Snapshot` as the next epoch.
/// Readers pin an epoch (`EpochStore::ReadGuard`) and run point queries
/// against its snapshot: no lock, no solver access, bit-identical to a
/// fresh solve of that epoch's program state.
///
/// Consistency contract (docs/serving.md): a snapshot is never stale
/// *within itself* — it is exactly the well-founded model after delta
/// `seq()` — and only ever lags the writer by whole batches. Aborted
/// passes (cancellation/deadline on the wrapped solver) publish nothing;
/// the resolve log and folded deltas carry over, so the next completed
/// pass publishes a snapshot covering them.
class ServingSolver {
 public:
  /// Takes ownership of a solver whose initial `Model()` pass must run to
  /// completion (do not arm a cancel token/deadline before construction);
  /// the resulting model is published as epoch 1 before any reader or
  /// writer activity.
  explicit ServingSolver(std::unique_ptr<IncrementalSolver> solver,
                         ServeOptions opts = {});
  ~ServingSolver();

  ServingSolver(const ServingSolver&) = delete;
  ServingSolver& operator=(const ServingSolver&) = delete;

  // --- delta intake (any thread; blocks on a full queue) ---

  /// The consolidated vocabulary: facts and ground clauses, asserted and
  /// retracted. Returns the delta's sequence number (0: already stopped).
  uint64_t Assert(const Term* fact);
  uint64_t Retract(const Term* fact);
  uint64_t Assert(Clause rule);
  uint64_t Retract(Clause rule);
  uint64_t Submit(DeltaOp op);

  /// Returns once every delta submitted before the call is published
  /// (visible to new pins). A latched cancel token on the wrapped solver
  /// can delay this indefinitely — see the abort note above.
  void Flush();

  /// Pauses the writer between batches: queued deltas accumulate but are
  /// not applied until `Resume`. Returns only once the writer is idle —
  /// the quiesce lever for audits and deterministic batching tests.
  void Pause();
  void Resume();

  /// Drains the queue, publishes what completes, and joins the writer.
  /// Idempotent; the destructor calls it.
  void Stop();

  // --- reader surface ---

  EpochStore::ReaderHandle RegisterReader() {
    return epochs_.RegisterReader();
  }
  EpochStore& epochs() { return epochs_; }

  /// Convenience point read: pin → query → unpin, with read telemetry.
  /// `epoch_out`/`seq_out` (optional) report which epoch answered.
  SnapshotAnswer Read(const EpochStore::ReaderHandle& h,
                      const Term* ground_atom, uint64_t* epoch_out = nullptr,
                      uint64_t* seq_out = nullptr);

  // --- quiesced diagnostics ---

  struct Stats {
    uint64_t epochs_published = 0;
    uint64_t batches = 0;           ///< completed writer batches
    uint64_t deltas_applied = 0;
    uint64_t max_batch = 0;         ///< largest single batch folded
    uint64_t aborted_passes = 0;    ///< batches whose Model() aborted
    uint64_t reclaimed_snapshots = 0;
    uint64_t recycled_pages = 0;
  };
  Stats stats() const;

  /// Highest sequence number folded into a published snapshot.
  uint64_t published_seq() const;
  size_t queue_depth() const { return queue_.depth(); }

  /// The wrapped solver. Reads race the writer unless paused/stopped —
  /// `Pause()` first (the audit does).
  const IncrementalSolver& solver() const { return *solver_; }
  const SnapshotBuilder& builder() const { return builder_; }

 private:
  friend class gsls::check::ServingAuditor;

  struct Channels {
    obs::Gauge* epoch = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Gauge* epoch_lag = nullptr;
    obs::Gauge* pinned_readers = nullptr;
    obs::Histogram* batch_deltas = nullptr;
    obs::Histogram* publish_us = nullptr;
    obs::Histogram* pages_cloned = nullptr;
    obs::Histogram* read_latency_ns = nullptr;
    obs::Counter* reads = nullptr;
    obs::Counter* reclaimed = nullptr;
    obs::Counter* recycled_pages = nullptr;
    obs::Counter* aborted = nullptr;
  };

  void WriterLoop();
  /// Builds + publishes the snapshot for the writer's current solver
  /// state, reclaims, and updates telemetry. Writer thread (and ctor).
  void PublishCurrent(uint64_t seq, size_t batch_size);

  std::unique_ptr<IncrementalSolver> solver_;
  ServeOptions opts_;
  Channels tele_;

  DeltaQueue queue_;
  EpochStore epochs_;
  SnapshotBuilder builder_;

  // Writer control plane.
  mutable std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;
  bool paused_ = false;
  bool stopping_ = false;
  bool writer_in_batch_ = false;
  /// Writer-only (audit reads it quiesced): true iff the solver's tapes
  /// match the published snapshot — false between an aborted pass and the
  /// next completed publish, when the tapes hold folded-but-unpublished
  /// state the audit must not compare against.
  bool tape_consistent_ = true;

  // Publish plane (stats + the Flush barrier).
  mutable std::mutex pub_mu_;
  std::condition_variable pub_cv_;
  uint64_t published_seq_ = 0;
  Stats stats_;

  std::thread writer_;
};

}  // namespace serve
}  // namespace gsls

#endif  // GSLS_SERVE_SERVER_H_
