#include "serve/server.h"

#include <cassert>
#include <utility>

#include "obs/trace.h"
#include "util/cancel.h"
#include "wfs/wfs.h"

namespace gsls::serve {

// --- DeltaQueue -----------------------------------------------------------

uint64_t DeltaQueue::Push(DeltaOp op) {
  std::unique_lock<std::mutex> l(mu_);
  not_full_.wait(l, [&] { return items_.size() < kCapacity || closed_; });
  if (closed_) return 0;
  op.seq = next_seq_++;
  const uint64_t seq = op.seq;
  items_.push_back(std::move(op));
  l.unlock();
  not_empty_.notify_one();
  return seq;
}

bool DeltaQueue::DrainInto(std::vector<DeltaOp>* out) {
  out->clear();
  std::unique_lock<std::mutex> l(mu_);
  not_empty_.wait(l, [&] { return !items_.empty() || closed_; });
  if (items_.empty()) return false;  // closed and dry
  out->swap(items_);
  l.unlock();
  not_full_.notify_all();
  return true;
}

void DeltaQueue::Close() {
  {
    std::lock_guard<std::mutex> l(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

size_t DeltaQueue::depth() const {
  std::lock_guard<std::mutex> l(mu_);
  return items_.size();
}

uint64_t DeltaQueue::last_seq() const {
  std::lock_guard<std::mutex> l(mu_);
  return next_seq_ - 1;
}

// --- ServingSolver --------------------------------------------------------

ServingSolver::ServingSolver(std::unique_ptr<IncrementalSolver> solver,
                             ServeOptions opts)
    : solver_(std::move(solver)), opts_(opts) {
  if (opts_.telemetry != nullptr) {
    obs::MetricsRegistry& m = opts_.telemetry->metrics;
    tele_.epoch = m.GetGauge("serve.epoch");
    tele_.queue_depth = m.GetGauge("serve.queue_depth");
    tele_.epoch_lag = m.GetGauge("serve.epoch_lag");
    tele_.pinned_readers = m.GetGauge("serve.pinned_readers");
    tele_.batch_deltas = m.GetHistogram("serve.batch_deltas");
    tele_.publish_us = m.GetHistogram("serve.publish_us");
    tele_.pages_cloned = m.GetHistogram("serve.pages_cloned");
    tele_.read_latency_ns = m.GetHistogram("serve.read.latency_ns");
    tele_.reads = m.GetCounter("serve.read.count");
    tele_.reclaimed = m.GetCounter("serve.reclaimed_snapshots");
    tele_.recycled_pages = m.GetCounter("serve.recycled_pages");
    tele_.aborted = m.GetCounter("serve.aborted_passes");
  }
  solver_->EnableResolveLog();
  const WfsModel& m0 = solver_->Model();
  // The serving contract publishes only completed models; the initial
  // solve runs before any token/deadline should be armed.
  assert(m0.outcome == SolveOutcome::kCompleted &&
         "initial solve must complete before serving starts");
  (void)m0;
  PublishCurrent(/*seq=*/0, /*batch_size=*/0);
  paused_ = opts_.start_paused;
  writer_ = std::thread(&ServingSolver::WriterLoop, this);
}

ServingSolver::~ServingSolver() { Stop(); }

uint64_t ServingSolver::Assert(const Term* fact) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::kAssertFact;
  op.fact = fact;
  return Submit(std::move(op));
}

uint64_t ServingSolver::Retract(const Term* fact) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::kRetractFact;
  op.fact = fact;
  return Submit(std::move(op));
}

uint64_t ServingSolver::Assert(Clause rule) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::kAssertRule;
  op.rule = std::move(rule);
  return Submit(std::move(op));
}

uint64_t ServingSolver::Retract(Clause rule) {
  DeltaOp op;
  op.kind = DeltaOp::Kind::kRetractRule;
  op.rule = std::move(rule);
  return Submit(std::move(op));
}

uint64_t ServingSolver::Submit(DeltaOp op) {
  const uint64_t seq = queue_.Push(std::move(op));
  if (tele_.queue_depth != nullptr) {
    tele_.queue_depth->Set(static_cast<int64_t>(queue_.depth()));
  }
  return seq;
}

void ServingSolver::Flush() {
  const uint64_t target = queue_.last_seq();
  std::unique_lock<std::mutex> l(pub_mu_);
  pub_cv_.wait(l, [&] { return published_seq_ >= target; });
}

void ServingSolver::Pause() {
  std::unique_lock<std::mutex> l(ctl_mu_);
  paused_ = true;
  ctl_cv_.wait(l, [&] { return !writer_in_batch_; });
}

void ServingSolver::Resume() {
  {
    std::lock_guard<std::mutex> l(ctl_mu_);
    paused_ = false;
  }
  ctl_cv_.notify_all();
}

void ServingSolver::Stop() {
  {
    std::lock_guard<std::mutex> l(ctl_mu_);
    stopping_ = true;
    paused_ = false;
  }
  ctl_cv_.notify_all();
  queue_.Close();
  if (writer_.joinable()) writer_.join();
}

SnapshotAnswer ServingSolver::Read(const EpochStore::ReaderHandle& h,
                                   const Term* ground_atom,
                                   uint64_t* epoch_out, uint64_t* seq_out) {
  const uint64_t t0 = opts_.telemetry != nullptr ? obs::NowNs() : 0;
  SnapshotAnswer ans;
  uint64_t epoch = 0;
  uint64_t seq = 0;
  {
    EpochStore::ReadGuard g(epochs_, h);
    ans = g->Query(ground_atom);
    epoch = g.epoch();
    seq = g->seq();
  }
  if (epoch_out != nullptr) *epoch_out = epoch;
  if (seq_out != nullptr) *seq_out = seq;
  if (opts_.telemetry != nullptr) {
    tele_.reads->Add(1);
    tele_.read_latency_ns->Record(obs::NowNs() - t0);
  }
  return ans;
}

ServingSolver::Stats ServingSolver::stats() const {
  std::lock_guard<std::mutex> l(pub_mu_);
  return stats_;
}

uint64_t ServingSolver::published_seq() const {
  std::lock_guard<std::mutex> l(pub_mu_);
  return published_seq_;
}

void ServingSolver::WriterLoop() {
  std::vector<DeltaOp> batch;
  for (;;) {
    // Gate on pause *before* draining: a paused writer must leave the
    // queue accumulating so `Resume` folds everything pending into one
    // batch (the deterministic-batching lever start_paused exists for).
    {
      std::unique_lock<std::mutex> l(ctl_mu_);
      ctl_cv_.wait(l, [&] { return !paused_ || stopping_; });
    }
    if (!queue_.DrainInto(&batch)) break;
    {
      std::unique_lock<std::mutex> l(ctl_mu_);
      // A Pause() that landed between the gate and the drain wins: hold
      // the drained batch until resumed. `writer_in_batch_` flips under
      // the same lock acquisition that observes `!paused_`, so `Pause`
      // can never return while a batch is (about to be) in flight.
      ctl_cv_.wait(l, [&] { return !paused_ || stopping_; });
      writer_in_batch_ = true;
    }
    // Each delta only marks dirty state; the single Model() below pays
    // one change-pruned cone re-solve for the entire batch.
    for (const DeltaOp& op : batch) {
      ApplyDelta(*solver_, op);
    }
    const WfsModel& m = solver_->Model();
    if (m.outcome == SolveOutcome::kCompleted) {
      PublishCurrent(batch.back().seq, batch.size());
      tape_consistent_ = true;
    } else {
      // Nothing publishes: readers keep the last consistent epoch. The
      // folded deltas and resolve log carry into the next pass.
      tape_consistent_ = false;
      std::lock_guard<std::mutex> l(pub_mu_);
      ++stats_.aborted_passes;
      if (tele_.aborted != nullptr) tele_.aborted->Add(1);
    }
    {
      std::lock_guard<std::mutex> l(ctl_mu_);
      writer_in_batch_ = false;
    }
    ctl_cv_.notify_all();
  }
}

void ServingSolver::PublishCurrent(uint64_t seq, size_t batch_size) {
  const uint64_t t0 = opts_.telemetry != nullptr ? obs::NowNs() : 0;
  IncrementalSolver::ResolveLog log = solver_->TakeResolveLog();
  const uint64_t cloned_before = builder_.stats().pages_cloned;
  const uint64_t epoch = epochs_.current_epoch() + 1;
  std::shared_ptr<const Snapshot> snap =
      builder_.Build(*solver_, std::move(log), epoch, seq);
  epochs_.Publish(std::move(snap));

  std::vector<std::shared_ptr<const Snapshot>> dead =
      epochs_.DrainReclaimable();
  const uint64_t recycled_before = builder_.stats().pages_recycled;
  for (std::shared_ptr<const Snapshot>& s : dead) {
    builder_.Recycle(std::move(s));
  }
  const uint64_t recycled = builder_.stats().pages_recycled - recycled_before;

  {
    std::lock_guard<std::mutex> l(pub_mu_);
    published_seq_ = seq;
    ++stats_.epochs_published;
    if (batch_size > 0) {
      ++stats_.batches;
      stats_.deltas_applied += batch_size;
      if (batch_size > stats_.max_batch) stats_.max_batch = batch_size;
    }
    stats_.reclaimed_snapshots += dead.size();
    stats_.recycled_pages += recycled;
  }
  pub_cv_.notify_all();

  if (opts_.telemetry != nullptr) {
    tele_.epoch->Set(static_cast<int64_t>(epoch));
    tele_.queue_depth->Set(static_cast<int64_t>(queue_.depth()));
    const uint64_t min_pin = epochs_.MinPinned();
    tele_.epoch_lag->Set(static_cast<int64_t>(
        min_pin == EpochStore::kNotPinned ? 0 : epoch - min_pin));
    tele_.pinned_readers->Set(
        static_cast<int64_t>(epochs_.pinned_readers()));
    if (batch_size > 0) tele_.batch_deltas->Record(batch_size);
    tele_.pages_cloned->Record(builder_.stats().pages_cloned -
                               cloned_before);
    tele_.publish_us->Record((obs::NowNs() - t0) / 1000);
    if (!dead.empty()) tele_.reclaimed->Add(dead.size());
    if (recycled > 0) tele_.recycled_pages->Add(recycled);
  }
}

}  // namespace gsls::serve
