#ifndef GSLS_SERVE_SESSION_H_
#define GSLS_SERVE_SESSION_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "core/engine.h"  // GoalStatus — the unified status vocabulary
#include "core/ordinal.h"
#include "ground/grounder.h"
#include "ground/truncation.h"
#include "serve/server.h"
#include "solver/incremental.h"
#include "util/status.h"

namespace gsls {

/// Options for `Session::Open`.
struct SessionOptions {
  GroundingOptions grounding;
  /// Solver knobs (threads, telemetry, cancellation, warm interiors).
  /// `solver.compute_levels` is overridden by `compute_levels` below.
  SolverOptions solver;
  /// Def. 2.4 stage levels on every answer (≈1.2x solve overhead).
  bool compute_levels = true;
  /// Concurrent serving mode: reads hit immutable MVCC snapshots while a
  /// writer thread batches deltas (src/serve/server.h). Off: the session
  /// is a synchronous single-owner facade with zero extra threads.
  bool serving = false;
  serve::ServeOptions serve;
};

/// The one result struct of a point query — value, Def. 2.4 stage,
/// outcome, and cost counters.
struct SessionAnswer {
  TruthValue value = TruthValue::kFalse;
  /// The Thm 4.7 correspondence applied to `value` — `kSuccessful` /
  /// `kFailed` / `kIndeterminate` — or `kUnknown` when the pass aborted
  /// (`outcome != kCompleted`; never a fabricated answer).
  GoalStatus status = GoalStatus::kUnknown;
  SolveOutcome outcome = SolveOutcome::kCompleted;
  /// Exact Def. 2.4 stages (when levels are computed).
  uint32_t true_stage = 0;
  uint32_t false_stage = 0;
  /// Cor. 4.6 level of the decided answer, when levels are computed.
  std::optional<Ordinal> level;
  /// Serving mode: which epoch/delta-prefix answered. Direct mode: 0.
  uint64_t epoch = 0;
  uint64_t seq = 0;
  /// Cost counters (direct mode; serving reads are pure snapshot lookups
  /// and report zeros).
  uint32_t cone_components = 0;
  uint32_t resolved_components = 0;
  uint32_t memo_hits = 0;
  uint64_t cone_atoms = 0;
  /// The grounder's depth cap dropped a rule instance this atom depends on
  /// (`ground/truncation.h`): `status` is `kUnknown` and `value` is only
  /// the bounded fragment's.
  bool truncated = false;
};

/// The unified entry point to the system: open a program (or adopt a
/// solver), stream `Assert`/`Retract` deltas, point-`Query` atoms, and
/// take whole-model `Snapshot`s. It is the one place deltas, deadlines,
/// step budgets and cancel tokens enter. The engines are query procedures
/// over a session (`TabledEngine::session()`, `GlobalSlsEngine::session()`)
/// and keep no delta or cancel surface of their own: a caller cancels
/// through the `SolverOptions::cancel` token it passed in, and changes
/// the deadline or budget with `SetDeadlineNs`/`SetStepBudget` here.
///
/// Delta vocabulary:
///
///   session.Assert(fact);        // ground fact, hash-consed Term*
///   session.Retract(fact);
///   session.Assert(clause);      // ground Clause -> Result<RuleId>
///   session.Retract(clause);     // content-addressed
///
/// Direct mode (default) is a synchronous single-owner wrapper: deltas
/// apply immediately, queries pay `down-cone ∩ dirty`. Serving mode runs
/// the MVCC layer: deltas enqueue to the batching writer, queries read
/// the pinned epoch's immutable snapshot.
class Session {
 public:
  /// Grounds `program` (relevant instantiation) and opens a session on it.
  /// Grounding honors the cancellation options of `opts.solver` (`cancel`,
  /// `deadline_ns`, `step_budget`, `fault`): a stopped grounding returns
  /// `kCancelled` / `kDeadlineExceeded` and no session. With
  /// `opts.solver.telemetry` set, the grounding's counters are published
  /// as `ground.{rules,atoms,join_candidates,emitted,truncated}`.
  static Result<Session> Open(const Program& program,
                              SessionOptions opts = {});

  /// Wraps an already-built solver (the engines' adapter path). The
  /// solver's configured options win over `opts.solver`.
  static Session Adopt(std::unique_ptr<IncrementalSolver> solver,
                       SessionOptions opts = {});

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  // --- deltas (the consolidated vocabulary) ---

  /// Asserts/retracts the ground fact `fact.`. Direct mode returns
  /// whether the program changed; serving mode returns true once the
  /// delta is enqueued (application is asynchronous — `Flush` to wait).
  bool Assert(const Term* fact);
  bool Retract(const Term* fact);

  /// Asserts the ground clause. Direct mode returns its rule id and
  /// reports `*changed`; serving mode enqueues and returns id 0 (the
  /// retraction handle is the clause itself, content-addressed).
  /// Nonground clauses are `InvalidArgument` — deltas never re-ground.
  Result<RuleId> Assert(const Clause& rule, bool* changed = nullptr);
  /// Content-addressed retraction of the identical clause. Direct mode
  /// returns whether the program changed; serving mode, once enqueued.
  bool Retract(const Clause& rule);

  // --- queries ---

  /// Point query by hash-consed ground atom. Atoms outside the relevant
  /// instantiation are false (failed) at stage 1 — every surface shares
  /// this convention now. Atoms in the truncation cone of a grounding
  /// that hit its depth cap answer `kUnknown` (`SessionAnswer::truncated`).
  SessionAnswer Query(const Term* ground_atom);
  /// By already-known atom id (no hash lookup).
  SessionAnswer Query(AtomId atom);

  /// Serving mode: blocks until every delta submitted before the call is
  /// published. Direct mode: no-op (deltas are synchronous).
  void Flush();

  /// An immutable whole-model image. Serving mode: the current published
  /// epoch (no solving; only completed passes publish). Direct mode: built
  /// on demand from the settled solver (pays a `Model()` if deltas are
  /// pending), or null when that pass did not complete (deadline, step
  /// budget, cancel or fault): a snapshot carries no outcome, so a partial
  /// model is never handed out as exact. A later call resumes the pass.
  std::shared_ptr<const serve::Snapshot> SnapshotNow();

  // --- composition / escape hatches ---

  bool serving() const { return server_ != nullptr; }
  /// The underlying solver. Serving mode: writer-owned — quiesce first
  /// (`server()->Pause()`), as the audit does.
  IncrementalSolver& solver() {
    return server_ != nullptr ? *server_solver_ : *direct_;
  }
  const IncrementalSolver& solver() const {
    return server_ != nullptr ? *server_solver_ : *direct_;
  }
  serve::ServingSolver* server() { return server_.get(); }
  /// Direct mode: the truncation cone of the solver's current rule set,
  /// rebuilt after deltas; null when the grounding never truncated.
  const TruncationCone* DirectTruncation();

  /// Deadline / step budget for later solve passes (0 = none; see
  /// `SolverOptions::deadline_ns` / `step_budget`). Direct mode; see
  /// docs/serving.md for the serving-mode interaction.
  void SetDeadlineNs(uint64_t deadline_ns);
  void SetStepBudget(uint64_t step_budget);

 private:
  Session(std::unique_ptr<IncrementalSolver> solver, SessionOptions opts);

  SessionOptions opts_;
  /// Direct mode: the owned solver. Serving mode: null (the server owns).
  std::unique_ptr<IncrementalSolver> direct_;
  std::unique_ptr<serve::ServingSolver> server_;
  /// Raw view of the server-owned solver (diagnostics; quiesce first).
  IncrementalSolver* server_solver_ = nullptr;
  /// Serving mode: the facade's own reader slot. `Query` through it is
  /// single-threaded per Session; concurrent reader fleets register their
  /// own handles via `server()`.
  serve::EpochStore::ReaderHandle reader_;
  /// Direct mode: `DirectTruncation`'s cache, keyed by the solver's delta
  /// count.
  std::shared_ptr<const TruncationCone> truncation_;
  uint64_t truncation_deltas_ = UINT64_MAX;
};

}  // namespace gsls

#endif  // GSLS_SERVE_SESSION_H_
