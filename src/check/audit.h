#ifndef GSLS_CHECK_AUDIT_H_
#define GSLS_CHECK_AUDIT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "solver/incremental.h"

namespace gsls::serve {
class ServingSolver;
}  // namespace gsls::serve

namespace gsls::check {

/// Outcome of one `AuditSolver` pass: every violated invariant as a
/// human-readable failure line, plus coverage counters so a test can
/// assert the audit actually exercised something.
struct AuditReport {
  std::vector<std::string> failures;

  /// Memo-valid components whose fixpoint was re-verified by an
  /// independent re-solve.
  uint32_t components_checked = 0;
  /// Memo-valid components skipped because some input component is stale
  /// (their values are only promised *after* the stale inputs re-solve,
  /// in dependency order — the memo's closure invariant).
  uint32_t components_skipped = 0;
  /// The condensation was compared against a from-scratch Tarjan build.
  bool graph_audited = false;
  /// Persisted warm-component entries whose invariants (binding, counter
  /// recounts, source acyclicity, trail justification) were re-derived.
  uint32_t warm_entries_checked = 0;

  // --- serving-layer coverage (`AuditServing` only) ---

  /// The MVCC serving invariants below were exercised.
  bool serving_audited = false;
  /// Atoms whose published-snapshot value (and stages) were compared
  /// byte-for-byte against the quiesced solver's tapes. 0 when the last
  /// writer pass aborted (tapes then legitimately lead the snapshot).
  uint64_t serving_atoms_checked = 0;
  /// Free-pool pages whose unreachability (`use_count() == 1`) was
  /// re-verified — a retired epoch's tapes must be provably unreachable
  /// before any reuse.
  uint32_t serving_pool_pages_checked = 0;
  /// Reclaim-log records re-checked against the EBR horizon invariant
  /// (reclaimed epoch < min pinned epoch at reclaim time).
  uint32_t serving_reclaims_checked = 0;

  bool ok() const { return failures.empty(); }
  /// "ok" or the failure lines, newline-joined — test assertion messages.
  std::string ToString() const;
};

/// Re-derives every structure the incremental solver maintains and
/// compares it against the maintained state — the crash-consistency half
/// of the abort protocol's test story (ISSUE: audit after an abort, then
/// after the resumed solve). All checks are read-only; the solver is not
/// advanced, no memo entry or tape byte moves.
///
/// Invariants verified:
///  1. Condensation vs fresh Tarjan over the same enabled subprogram:
///     identical atom partition over the live components and identical
///     per-component flags, and the maintained labels form a valid
///     dependency order (every enabled cross-component edge runs from a
///     lower label to a higher one). Ids and labels themselves may differ
///     from the fresh build's — both order the same DAG.
///  2. Slice well-formedness of the maintained condensation:
///     `ComponentOf`, `LocalIndexOf`, and the live components' slices form
///     a bijection over the covered atoms; an id is on the free list
///     exactly when it holds no atoms, and no atom maps to one; live
///     labels are distinct, and the condensation's label-order list links
///     exactly the live components in ascending label order.
///  3. Fixpoint on clean components: every memo-valid component whose
///     inputs are all valid is independently re-solved on a scratch tape;
///     values (and V_P stages, under `compute_levels`) must come back
///     bit-identical. An aborted pass that left a half-written component
///     marked valid fails here.
///  4. Memo/stale-set consistency: every queued stale representative
///     names an *invalid* component (nothing is both served-as-final and
///     pending re-solve).
///  5. Mirror and stage consistency: for valid components, the bit-packed
///     public model (and its stage vectors) agree with the primary tapes,
///     and stage slots are sign-consistent with the truth values
///     (true => true_stage >= 1, false_stage == 0; symmetrically for
///     false; undefined => 0/0).
///  6. Persisted warm-interior state (`solver::WarmComponent`): every
///     entry in the warm store is keyed by its component's representative
///     atom and passes `AuditInvariants` against the live tape and mask —
///     cached rule counters equal a from-scratch recount, source pointers
///     are live and acyclic, snapshots are reconciled, and the decision
///     trail is batch-monotone with every decision justified. This is the
///     "provably consistent or discarded" half of the warm-start
///     contract; the discard half is exercised by abort/recondensation
///     tests.
///
/// Cost: one fresh Tarjan plus one re-solve per clean component — meant
/// for tests and fault drills, not production serving paths.
AuditReport AuditSolver(const IncrementalSolver& solver);

/// Audits the MVCC serving layer (src/serve/) on top of the full solver
/// audit. Quiesces the writer (`Pause`) for the duration, then `Resume`s —
/// safe to interleave with live readers and delta producers.
///
/// Serving invariants verified:
///  1. Published-snapshot fidelity: every atom's truth value (and V_P
///     stages, when levels are exported) in the current epoch's snapshot
///     equals the quiesced solver's tapes byte-for-byte. Combined with
///     the solver audit's independent per-component re-solve (check 3 of
///     `AuditSolver`), this is the "published snapshot is bit-identical
///     to a fresh solve of the epoch's program state" gate. Skipped (not
///     failed) while an aborted pass leaves the tapes legitimately ahead
///     of the snapshot.
///  2. Snapshot index fidelity: the copy-on-intern term index is a
///     bijection consistent with the ground program's atom registry.
///  3. Reclamation safety: every page in the builder's free pool is
///     exclusively owned (`use_count() == 1`) — a retired epoch's tapes
///     are unreachable before reuse; every reclaim-log record shows the
///     freed epoch strictly below the min-pin horizon that justified it.
///  4. Pin/ring integrity: every pinned reader's epoch is published, at
///     most the current epoch, and its ring slot still holds the matching
///     snapshot (reclaim never clears a slot a pin can reach).
AuditReport AuditServing(serve::ServingSolver& server);

/// Implementation vehicle for `AuditSolver`/`AuditServing` — the class
/// the solver and serving layer befriend. Use the free functions.
class SolverAuditor {
 public:
  static AuditReport Audit(const IncrementalSolver& solver);
};

class ServingAuditor {
 public:
  static AuditReport Audit(serve::ServingSolver& server);
};

inline AuditReport AuditSolver(const IncrementalSolver& solver) {
  return SolverAuditor::Audit(solver);
}

inline AuditReport AuditServing(serve::ServingSolver& server) {
  return ServingAuditor::Audit(server);
}

}  // namespace gsls::check

#endif  // GSLS_CHECK_AUDIT_H_
