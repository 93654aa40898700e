#ifndef GSLS_SOLVER_INCREMENTAL_H_
#define GSLS_SOLVER_INCREMENTAL_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "analysis/dynamic_condensation.h"
#include "ground/ground_program.h"
#include "obs/metrics.h"
#include "solver/component_memo.h"
#include "solver/parallel.h"
#include "solver/solver.h"
#include "solver/stages.h"
#include "solver/truth_tape.h"
#include "solver/warm_component.h"
#include "util/thread_pool.h"
#include "wfs/wfs.h"

namespace gsls {

namespace check {
class SolverAuditor;  // invariant auditor (src/check/audit.h)
}  // namespace check

/// Counters describing how much work the incremental solver avoided.
struct IncrementalStats {
  uint64_t deltas = 0;              ///< Assert/Retract calls that changed state
  uint64_t rule_deltas = 0;         ///< non-unit AssertRule/RetractRule deltas
  uint64_t full_solves = 0;         ///< from-scratch solves (first `Model`)
  uint64_t incremental_solves = 0;  ///< up-cone re-solve passes
  uint64_t graph_rebuilds = 0;      ///< condensation extensions (new atoms)
  uint64_t components_resolved = 0; ///< components re-run across all passes
  uint64_t components_reused = 0;   ///< components kept verbatim across passes
  uint64_t cone_cutoffs = 0;        ///< re-solved components whose values held
  uint64_t queries = 0;             ///< goal-directed `QueryAtom` passes
  uint64_t query_fastpaths = 0;     ///< queries answered with no cone walk
  uint64_t aborted_passes = 0;      ///< solve/query passes stopped by cancel
  uint64_t resumed_passes = 0;      ///< completed passes right after an abort

  std::string ToString() const;
};

/// Delta-driven well-founded solving: `SolveWfs` for programs that change
/// by fact assertion/retraction, which is how heavy query traffic actually
/// arrives — small deltas against a mostly-stable ground program.
///
/// Owns a `GroundProgram`, its SCC condensation (`AtomDependencyGraph`),
/// and the last solved `WfsModel`. `Assert(fact)` enables (adding it if
/// needed) the unit rule `fact.`; `Retract(fact)` disables it via a
/// per-`RuleId` mask, so the rule set never shrinks and every index stays
/// valid.
///
/// Every incremental pass is one *cone pass* over the condensation DAG. A
/// delta's `Model()` seeds it with the components of the dirty atoms (and
/// of the queued stale representatives) and lets it run up the unbounded
/// *up*-cone; a `QueryAtom` seeds it with the stale members of the query
/// atom's *down*-cone and bounds it there (the relevance property of
/// Thm. 4.5/4.7: an atom's value depends on its down-cone only).
///
/// The pass re-solves owed components in dependency order, each through
/// the exact same per-SCC pipeline as `SolveWfs`, reading already-final
/// lower values — which now include the re-solved ones. When a re-solved
/// component's values (and, under `compute_levels`, stages) come back
/// unchanged, the cone is cut there. Otherwise the head component of every
/// enabled rule mentioning a moved atom is *flagged*: a member becomes
/// owed in turn, a non-member is invalidated in the memo and queued for a
/// later pass. Every component never flagged keeps its statuses verbatim —
/// that is the entire saving, and it is exact: components are final in
/// dependency order, so a re-solved component sees the same inputs a
/// fresh `SolveWfs` over the mutated program would see.
///
/// Two executors run the pass, with identical results. *Inline* is a
/// min-heap keyed by component label (= dependency order) over the seeds and
/// the flagged members, so it pays only for components whose inputs moved
/// — the latency-critical streaming case, whose changes usually die
/// within a few components. *Pool* is the ready-release schedule of
/// solver/parallel.h over the member set (the up direction gathers it by
/// reachability from the seeds), where a released member re-solves
/// only if it was seeded or flagged. The pool runs iff
/// `SolverOptions::num_threads != 1` and the seeds span more than one
/// component. A pass stopped by a cancellation checkpoint invalidates and
/// queues every component it still owed, so the next pass resumes exactly
/// the remainder.
///
/// Invalidation strategy: unit rules have no body, so fact deltas never
/// add or remove *edges* of the dependency graph — only `Assert` of a
/// never-registered atom adds a (necessarily isolated) node as a new
/// singleton component. Non-unit rule deltas (`AssertRule`/`RetractRule`)
/// do change edges; the condensation is then repaired *locally* by the
/// dynamic-SCC layer (analysis/dynamic_condensation.h): order-respecting
/// edges cost O(rule), a cycle-closing insertion relabels and merges only
/// its affected region, and a retraction re-runs Tarjan over the head's
/// component alone. Component ids are stable across repairs, so every
/// per-component structure (memo, warm state, cone scratch) stays keyed
/// correctly; the repair names exactly the components whose compiled
/// state (rule tables, tape values, stage slots) is stale, they are marked
/// dirty and the next pass re-solves them. The pool executor reads its
/// edges from the occurrence index, so there is no scheduling DAG to
/// patch. Atom ids are stable throughout, so the previous model always
/// carries over.
///
/// Solved components are memoized per component (`solver::ComponentMemo`)
/// and the two directions compose: a delta invalidates exactly its dirty
/// components, and the next query re-solves only `down-cone(query) ∩
/// stale` — see the class comment in solver/component_memo.h for the
/// (lazy, change-pruned) invalidation discipline, and docs/serving.md for
/// the staleness contract.
class IncrementalSolver {
 public:
  /// Takes ownership of `gp`. Ground deltas — facts via
  /// `Assert`/`Retract`, arbitrary ground rules via
  /// `AssertRule`/`RetractRule` — mutate this program in place; deltas do
  /// not re-ground nonground clauses.
  explicit IncrementalSolver(GroundProgram gp, SolverOptions opts = {});

  const GroundProgram& program() const { return gp_; }
  const SolverOptions& options() const { return opts_; }

  /// Asserts the ground fact `fact.`, interning the atom if it was never
  /// registered. Returns true iff the program changed (false: it already
  /// was an enabled fact).
  bool Assert(const Term* fact);

  /// Retracts the fact `fact.` if its unit rule is currently enabled
  /// (whether from the base program or a previous `Assert`). Returns true
  /// iff the program changed. Derived truth survives retraction: only the
  /// unit rule is removed, never other rules deriving the atom.
  bool Retract(const Term* fact);

  /// `Assert`/`Retract` by already-known atom id (the no-hash-lookup fast
  /// path for delta streams over a fixed atom set).
  bool AssertAtom(AtomId atom);
  bool RetractAtom(AtomId atom);

  /// True iff `atom` currently has an enabled unit rule.
  bool HasFact(AtomId atom) const;

  /// True iff rule `r` is enabled (not retracted).
  bool RuleEnabled(RuleId r) const { return RuleEnabledIn(&disabled_, r); }

  /// Asserts an arbitrary ground rule (atom ids of this program; the body
  /// split by sign). Appends it to the program — or re-enables the
  /// identical retracted rule, `AddRule` deduplicates — and repairs the
  /// condensation locally. Returns the rule's id; `*changed` (when
  /// non-null) reports whether the program actually changed (false: the
  /// identical rule was already enabled). Unit rules take the fact path.
  RuleId AssertRule(GroundRule rule, bool* changed = nullptr);

  /// Term-level convenience: interns the (ground) atoms and asserts.
  RuleId AssertRule(const Term* head, std::span<const Term* const> pos,
                    std::span<const Term* const> neg,
                    bool* changed = nullptr);

  /// Retracts rule `r` — any rule, from the base program or a previous
  /// `AssertRule` — via the disabled mask; indexes never shrink. The
  /// head's component is re-condensed if the rule carried intra-component
  /// edges (it may split). Returns true iff the rule was enabled.
  bool RetractRule(RuleId r);

  /// The live condensation, or null before the first solve/repair forced
  /// its construction. Test and diagnostics surface.
  const AtomDependencyGraph* graph() const {
    return cond_ == nullptr ? nullptr : &cond_->graph();
  }
  /// Dynamic-SCC repair counters (null like `graph()`).
  const DynamicCondensation::Stats* condensation_stats() const {
    return cond_ == nullptr ? nullptr : &cond_->stats();
  }

  /// The well-founded model of the current program. Solves from scratch on
  /// first call, incrementally (affected up-cone only) after deltas, and
  /// returns the cache verbatim when nothing changed.
  ///
  /// With `SolverOptions::compute_levels`, the returned model also carries
  /// the V_P stage levels, maintained across deltas: each re-solved
  /// component reconstructs its stages right after its values (so only the
  /// re-solved up-cone pays), and the change pruning compares *stages as
  /// well as values* — a delta that moves an atom's stage without flipping
  /// its truth still re-solves dependents, so maintained levels stay
  /// atom-for-atom equal to a from-scratch leveled solve.
  const WfsModel& Model();

  /// Well-founded value of a ground atom in `Model()` (unregistered atoms
  /// are false — they have no derivation).
  TruthValue ValueOf(const Term* ground_atom);

  /// What one goal-directed query answered and what it cost.
  struct QueryAnswer {
    TruthValue value = TruthValue::kUndefined;
    /// How the cone pass ended. Anything but `kCompleted` means a
    /// cancellation checkpoint stopped the pass before the query atom's
    /// cone finalized: `value`/stages are then the pre-abort tape values,
    /// not necessarily current, and the unfinished cone members stay
    /// stale for the next query or `Model()` to settle (the abort
    /// protocol — see docs/serving.md).
    SolveOutcome outcome = SolveOutcome::kCompleted;
    /// V_P stage of the answering literal (Def. 2.4), 0 when the atom is
    /// undefined or the solver runs without `compute_levels`.
    uint32_t true_stage = 0;
    uint32_t false_stage = 0;
    /// Components in the query atom's down-cone (0 on the all-valid fast
    /// path, which answers without walking the cone).
    uint32_t cone_components = 0;
    /// Atoms across the cone's components.
    uint64_t cone_atoms = 0;
    /// Cone members that had to (re-)solve — stale or never solved.
    uint32_t resolved_components = 0;
    /// Cone members served verbatim from the component memo.
    uint32_t memo_hits = 0;
  };

  /// Goal-directed (down-cone) well-founded value of `atom`: walks the
  /// atoms/components the query's truth can depend on — the mirror image
  /// of the delta path's up-cone — and runs the cone pass (see the class
  /// comment) seeded with the cone members that are stale or were never
  /// solved; everything else is served from the per-component memo.
  /// Values (and stages, under `compute_levels`) are bit-identical to a
  /// full `Model()` solve restricted to the cone, at any thread count.
  ///
  /// Composition with deltas: `Assert`/`Retract`/`AssertRule`/
  /// `RetractRule` invalidate exactly the components whose rule set
  /// changed; a query then re-solves `down-cone(atom) ∩ stale`, and a
  /// re-solve whose values move invalidates its direct dependents in
  /// turn (change-pruned staleness propagation — see
  /// solver/component_memo.h). When every component is valid (steady
  /// query traffic, no deltas), the query is a pure tape lookup.
  ///
  /// Does not compute the full model and leaves components outside the
  /// cone untouched; a later `Model()` call settles everything still
  /// stale. Both orders are exact — queries and full solves can
  /// interleave freely with deltas.
  QueryAnswer QueryAtom(AtomId atom);

  /// Term-level convenience; unregistered atoms are false at stage 1
  /// (they have no derivation — no solving needed).
  QueryAnswer QueryAtom(const Term* ground_atom);

  /// Drops every memoized component result (and the cached full-model
  /// flag): the next `QueryAtom` pays a cold cone solve, the next
  /// `Model()` a full solve, both against the *retained* program and
  /// condensation. The serving layer's cache-drop lever; also what the
  /// query benches use to measure cold-cone latency.
  void InvalidateMemo();

  /// Cancellation plumbing, live between passes: every solve entry
  /// (`Model`, `QueryAtom`) re-reads these options, so a deadline or
  /// budget set here governs the *next* pass (and a cancelled
  /// `SolverOptions::cancel` token stops it at its first checkpoint). To
  /// resume after an abort, clear the stop condition
  /// (`CancelToken::Reset`, `SetDeadlineNs(0)`, ...) and
  /// call `Model()`/`QueryAtom` again — exactly the still-stale
  /// components re-solve (see `WfsModel::outcome`).
  void SetDeadlineNs(uint64_t deadline_ns) { opts_.deadline_ns = deadline_ns; }
  void SetStepBudget(uint64_t step_budget) { opts_.step_budget = step_budget; }
  void SetFaultInjector(FaultInjector* fault) { opts_.fault = fault; }

  /// The per-component query memo (validity, hit/miss counters).
  /// Diagnostics and test surface.
  const solver::ComponentMemo& memo() const { return memo_; }

  // --- Snapshot export hooks (the MVCC serving layer, src/serve/) ---

  /// Read-only views of the primary stores the serving layer versions
  /// into copy-on-write pages: the flat truth tape, the V_P stage tape
  /// (`compute_levels` only), and the per-rule disabled mask. Stable
  /// between passes; a solve pass mutates them in place, so the serving
  /// writer reads them only after its own `Model()` call returns.
  const solver::TruthTape& tape() const { return tape_; }
  const solver::StageTape& stage_tape() const { return stape_; }
  const std::vector<uint8_t>& disabled_mask() const { return disabled_; }

  /// Atoms whose tape/stage entries a pass may have rewritten since the
  /// last `TakeResolveLog`, by atom id (a merge may free a component id,
  /// atom ids never change); `all_atoms` replaces the
  /// list when a from-scratch solve rewrote everything. Conservative by
  /// design — a component re-solved to identical values still logs its
  /// atoms — so "not logged" always means "byte-identical since the last
  /// take". Entries accumulate across aborted passes until taken: a
  /// publish after a resumed pass still covers every atom touched since
  /// the previous publish.
  struct ResolveLog {
    std::vector<AtomId> atoms;
    bool all_atoms = false;
  };

  /// Starts appending to the resolve log. Off by default: the log costs a
  /// push per re-solved atom and only the serving layer consumes it.
  void EnableResolveLog() { resolve_log_enabled_ = true; }

  /// Returns and clears the accumulated log (the serving writer's
  /// dirty-page source, drained once per completed publish).
  ResolveLog TakeResolveLog();

  /// From-scratch masked solve of the current program, including
  /// condensation construction — the exact work a non-incremental caller
  /// would pay per delta. Always sequential: the agreement oracle and
  /// bench baseline. Computes levels iff this solver was constructed with
  /// `compute_levels`, so it baselines the same work `Model()` maintains.
  WfsModel SolveFresh(SolverDiagnostics* diag = nullptr) const;

  const IncrementalStats& stats() const { return stats_; }
  /// Cumulative per-SCC pipeline diagnostics across all solve passes.
  const SolverDiagnostics& diagnostics() const { return diag_; }

  /// Human-readable telemetry dump: the avoided-work stats, the pipeline
  /// diagnostics, the condensation-repair stats, and — when this solver
  /// was constructed with `SolverOptions::telemetry` — the full metrics
  /// registry table (per-delta latency/cone/resolved histograms with
  /// p50/p90/p99 included).
  void DumpTelemetry(std::ostream& os) const;

 private:
  /// Read-only inspection of the private state (tapes, memo, stale set)
  /// by the invariant auditor — `check::AuditSolver` re-derives every
  /// maintained structure from scratch and compares (src/check/audit.h).
  friend class check::SolverAuditor;

  void EnsureGraph();
  void EnsurePool();  ///< the pool executor's workers
  void MarkDirty(AtomId atom);
  /// Sinks a condensation repair into the solver state: memo drops, warm
  /// evictions, and dirty components (by representative atom).
  void ApplyRepair(const CondensationRepair& rep);
  /// Discards warm entries whose key no longer leads a component of the
  /// entry's size (after a recondensation), and re-flags the survivors'
  /// components in `has_warm_`.
  void DropStaleWarm();
  /// Discards every warm entry (a from-scratch solve follows).
  void ClearWarm();
  /// True iff component `c` may own a warm entry (`has_warm_`). Safe on
  /// pool workers.
  bool HasWarm(uint32_t c);
  /// Runs `fn` on component `c`'s warm entry, if any, under `warm_mu_` (so
  /// the entry cannot be discarded meanwhile). Defined in incremental.cc.
  template <typename Fn>
  void WithWarmEntry(uint32_t c, Fn&& fn);
  /// Reports a disabled-mask flip of rule `r` to the warm entry of its
  /// head's component, if any (`WarmComponent::RecordRuleFlip`).
  void RecordRuleFlip(RuleId r);
  /// Syncs `cancel_ctx_` from the current options; null when detached
  /// (every checkpoint downstream then stays a pointer test). A fault
  /// trip persists across passes only through a caller token; without
  /// one it aborts just its own pass.
  CancelCtx* ConfigureCancel();
  /// `ConfigureCancel` plus `CancelCtx::BeginPass` — the solve entries.
  CancelCtx* BeginCancelPass();
  /// Pass epilogue: cancel telemetry (aborts, checkpoints, resume cost)
  /// and the abort/resume counters. `resolved` is the pass's re-solved
  /// component count — the cost a resume pays.
  void NoteOutcome(CancelCtx* cancel, uint64_t resolved);
  /// Grows the tape, stage tape and model mirror to the current atom
  /// count: atoms interned by deltas since the last pass enter undefined,
  /// and the carried-over entries keep their values (atom ids are stable).
  void GrowTapes();
  /// The one copy of the per-component delta step of the cone pass:
  /// snapshot old values/stages, re-solve through `SolveComponent` —
  /// *warm* when the component is eligible for persisted evaluation state
  /// (solver/warm_component.h), cold otherwise — and invoke `flag(head_comp)`
  /// for every out-of-component rule head whose input moved. Returns
  /// whether anything moved; an abort restores the snapshot verbatim and
  /// sets `*aborted`. Defined in incremental.cc (all instantiations live
  /// there). `diag` is per-caller (per-worker on the pool executor).
  template <typename FlagFn>
  bool ResolveComponentDelta(uint32_t c, solver::StageTape* stages,
                             std::vector<TruthValue>* old_vals,
                             std::vector<uint32_t>* old_stages,
                             SolverDiagnostics* diag, CancelCtx* cancel,
                             bool* aborted, FlagFn&& flag);
  /// Warm half of `ResolveComponentDelta`, non-template so it compiles
  /// once: runs an `Eligible` component's step through its persisted
  /// `WarmComponent` (resumed when `BindingValid`, otherwise replaced by a
  /// fresh entry), discarding the entry on any abort or invalid binding.
  /// Returns the step's outcome like `SolveComponent`.
  bool SolveWarmComponent(uint32_t c, solver::StageTape* stages,
                          SolverDiagnostics* diag, CancelCtx* cancel);
  /// Discards component `c`'s warm entry, keyed by `rep`, counting a cold
  /// fallback.
  void DropWarm(uint32_t c, AtomId rep, SolverDiagnostics* diag);
  /// Moves `dirty_` (fact-delta atoms) into memo invalidations + the
  /// pending stale set, so query and model passes see one uniform
  /// "stale components" representation. Requires the graph.
  void FoldDirtyIntoPending();

  /// What one cone pass did, for the callers' stats and telemetry.
  struct ConePassCounts {
    uint64_t seeds = 0;           ///< distinct seed components
    uint64_t scheduled = 0;       ///< inline: re-solved; pool: members
    uint64_t resolved = 0;        ///< components re-solved and finalized
    uint64_t resolved_atoms = 0;  ///< atoms across those components
  };
  /// The cone pass (see the class comment). Seeds are `cone_.seeds`;
  /// `bounded` makes `cone_.members` the member set (the down-cone),
  /// otherwise every component is a member (the up-cone). Re-solves the
  /// seeds and every flagged member in dependency order, marks each one
  /// memo-valid and mirrors it, invalidates and queues flagged
  /// non-members, and — when a checkpoint stops the pass — invalidates
  /// and queues every component still owed. Accounts
  /// `components_resolved` and `cone_cutoffs`; leaves `cone_` zeroed.
  ConePassCounts RunConePass(bool bounded, CancelCtx* cancel);
  /// Invalidates `comp` in the memo and queues it, by stable
  /// representative atom, for a later pass.
  void QueueStale(uint32_t comp);
  /// Solves the stale part of `atom`'s down-cone through `RunConePass`.
  /// Fills `out`'s cost fields.
  void SolveDownCone(AtomId atom, QueryAnswer* out, CancelCtx* cancel);
  /// Copies the tape values of `comp`'s atoms into the `model_` mirror.
  void SyncMirror(uint32_t comp);
  /// Mirrors the cumulative stats/diagnostics into registry gauges after a
  /// solve pass. No-op without a telemetry sink.
  void PublishTelemetry();

  GroundProgram gp_;
  SolverOptions opts_;
  unsigned threads_;               ///< resolved worker count
  std::vector<uint8_t> disabled_;  ///< per RuleId; 1 = retracted
  std::unique_ptr<DynamicCondensation> cond_;  ///< live condensation
  std::unique_ptr<WorkStealingPool> pool_;     ///< parallel path only

  /// Primary truth store, persistent across deltas: the per-SCC pipeline
  /// reads and writes this flat tape; `model_` is the bit-packed mirror
  /// served to callers, re-synced only for re-solved components.
  solver::TruthTape tape_;
  /// Primary V_P stage store (`compute_levels` only), persistent like
  /// `tape_` and mirrored into `model_.true_stage`/`false_stage` per
  /// re-solved component by the same `SyncMirror`.
  solver::StageTape stape_;
  WfsModel model_;
  bool solved_ = false;
  std::vector<AtomId> dirty_;  ///< atoms whose fact set changed

  /// Persistent checkpoint context, re-synced from `opts_` at every pass
  /// entry (so the Set* mutators above take effect without rebuilds).
  CancelCtx cancel_ctx_;
  /// The previous pass aborted — the next completed pass is a resume
  /// (its re-solved-component count is the recovery cost telemetry).
  bool last_pass_aborted_ = false;

  /// Persisted intra-component evaluation state for the large recursive
  /// components (`WarmComponent::Eligible`), keyed by the component's
  /// representative atom (`Atoms(c)[0]`, which a split or merge may
  /// change). Entries are created on a
  /// component's first delta re-solve, reused while `BindingValid`, and
  /// discarded on aborts, invalid bindings, recondensations touching
  /// them, full solves, and `InvalidateMemo`. The mutex guards the map
  /// and the entries' lifetime: workers of a parallel pass re-solve
  /// disjoint components, so each `WarmComponent` is solved only by
  /// whichever worker owns its component this pass, while the workers
  /// re-solving lower components record drift into it under this mutex
  /// (and the entry's own drift lock).
  std::unordered_map<AtomId, std::unique_ptr<solver::WarmComponent>> warm_;
  std::mutex warm_mu_;
  /// Per component id: 1 iff it may own a warm entry. A moved atom with no
  /// warm dependent pays a byte load here instead of a locked map lookup.
  /// Set by the worker that stores an entry and cleared by the one that
  /// drops it (relaxed `atomic_ref`: a recorder may read it meanwhile);
  /// rebuilt by `DropStaleWarm`. A stale 1 costs one lookup; an entry is
  /// never left unflagged.
  std::vector<uint8_t> has_warm_;

  /// Per-component query memo: which components' tape values are final
  /// for the current program. Sized/repaired alongside the condensation.
  solver::ComponentMemo memo_;
  /// Stale components awaiting re-solve, as representative atoms
  /// (`Atoms(c)[0]` — a later merge may free the component's id, atom ids
  /// never change). Fed by deltas (via FoldDirtyIntoPending) and by
  /// query passes that changed values out-of-cone dependents must see;
  /// consumed by both `Model()` (whole set) and `QueryAtom` (cone ∩ set).
  std::vector<AtomId> stale_reps_;
  /// Atoms whose tape entries passes may have rewritten since the last
  /// `TakeResolveLog` (appended by `SyncMirror`; see the public
  /// `ResolveLog` contract). Only populated after `EnableResolveLog`.
  ResolveLog resolve_log_;
  bool resolve_log_enabled_ = false;
  /// Scratch of `RunConePass`, persistent across passes and all-zero
  /// between them (a pass clears only the entries it touched), so a small
  /// pass never pays Theta(component_count) re-zeroing.
  struct ConeScratch {
    /// The pass's seeds; the inline executor turns them into its min-heap.
    std::vector<uint32_t> seeds;
    /// The listed member set: the down-cone in discovery order, or the
    /// up-cone's reachability when the pool executor runs.
    std::vector<uint32_t> members;
    /// Per component id: rank in `members` + 1; 0 = not listed.
    std::vector<uint32_t> slot;
    /// Per component id: owed a re-solve (seeded or flagged) and not yet
    /// finalized; after the pass, the dedupe mark of queued non-members.
    std::vector<uint8_t> owed;
    /// Grows the per-component arrays to the id bound (zero-filled, like
    /// every entry between passes).
    void Fit(uint32_t id_bound) {
      if (owed.size() >= id_bound) return;
      owed.resize(id_bound, 0);
      slot.resize(id_bound, 0);
    }
  };
  ConeScratch cone_;

  IncrementalStats stats_;
  SolverDiagnostics diag_;

  /// Registry channels recorded by the solve passes, interned once at
  /// construction (the registry's look-up-once contract: a registry map
  /// lookup is mutexed, and a streaming delta publishes ~40 values, which
  /// would otherwise cost multiples of the solve itself at sub-microsecond
  /// latencies). All null/empty when `opts_.telemetry` is null — the hot
  /// paths guard on the sink pointer.
  struct TelemetryChannels {
    obs::Histogram* delta_latency_us = nullptr;
    obs::Histogram* dirty_components = nullptr;
    obs::Histogram* cone_components = nullptr;
    obs::Histogram* resolved_components = nullptr;
    obs::Histogram* resolved_atoms = nullptr;
    obs::Histogram* window_components = nullptr;
    obs::Histogram* full_latency_us = nullptr;
    SolverDiagnostics::Channels diag;
    /// One gauge per `GaugeSources()` row, in row order.
    std::vector<obs::Gauge*> gauges;
    // Query-mode channels (the goal-directed serving surface).
    obs::Histogram* query_latency_us = nullptr;
    obs::Histogram* query_cone_components = nullptr;
    obs::Histogram* query_cone_atoms = nullptr;
    obs::Histogram* query_resolved_components = nullptr;
    obs::Histogram* query_memo_hits = nullptr;
    // Cancellation channels: abort counts, checkpoint volume, and what a
    // resume pass paid (re-solved components) to finish the interrupted
    // work.
    obs::Counter* cancel_aborts = nullptr;
    obs::Counter* cancel_deadline_exceeded = nullptr;
    obs::Counter* cancel_resumes = nullptr;
    obs::Counter* cancel_checkpoints = nullptr;
    obs::Histogram* cancel_resume_components = nullptr;
    // Warm-interior channels (intra-component incremental evaluation):
    // how much of a component each seeded flood actually touched (per
    // delta pass), and how narrow the Pearce–Kelly affected region stayed
    // (per cycle-closing recondensation).
    obs::Histogram* interior_seeded_flood_atoms = nullptr;
    obs::Histogram* interior_pk_region_components = nullptr;
  };
  TelemetryChannels tele_;

  /// One gauge `PublishTelemetry` sets after every pass: its metric name
  /// and the solver state it mirrors.
  struct GaugeSource {
    const char* name;
    int64_t (*read)(const IncrementalSolver&);
  };
  /// The gauge table, interned into `tele_.gauges` at construction.
  static std::span<const GaugeSource> GaugeSources();
};

}  // namespace gsls

#endif  // GSLS_SOLVER_INCREMENTAL_H_
