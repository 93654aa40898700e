#ifndef GSLS_SOLVER_SOLVER_H_
#define GSLS_SOLVER_SOLVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ground/ground_program.h"
#include "obs/histogram.h"
#include "util/cancel.h"
#include "wfs/wfs.h"

namespace gsls {

namespace obs {
class Gauge;
struct Telemetry;
}  // namespace obs

/// Per-run diagnostics of `SolveWfs`.
///
/// Adding a field? Add its row to the field table in solver.cc:
/// `MergeFrom`, `ToString` and the gauges all walk that one list.
struct SolverDiagnostics {
  uint32_t component_count = 0;      ///< SCCs of the atom dependency graph
  uint32_t max_component_size = 0;   ///< atoms in the largest SCC
  uint32_t recursive_components = 0; ///< SCCs needing fixpoint iteration
  uint32_t negation_components = 0;  ///< SCCs recursing through negation
  uint64_t rules_visited = 0;        ///< compiled rule instances examined
  uint64_t unfounded_floods = 0;     ///< source-loss floods run
  uint64_t unfounded_falsified = 0;  ///< atoms falsified wholesale by floods
  uint64_t alternating_rounds = 0;   ///< component-local truth/unfounded rounds
  /// Warm-interior bookkeeping (solver/warm_component.h): dirty recursive
  /// components re-solved by patching persisted state instead of a cold
  /// compile + `InitSources`, and the times the warm entry had to be
  /// discarded (binding drift, recondensation, abort) and the cold path
  /// taken instead.
  uint64_t warm_hits = 0;
  uint64_t warm_cold_fallbacks = 0;
  /// Trail entries undone across all warm re-solves: the interior dual of
  /// `unfounded_falsified` — how much of a component a delta actually
  /// touched. Bounded by the seeded flood, not the component size.
  uint64_t warm_undone_atoms = 0;
  /// Drift-record entries (mask flips and external moves) read across all
  /// warm re-solves: the footprint a re-solve reconciles, which must track
  /// the delta, not the component's rules plus externals.
  uint64_t warm_drift_entries = 0;
  /// Atoms flooded per source-loss flood (candidate-set sizes): the
  /// distribution behind `unfounded_floods`, accumulated without atomics
  /// like every other field and merged bucket-wise at the barrier. The
  /// p99 here is what the dense-SCC interior work must shrink.
  obs::LocalHistogram flood_sizes;
  /// Flood sizes restricted to warm re-solves — the floods seeded from the
  /// delta's own atoms/rules rather than `InitSources` over the whole
  /// component. Comparing this distribution against `flood_sizes` is the
  /// direct measurement of the intra-component win.
  obs::LocalHistogram seeded_flood_sizes;

  /// Folds another accumulator into this one (sums, except
  /// `max_component_size`). The parallel scheduler gives every worker a
  /// private `SolverDiagnostics` and merges them once at the final
  /// barrier — no racy increments, no atomics on the hot path. Per-
  /// component work is schedule-independent, so the merged totals equal a
  /// sequential run's.
  void MergeFrom(const SolverDiagnostics& other);

  /// The "solver.diag.*" gauges, one per field-table entry, interned once
  /// so a per-delta publish costs relaxed stores instead of registry map
  /// lookups (the lookup path is mutexed and would dominate sub-microsecond
  /// delta solves). Empty when there is no telemetry sink.
  using Channels = std::vector<obs::Gauge*>;
  /// Interns the channels in `telemetry`'s registry (null-safe: returns
  /// empty channels that `PublishTo` treats as a no-op).
  static Channels InternChannels(obs::Telemetry* telemetry);

  /// Mirrors every counter (and the flood-size percentiles) into the
  /// interned gauges — idempotent (gauges are set, not added), so it can
  /// run after every pass with cumulative values.
  void PublishTo(const Channels& ch) const;

  /// One-shot convenience for non-streaming callers (`SolveWfs`): interns
  /// and publishes. Null-safe.
  void PublishTo(obs::Telemetry* telemetry) const;

  std::string ToString() const;
};

/// Tuning knobs of the SCC-stratified solve, plumbed down from
/// `EngineOptions::solver` and `TabledOptions::solver`.
struct SolverOptions {
  /// Worker threads for the per-SCC schedule. `1` (the default) runs the
  /// sequential dependency-order loop, bit-for-bit identical to previous
  /// behavior. `0` means one worker per hardware thread. Anything else
  /// runs a work-stealing pool over the condensation DAG
  /// (solver/parallel.h): components are released the moment their
  /// predecessors are final, and the model is identical regardless of the
  /// schedule.
  unsigned num_threads = 1;
  /// Also reconstruct the V_P stage levels (Def. 2.4) into
  /// `WfsModel::true_stage`/`false_stage`, composed per component from the
  /// SCC schedule (solver/stages.h) right after each component's values
  /// finalize — on the sequential loop, the parallel DAG schedule, and the
  /// incremental up-cone re-solve alike, at any thread count. Off (the
  /// default) costs nothing: no tape is allocated and no per-component
  /// pass runs.
  bool compute_levels = false;
  /// Minimum atom count for a recursive component to keep warm interior
  /// state across deltas (`IncrementalSolver` only; one-shot `SolveWfs`
  /// never warms). Small components re-solve cold faster than the warm
  /// bookkeeping costs, and keeping them cold also keeps the fault
  /// injector's checkpoint numbering stable on the small fault-test
  /// programs. 0 disables warm state entirely. The threshold depends only
  /// on component shape, never on the schedule, so warm/cold decisions are
  /// identical at every thread count.
  uint32_t warm_min_atoms = 64;
  /// Telemetry sink (obs/metrics.h): when non-null, solve passes publish
  /// their diagnostics into its registry and the delta paths of
  /// `IncrementalSolver` record per-delta latency/cone/repair histograms
  /// there. Null (the default) skips every metrics cost — the
  /// instrumentation points guard on this pointer. Scoped tracing
  /// (obs/trace.h) is gated separately and process-globally; both engines
  /// plumb this field through untouched (`EngineOptions::solver`,
  /// `TabledOptions::solver`). Not owned; must outlive the solver.
  obs::Telemetry* telemetry = nullptr;
  /// Cooperative cancellation (util/cancel.h): when non-null, the solve
  /// polls this token at every component boundary and every
  /// `kCancelStride` iterations inside the long loops (lfp propagation,
  /// unfounded floods, recondensation windows, the parallel workers), and
  /// aborts crash-consistently — every component is either fully old or
  /// fully new, and `WfsModel::outcome` / `QueryAnswer::outcome` report
  /// `kCancelled`. Null (the default, with the other cancel fields unset)
  /// keeps the pipeline checkpoint-free: every checkpoint site is then
  /// one null-pointer test. Not owned; must outlive the solver; stays
  /// cancelled until `CancelToken::Reset`.
  CancelToken* cancel = nullptr;
  /// Absolute steady-clock deadline in ns (`SteadyNowNs` /
  /// `DeadlineAfterNs`), honored within one checkpoint interval; the pass
  /// aborts with `kDeadlineExceeded`. 0 (default) = none.
  uint64_t deadline_ns = 0;
  /// Deterministic work budget: maximum cancellation checkpoints per solve
  /// pass, aborting with `kDeadlineExceeded` — the wall-clock-free twin of
  /// `deadline_ns` for reproducible tests. 0 (default) = unlimited.
  uint64_t step_budget = 0;
  /// Deterministic fault injection over the same checkpoints ("trip at
  /// checkpoint k"): the abort-recovery test harness (tests/fault_test.cc).
  /// A trip cancels `cancel` when one is set, so it persists until
  /// `CancelToken::Reset`; without a token it aborts only its own pass.
  /// Null in production. Not owned.
  FaultInjector* fault = nullptr;
};

/// Computes the well-founded model by SCC-stratified evaluation (the
/// Lonc-Truszczyński decomposition): condense the atom-level dependency
/// graph (Tarjan, `AtomDependencyGraph`), then solve components in
/// dependency order, so every negative literal that reaches outside its
/// component is resolved against an already-final value. Non-recursive
/// atoms reduce to one 3-valued evaluation of their rules; positive-only
/// components reduce to a least-fixpoint pass with watched body counters;
/// only components that recurse through negation pay for the
/// component-local alternating fixpoint, driven by a source-pointer
/// unfounded-set detector (smodels/chuffed style, `SourceTracker`).
///
/// Near-linear when components are small — O(atoms + rules) plus the local
/// iteration inside each negative SCC — versus the globally quadratic
/// `ComputeWfs` / `ComputeWfsAlternating` (footnote 5), and returns the
/// identical model. `WfsModel::iterations` reports the total number of
/// component-local alternating rounds.
///
/// For programs that change by fact assertion/retraction, use
/// `IncrementalSolver` (solver/incremental.h) instead of re-running this
/// per delta: it keeps the condensation and the last model, re-solves only
/// the change-pruned up-cone of the delta's components through the same
/// per-SCC pipeline (solver/component_eval.h), and repairs the
/// condensation in place — fact deltas never add dependency edges, and an
/// atom interned by a delta joins as a singleton component.
WfsModel SolveWfs(const GroundProgram& gp, SolverDiagnostics* diag = nullptr);

/// As above with explicit options; `opts.num_threads != 1` schedules the
/// components on a work-stealing pool instead of the sequential loop.
WfsModel SolveWfs(const GroundProgram& gp, const SolverOptions& opts,
                  SolverDiagnostics* diag = nullptr);

}  // namespace gsls

#endif  // GSLS_SOLVER_SOLVER_H_
