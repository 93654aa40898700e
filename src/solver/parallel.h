#ifndef GSLS_SOLVER_PARALLEL_H_
#define GSLS_SOLVER_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "solver/solver.h"
#include "solver/stages.h"
#include "solver/truth_tape.h"
#include "util/thread_pool.h"

namespace gsls::solver {

/// Calls `fn(head_component)` once per enabled rule occurrence of `atom`
/// (positive, then negative) whose head lies outside component `c`: the
/// condensation edges leaving `atom`, with multiplicity. This one walk is
/// both the cone pass's change-pruning flag source and the ready-release
/// schedule's successor source, so the two see the same edges.
template <typename Fn>
void ForEachDependent(const GroundProgram& gp,
                      const AtomDependencyGraph& graph,
                      const std::vector<uint8_t>* disabled, AtomId atom,
                      uint32_t c, Fn&& fn) {
  for (RuleId r : gp.PositiveOccurrences(atom)) {
    if (!RuleEnabledIn(disabled, r)) continue;
    const uint32_t hc = graph.ComponentOf(gp.rules()[r].head);
    if (hc != c) fn(hc);
  }
  for (RuleId r : gp.NegativeOccurrences(atom)) {
    if (!RuleEnabledIn(disabled, r)) continue;
    const uint32_t hc = graph.ComponentOf(gp.rules()[r].head);
    if (hc != c) fn(hc);
  }
}

/// `ForEachDependent` over every atom of component `c`: its successors in
/// the condensation DAG, as a multiset (one entry per rule occurrence).
template <typename Fn>
void ForEachSuccessor(const GroundProgram& gp,
                      const AtomDependencyGraph& graph,
                      const std::vector<uint8_t>* disabled, uint32_t c,
                      Fn&& fn) {
  for (AtomId a : graph.Atoms(c)) {
    ForEachDependent(gp, graph, disabled, a, c, fn);
  }
}

/// Turns a `SolverOptions::num_threads` request into an actual worker
/// count (0 resolves to the hardware concurrency, minimum 1).
unsigned ResolveThreadCount(unsigned requested);

/// Sentinel for `SlotFn`: the successor takes no part in this schedule.
inline constexpr uint32_t kNoScheduleSlot = UINT32_MAX;

/// The ready-release engine shared by `ParallelSolveAllComponentsInto`
/// and the incremental cone pass's pool executor — the one copy of the
/// race-sensitive discipline. Successors come straight from the occurrence
/// index (`ForEachSuccessor` over the enabled subprogram), so no
/// scheduling DAG is built or maintained. Starting from `seeds`
/// (components whose scheduled predecessors are all final), each worker
/// runs `process(worker, comp)` — returning true iff the component
/// finalized — then walks the component's successors: a successor mapping
/// to `kNoScheduleSlot` under `slot` is outside the schedule and skipped;
/// otherwise its `pending[slot(s)]` counter is decremented once per edge,
/// and the worker that takes it to zero owns the successor — continuing
/// into the first such successor inline (a chain of tiny components runs
/// as a tight loop, no queue round-trip) and queueing the rest.
///
/// A false return from `process` (a cancellation abort) releases nothing:
/// the component's successors keep their pending counts and are never
/// scheduled, so the aborted cone simply drains — workers finish the tasks
/// already queued (each of which re-checks the cancel context at its own
/// component boundary and returns false immediately) and the pool's final
/// barrier still closes. The caller reconstructs which components ran from
/// its own bookkeeping, not from the scheduler.
///
/// Memory ordering: `process` writes its component's results with plain
/// stores; the `acq_rel` on the decrement makes every such write visible
/// to whichever worker releases (and later processes) the successor, and
/// transitively to everything downstream. `pending` must start at each
/// scheduled component's count of scheduled predecessor *edges* — counted
/// with `ForEachSuccessor`, the same multiset the release walks. The
/// occurrence index must be built (`EnsureOccurrenceIndex`) before the
/// call: workers read it concurrently.
template <typename Process, typename SlotFn>
void RunReadyReleaseSchedule(WorkStealingPool* pool, const GroundProgram& gp,
                             const AtomDependencyGraph& graph,
                             const std::vector<uint8_t>* disabled,
                             std::span<const uint32_t> seeds,
                             std::atomic<uint32_t>* pending,
                             Process&& process, SlotFn&& slot) {
  pool->Run(seeds, [&](unsigned worker, uint32_t task) {
    constexpr uint32_t kNone = UINT32_MAX;
    for (uint32_t c = task; c != kNone;) {
      if (!process(worker, c)) break;
      uint32_t next = kNone;
      ForEachSuccessor(gp, graph, disabled, c, [&](uint32_t s) {
        uint32_t ps = slot(s);
        if (ps == kNoScheduleSlot) return;
        if (pending[ps].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          if (next == kNone) {
            next = s;
          } else {
            pool->Push(worker, s);
          }
        }
      });
      c = next;
    }
  });
}

/// Parallel SCC-stratified solve: every component solved exactly once by
/// some worker, released to any idle worker the moment its predecessors in
/// the condensation DAG are final. `graph` must be a fresh build (dense
/// ids). Workers write decided values of their components into
/// disjoint bytes of `*values` (re-sized and reset here) — no atom is
/// written by two workers, and a component only reads atoms of components
/// the DAG ordered before it, so plain byte loads/stores plus the
/// release/acquire on the indegree counters are race-free. Each worker
/// accumulates a private `SolverDiagnostics`, merged into `*diag` after
/// the final barrier. The result is atom-for-atom the sequential model
/// (components only ever read final lower values, so schedule order is
/// unobservable).
///
/// With `stages` non-null, each worker also reconstructs its component's
/// V_P stage levels immediately after finalizing its values — the DAG
/// edges cover every rule-body reference, so the lower stages a component
/// reads are final under exactly the ordering that makes its value reads
/// safe, and distinct components write distinct `uint32_t` slots of the
/// tape. The levels are therefore thread-count invariant for the same
/// reason the model is.
///
/// Cancellation: with a non-null `cancel`, workers funnel through the
/// component-boundary checkpoint in `SolveComponent` and an aborting
/// component releases none of its successors, so the schedule drains.
/// `*solved` (when non-null; resized here, one byte per component) records
/// exactly which components finalized this pass — on a completed run it is
/// all-ones; after an abort the unset entries are the components still
/// holding their entry state (the abort invariant), which the incremental
/// caller turns into dirty/stale bookkeeping. The flag bytes are written
/// before the releasing decrement, so they are as race-free as the values.
void ParallelSolveAllComponentsInto(const GroundProgram& gp,
                                    const AtomDependencyGraph& graph,
                                    const std::vector<uint8_t>* disabled,
                                    WorkStealingPool* pool, TruthTape* values,
                                    StageTape* stages, SolverDiagnostics* diag,
                                    CancelCtx* cancel = nullptr,
                                    std::vector<uint8_t>* solved = nullptr);

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_PARALLEL_H_
