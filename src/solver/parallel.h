#ifndef GSLS_SOLVER_PARALLEL_H_
#define GSLS_SOLVER_PARALLEL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "ground/ground_program.h"
#include "util/thread_pool.h"

namespace gsls::solver {

/// Calls `fn(head_component, enabled)` once per rule occurrence of `atom`
/// (positive, then negative) whose head lies outside component `c`,
/// retracted rules included with `enabled` false. The enabled occurrences
/// are the condensation edges leaving `atom`, with multiplicity. This one
/// walk is both the cone pass's change-pruning flag source (which also
/// records moves into warm dependents through the retracted occurrences)
/// and, through `ForEachDependent`, the ready-release schedule's successor
/// source, so the two see the same edges.
template <typename Fn>
void ForEachOccurrence(const GroundProgram& gp,
                       const AtomDependencyGraph& graph,
                       const std::vector<uint8_t>* disabled, AtomId atom,
                       uint32_t c, Fn&& fn) {
  for (RuleId r : gp.PositiveOccurrences(atom)) {
    const uint32_t hc = graph.ComponentOf(gp.rules()[r].head);
    if (hc != c) fn(hc, RuleEnabledIn(disabled, r));
  }
  for (RuleId r : gp.NegativeOccurrences(atom)) {
    const uint32_t hc = graph.ComponentOf(gp.rules()[r].head);
    if (hc != c) fn(hc, RuleEnabledIn(disabled, r));
  }
}

/// `fn(head_component)` for the enabled occurrences of `ForEachOccurrence`:
/// the condensation edges leaving `atom`.
template <typename Fn>
void ForEachDependent(const GroundProgram& gp,
                      const AtomDependencyGraph& graph,
                      const std::vector<uint8_t>* disabled, AtomId atom,
                      uint32_t c, Fn&& fn) {
  ForEachOccurrence(gp, graph, disabled, atom, c,
                    [&](uint32_t hc, bool enabled) {
                      if (enabled) fn(hc);
                    });
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
inline unsigned ResolveThreadCount(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Sentinel for `SlotFn`: the successor takes no part in this schedule.
inline constexpr uint32_t kNoScheduleSlot = UINT32_MAX;

/// The ready-release engine shared by `SolveAllComponents`
/// (solver/component_eval.h) and the incremental cone pass's pool
/// executor — the one copy of the race-sensitive discipline. The schedule
/// holds `count` components: `member(i)` is the one in slot `i`, and
/// `slot(c)` maps a component back to its slot, or to `kNoScheduleSlot`
/// when it is outside the schedule. Successors come straight from the
/// occurrence index (`ForEachSuccessor` over the enabled subprogram), so
/// no scheduling DAG is built or maintained: the engine counts each
/// member's scheduled predecessor *edges* over that same multiset and
/// seeds the members with none. Each worker runs `process(worker, comp)`
/// — returning true iff the component finalized — then walks the
/// component's successors: one outside the schedule is skipped; otherwise
/// its pending counter is decremented once per edge, and the worker that
/// takes it to zero owns the successor — continuing into the first such
/// successor inline (a chain of tiny components runs as a tight loop, no
/// queue round-trip) and queueing the rest.
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
/// transitively to everything downstream.
template <typename MemberFn, typename SlotFn, typename Process>
void RunReadyReleaseSchedule(WorkStealingPool* pool, const GroundProgram& gp,
                             const AtomDependencyGraph& graph,
                             const std::vector<uint8_t>* disabled,
                             uint32_t count, MemberFn&& member,
                             SlotFn&& slot, Process&& process) {
  std::vector<uint32_t> indegree(count, 0);
  for (uint32_t i = 0; i < count; ++i) {
    ForEachSuccessor(gp, graph, disabled, member(i), [&](uint32_t s) {
      const uint32_t ps = slot(s);
      if (ps != kNoScheduleSlot) ++indegree[ps];
    });
  }
  std::unique_ptr<std::atomic<uint32_t>[]> pending(
      new std::atomic<uint32_t>[count]);
  std::vector<uint32_t> seeds;
  for (uint32_t i = 0; i < count; ++i) {
    pending[i].store(indegree[i], std::memory_order_relaxed);
    if (indegree[i] == 0) seeds.push_back(member(i));
  }
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

}  // namespace gsls::solver

#endif  // GSLS_SOLVER_PARALLEL_H_
