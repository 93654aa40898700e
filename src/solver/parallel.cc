#include "solver/parallel.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "obs/trace.h"
#include "solver/component_eval.h"

namespace gsls::solver {

unsigned ResolveThreadCount(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

/// One worker's private diagnostics, padded so neighbouring workers'
/// counter increments never share a cache line.
struct alignas(64) WorkerDiag {
  SolverDiagnostics diag;
};

}  // namespace

void ParallelSolveAllComponentsInto(const GroundProgram& gp,
                                    const AtomDependencyGraph& graph,
                                    const std::vector<uint8_t>* disabled,
                                    WorkStealingPool* pool, TruthTape* values,
                                    StageTape* stages, SolverDiagnostics* diag,
                                    CancelCtx* cancel,
                                    std::vector<uint8_t>* solved) {
  const uint32_t ncomp = graph.component_count();
  GSLS_TRACE_SPAN("solve.parallel", ncomp);
  // The lazy occurrence index must exist before workers read it
  // concurrently.
  gp.EnsureOccurrenceIndex();
  values->Assign(gp.atom_count());
  if (stages != nullptr) stages->Assign(gp.atom_count());

  std::unique_ptr<std::atomic<uint32_t>[]> pending(
      new std::atomic<uint32_t>[ncomp]);
  std::vector<uint32_t> indegree(ncomp, 0);
  for (uint32_t c = 0; c < ncomp; ++c) {
    ForEachSuccessor(gp, graph, disabled, c,
                     [&](uint32_t s) { ++indegree[s]; });
  }
  std::vector<uint32_t> seeds;
  for (uint32_t c = 0; c < ncomp; ++c) {
    pending[c].store(indegree[c], std::memory_order_relaxed);
    if (indegree[c] == 0) seeds.push_back(c);
  }

  if (solved != nullptr) solved->assign(ncomp, 0);
  std::vector<WorkerDiag> worker_diags(pool->size());
  RunReadyReleaseSchedule(
      pool, gp, graph, disabled, seeds, pending.get(),
      [&](unsigned worker, uint32_t c) {
        SolverDiagnostics& wd = worker_diags[worker].diag;
        wd.max_component_size =
            std::max(wd.max_component_size,
                     static_cast<uint32_t>(graph.Atoms(c).size()));
        if (!SolveComponent(gp, graph, c, disabled, values, stages, &wd,
                            cancel)) {
          return false;
        }
        if (solved != nullptr) (*solved)[c] = 1;
        return true;
      },
      [](uint32_t s) { return s; });

  for (const WorkerDiag& wd : worker_diags) diag->MergeFrom(wd.diag);
  diag->component_count = ncomp;
}

}  // namespace gsls::solver
