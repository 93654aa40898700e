#include "solver/solver.h"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "analysis/atom_dependency_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/component_eval.h"
#include "solver/parallel.h"
#include "util/strings.h"

namespace gsls {

namespace {

/// Worker pools for the one-shot `SolveWfs` path, cached per calling
/// thread and per worker count so repeated parallel solves (benches, the
/// oracle paths) do not pay thread spawn + join on every call. Thread-
/// local keeps concurrent callers from contending for a single pool
/// (`WorkStealingPool::Run` is one-job-at-a-time); idle pools cost a
/// sleeping thread each and are joined at caller-thread exit.
WorkStealingPool& CachedPool(unsigned threads) {
  thread_local std::unordered_map<unsigned,
                                  std::unique_ptr<WorkStealingPool>>
      pools;
  std::unique_ptr<WorkStealingPool>& pool = pools[threads];
  if (pool == nullptr) pool = std::make_unique<WorkStealingPool>(threads);
  return *pool;
}

}  // namespace

// Field-drift guard: a counter added to SolverDiagnostics but not to
// MergeFrom is silently dropped at the parallel barrier, and one missing
// from ToString never surfaces — both have happened to structs like this.
// Any layout change trips this assert; update the expected size together
// with MergeFrom, ToString, and PublishTo below.
static_assert(sizeof(SolverDiagnostics) ==
                  4 * sizeof(uint32_t) + 7 * sizeof(uint64_t) +
                      2 * sizeof(obs::LocalHistogram),
              "SolverDiagnostics changed: update MergeFrom, ToString, "
              "PublishTo, and this assert together");

void SolverDiagnostics::MergeFrom(const SolverDiagnostics& other) {
  component_count += other.component_count;
  max_component_size = std::max(max_component_size, other.max_component_size);
  recursive_components += other.recursive_components;
  negation_components += other.negation_components;
  rules_visited += other.rules_visited;
  unfounded_floods += other.unfounded_floods;
  unfounded_falsified += other.unfounded_falsified;
  alternating_rounds += other.alternating_rounds;
  warm_hits += other.warm_hits;
  warm_cold_fallbacks += other.warm_cold_fallbacks;
  warm_undone_atoms += other.warm_undone_atoms;
  flood_sizes.MergeFrom(other.flood_sizes);
  seeded_flood_sizes.MergeFrom(other.seeded_flood_sizes);
}

SolverDiagnostics::Channels SolverDiagnostics::InternChannels(
    obs::Telemetry* telemetry) {
  Channels ch;
  if (telemetry == nullptr) return ch;
  obs::MetricsRegistry& m = telemetry->metrics;
  ch.components = m.GetGauge("solver.diag.components");
  ch.max_component_size = m.GetGauge("solver.diag.max_component_size");
  ch.recursive_components = m.GetGauge("solver.diag.recursive_components");
  ch.negation_components = m.GetGauge("solver.diag.negation_components");
  ch.rules_visited = m.GetGauge("solver.diag.rules_visited");
  ch.unfounded_floods = m.GetGauge("solver.diag.unfounded_floods");
  ch.unfounded_falsified = m.GetGauge("solver.diag.unfounded_falsified");
  ch.alternating_rounds = m.GetGauge("solver.diag.alternating_rounds");
  ch.flood_size_p50 = m.GetGauge("solver.diag.flood_size_p50");
  ch.flood_size_p99 = m.GetGauge("solver.diag.flood_size_p99");
  ch.warm_hits = m.GetGauge("solver.diag.warm_hits");
  ch.warm_cold_fallbacks = m.GetGauge("solver.diag.warm_cold_fallbacks");
  ch.warm_undone_atoms = m.GetGauge("solver.diag.warm_undone_atoms");
  ch.seeded_flood_p50 = m.GetGauge("solver.diag.seeded_flood_p50");
  ch.seeded_flood_p99 = m.GetGauge("solver.diag.seeded_flood_p99");
  return ch;
}

void SolverDiagnostics::PublishTo(const Channels& ch) const {
  if (ch.components == nullptr) return;
  ch.components->Set(component_count);
  ch.max_component_size->Set(max_component_size);
  ch.recursive_components->Set(recursive_components);
  ch.negation_components->Set(negation_components);
  ch.rules_visited->Set(static_cast<int64_t>(rules_visited));
  ch.unfounded_floods->Set(static_cast<int64_t>(unfounded_floods));
  ch.unfounded_falsified->Set(static_cast<int64_t>(unfounded_falsified));
  ch.alternating_rounds->Set(static_cast<int64_t>(alternating_rounds));
  ch.flood_size_p50->Set(static_cast<int64_t>(flood_sizes.p50()));
  ch.flood_size_p99->Set(static_cast<int64_t>(flood_sizes.p99()));
  ch.warm_hits->Set(static_cast<int64_t>(warm_hits));
  ch.warm_cold_fallbacks->Set(static_cast<int64_t>(warm_cold_fallbacks));
  ch.warm_undone_atoms->Set(static_cast<int64_t>(warm_undone_atoms));
  ch.seeded_flood_p50->Set(static_cast<int64_t>(seeded_flood_sizes.p50()));
  ch.seeded_flood_p99->Set(static_cast<int64_t>(seeded_flood_sizes.p99()));
}

void SolverDiagnostics::PublishTo(obs::Telemetry* telemetry) const {
  if (telemetry == nullptr) return;
  PublishTo(InternChannels(telemetry));
}

std::string SolverDiagnostics::ToString() const {
  return StrCat("components=", component_count,
                " max_size=", max_component_size,
                " recursive=", recursive_components,
                " negation=", negation_components,
                " rules_visited=", rules_visited,
                " floods=", unfounded_floods,
                " falsified=", unfounded_falsified,
                " rounds=", alternating_rounds,
                " warm_hits=", warm_hits,
                " warm_cold_fallbacks=", warm_cold_fallbacks,
                " warm_undone=", warm_undone_atoms,
                " flood_size_p50=", flood_sizes.p50(),
                " flood_size_p99=", flood_sizes.p99(),
                " seeded_flood_p50=", seeded_flood_sizes.p50(),
                " seeded_flood_p99=", seeded_flood_sizes.p99());
}

WfsModel SolveWfs(const GroundProgram& gp, SolverDiagnostics* diag) {
  return SolveWfs(gp, SolverOptions{}, diag);
}

WfsModel SolveWfs(const GroundProgram& gp, const SolverOptions& opts,
                  SolverDiagnostics* diag) {
  GSLS_TRACE_SPAN("solve.wfs", gp.atom_count());
  SolverDiagnostics scratch;
  if (diag == nullptr) diag = &scratch;
  *diag = SolverDiagnostics{};
  AtomDependencyGraph graph(gp);
  unsigned threads = solver::ResolveThreadCount(opts.num_threads);
  // A cancel context exists only when some stop condition is configured;
  // otherwise every checkpoint stays a null-pointer test (the detached
  // path the overhead gates measure).
  CancelCtx ctx(opts.cancel, opts.deadline_ns, opts.step_budget, opts.fault);
  CancelCtx* cancel = ctx.active() ? &ctx : nullptr;
  if (cancel != nullptr) cancel->BeginPass();
  WfsModel out;
  if (threads <= 1) {
    out = solver::SolveAllComponents(gp, graph, /*disabled=*/nullptr,
                                     opts.compute_levels, diag, cancel);
  } else {
    solver::TruthTape values;
    solver::StageTape stages;
    solver::ParallelSolveAllComponentsInto(
        gp, graph, /*disabled=*/nullptr, &CachedPool(threads), &values,
        opts.compute_levels ? &stages : nullptr, diag, cancel);
    out.model = values.ToInterpretation();
    out.iterations = static_cast<uint32_t>(diag->alternating_rounds);
    if (cancel != nullptr) out.outcome = cancel->outcome();
    if (opts.compute_levels) {
      out.true_stage = std::move(stages.true_stage);
      out.false_stage = std::move(stages.false_stage);
      out.has_levels = true;
    }
  }
  diag->PublishTo(opts.telemetry);
  return out;
}

}  // namespace gsls
