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

using D = SolverDiagnostics;

template <auto kField>
uint64_t Read(const D& d) {
  return d.*kField;
}

template <auto kField>
void Sum(D* d, const D& other) {
  d->*kField += other.*kField;
}

void MaxComponentSize(D* d, const D& other) {
  d->max_component_size =
      std::max(d->max_component_size, other.max_component_size);
}

/// The one list of `SolverDiagnostics` counters: `ToString` key, gauge
/// name, reader, and how the parallel barrier folds it. `MergeFrom`,
/// `ToString` and the gauges all walk this table (then `kHistograms`).
struct CounterField {
  const char* key;
  const char* metric;
  uint64_t (*read)(const D&);
  void (*merge)(D*, const D&);
};
constexpr CounterField kCounters[] = {
    {"components", "solver.diag.components", &Read<&D::component_count>,
     &Sum<&D::component_count>},
    {"max_size", "solver.diag.max_component_size",
     &Read<&D::max_component_size>, &MaxComponentSize},
    {"recursive", "solver.diag.recursive_components",
     &Read<&D::recursive_components>, &Sum<&D::recursive_components>},
    {"negation", "solver.diag.negation_components",
     &Read<&D::negation_components>, &Sum<&D::negation_components>},
    {"rules_visited", "solver.diag.rules_visited", &Read<&D::rules_visited>,
     &Sum<&D::rules_visited>},
    {"floods", "solver.diag.unfounded_floods", &Read<&D::unfounded_floods>,
     &Sum<&D::unfounded_floods>},
    {"falsified", "solver.diag.unfounded_falsified",
     &Read<&D::unfounded_falsified>, &Sum<&D::unfounded_falsified>},
    {"rounds", "solver.diag.alternating_rounds",
     &Read<&D::alternating_rounds>, &Sum<&D::alternating_rounds>},
    {"warm_hits", "solver.diag.warm_hits", &Read<&D::warm_hits>,
     &Sum<&D::warm_hits>},
    {"warm_cold_fallbacks", "solver.diag.warm_cold_fallbacks",
     &Read<&D::warm_cold_fallbacks>, &Sum<&D::warm_cold_fallbacks>},
    {"warm_undone", "solver.diag.warm_undone_atoms",
     &Read<&D::warm_undone_atoms>, &Sum<&D::warm_undone_atoms>},
    {"warm_drift", "solver.diag.warm_drift_entries",
     &Read<&D::warm_drift_entries>, &Sum<&D::warm_drift_entries>},
};

/// The histogram fields, merged bucket-wise and reported as `<key>_p50`
/// and `<key>_p99` (gauges `solver.diag.<key>_p50` / `_p99`).
struct HistogramField {
  const char* key;
  obs::LocalHistogram D::*field;
};
constexpr HistogramField kHistograms[] = {
    {"flood_size", &D::flood_sizes},
    {"seeded_flood", &D::seeded_flood_sizes},
};

}  // namespace

void SolverDiagnostics::MergeFrom(const SolverDiagnostics& other) {
  for (const CounterField& f : kCounters) f.merge(this, other);
  for (const HistogramField& h : kHistograms) {
    (this->*h.field).MergeFrom(other.*h.field);
  }
}

SolverDiagnostics::Channels SolverDiagnostics::InternChannels(
    obs::Telemetry* telemetry) {
  Channels ch;
  if (telemetry == nullptr) return ch;
  obs::MetricsRegistry& m = telemetry->metrics;
  for (const CounterField& f : kCounters) ch.push_back(m.GetGauge(f.metric));
  for (const HistogramField& h : kHistograms) {
    ch.push_back(m.GetGauge(StrCat("solver.diag.", h.key, "_p50")));
    ch.push_back(m.GetGauge(StrCat("solver.diag.", h.key, "_p99")));
  }
  return ch;
}

void SolverDiagnostics::PublishTo(const Channels& ch) const {
  if (ch.empty()) return;
  obs::Gauge* const* g = ch.data();
  for (const CounterField& f : kCounters) {
    (*g++)->Set(static_cast<int64_t>(f.read(*this)));
  }
  for (const HistogramField& h : kHistograms) {
    (*g++)->Set(static_cast<int64_t>((this->*h.field).p50()));
    (*g++)->Set(static_cast<int64_t>((this->*h.field).p99()));
  }
}

void SolverDiagnostics::PublishTo(obs::Telemetry* telemetry) const {
  if (telemetry == nullptr) return;
  PublishTo(InternChannels(telemetry));
}

std::string SolverDiagnostics::ToString() const {
  std::string out;
  for (const CounterField& f : kCounters) {
    out += StrCat(out.empty() ? "" : " ", f.key, "=", f.read(*this));
  }
  for (const HistogramField& h : kHistograms) {
    out += StrCat(" ", h.key, "_p50=", (this->*h.field).p50(), " ", h.key,
                  "_p99=", (this->*h.field).p99());
  }
  return out;
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
  solver::TruthTape values;
  solver::StageTape stages;
  solver::StageTape* levels = opts.compute_levels ? &stages : nullptr;
  solver::SolveAllComponents(gp, graph, /*disabled=*/nullptr,
                             threads > 1 ? &CachedPool(threads) : nullptr,
                             &values, levels, diag, cancel);
  WfsModel out =
      solver::ToWfsModel(values, levels, diag->alternating_rounds, cancel);
  diag->PublishTo(opts.telemetry);
  return out;
}

}  // namespace gsls
