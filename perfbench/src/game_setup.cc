#include "game_setup.h"

#include <algorithm>
#include <utility>

#include "analysis/atom_dependency_graph.h"
#include "ground/grounder.h"
#include "solver/solver.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using gsls::GroundProgram;
using gsls::Program;
using gsls::Result;
using gsls::Session;

SideCosts MeasureSide(const GroundProgram& gp) {
  SideCosts c;
  c.rules = gp.rule_count();
  c.atoms = gp.atom_count();
  uint64_t t0 = NowNs();
  {
    const gsls::AtomDependencyGraph dg(gp);
    c.condense_ns = NowNs() - t0;
    c.components = dg.component_count();
    for (uint32_t i = 0; i < dg.component_count(); ++i) {
      c.max_component = std::max<uint64_t>(c.max_component, dg.Atoms(i).size());
    }
  }
  gsls::SolverOptions opts;
  opts.compute_levels = true;
  t0 = NowNs();
  gsls::SolveWfs(gp, opts);
  c.leveled_ns = NowNs() - t0;
  opts.compute_levels = false;
  t0 = NowNs();
  gsls::SolveWfs(gp, opts);
  c.unleveled_ns = NowNs() - t0;
  return c;
}

OpenedGame OpenGame(const std::string& text, const gsls::SessionOptions& opts,
                    SetupLayers* layers) {
  OpenedGame g;
  g.store = std::make_unique<gsls::TermStore>();
  SetupLayers timed;
  uint64_t t0 = NowNs();
  Result<Program> prog = gsls::ParseProgram(*g.store, text);
  if (!prog.ok()) return g;
  timed.parse_ns = NowNs() - t0;
  timed.bytes = text.size();
  t0 = NowNs();
  Result<GroundProgram> gp = gsls::GroundRelevant(*prog, opts.grounding);
  timed.ground_ns = NowNs() - t0;
  if (!gp.ok()) return g;

  gsls::SolverOptions sopts = opts.solver;
  sopts.compute_levels = opts.compute_levels;
  auto solver =
      std::make_unique<gsls::IncrementalSolver>(std::move(gp.value()), sopts);
  t0 = NowNs();
  g.ok = solver->Model().outcome == gsls::SolveOutcome::kCompleted;
  timed.first_model_ns = NowNs() - t0;

  if (layers != nullptr) {
    // Side measurements on the same ground program: after the first
    // model, so they run on equally warm caches, and before a serving
    // writer owns the solver.
    timed.side = MeasureSide(solver->program());
    *layers = timed;
  }
  g.session =
      std::make_unique<Session>(Session::Adopt(std::move(solver), opts));
  return g;
}

OpenedGame SetUp(GameProgram (*make)(uint64_t), uint64_t seed,
                 const gsls::SessionOptions& opts, bool layered,
                 GameProgram* program, std::vector<double>* setup_s,
                 SetupLayers* layers) {
  OpenedGame g;
  for (int r = 0; r < kSetupRepeats; ++r) {
    g.session.reset();  // the previous session is gone before the next
    g.store.reset();
    const uint64_t t0 = NowNs();
    *program = make(seed);
    g = OpenGame(program->text, opts, nullptr);
    setup_s->push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!g.ok) return g;
  }
  if (layered) {
    g.session.reset();
    g.store.reset();
    g = OpenGame(program->text, opts, layers);
  }
  return g;
}

void ReportSetupLayers(const SetupLayers& l, Report* report) {
  const SideCosts& c = l.side;
  report->Set("lang.parse_us", static_cast<double>(l.parse_ns) / 1e3);
  report->Set("lang.parse_mb_s", Ratio(l.bytes * 1000, l.parse_ns));
  report->Set("ground.relevant_us", static_cast<double>(l.ground_ns) / 1e3);
  report->Set("ground.us_per_rule", Ratio(l.ground_ns, c.rules) / 1e3);
  report->Set("ground.rules", static_cast<double>(c.rules));
  report->Set("ground.atoms", static_cast<double>(c.atoms));
  report->Set("analysis.condense_us", static_cast<double>(c.condense_ns) / 1e3);
  report->Set("analysis.condense_share",
              Ratio(c.condense_ns, l.first_model_ns));
  report->Set("analysis.components", static_cast<double>(c.components));
  report->Set("analysis.max_component_atoms",
              static_cast<double>(c.max_component));
  report->Set("solver.first_model_us",
              static_cast<double>(l.first_model_ns) / 1e3);
  report->Set("solver.levels_overhead", Ratio(c.leveled_ns, c.unleveled_ns));
}

void ReportSolverCounters(const SolverCounters& before,
                          const SolverCounters& after, uint64_t deltas,
                          Report* report) {
  const gsls::IncrementalStats& a = after.stats;
  const gsls::IncrementalStats& b = before.stats;
  const uint64_t resolved = a.components_resolved - b.components_resolved;
  const uint64_t reused = a.components_reused - b.components_reused;
  report->Set("solver.resolved_per_delta", Ratio(resolved, deltas));
  report->Set("solver.reuse_ratio", Ratio(reused, resolved + reused));
  report->Set("solver.cutoff_ratio",
              Ratio(a.cone_cutoffs - b.cone_cutoffs, resolved));
  report->Set("solver.fastpath_ratio",
              Ratio(a.query_fastpaths - b.query_fastpaths,
                    a.queries - b.queries));
  const gsls::SolverDiagnostics& da = after.diag;
  const gsls::SolverDiagnostics& db = before.diag;
  report->Set("solver.rules_visited_per_delta",
              Ratio(da.rules_visited - db.rules_visited, deltas));
  const uint64_t warm = da.warm_hits - db.warm_hits;
  report->Set("solver.warm_hit_ratio",
              Ratio(warm,
                    warm + da.warm_cold_fallbacks - db.warm_cold_fallbacks));
  report->Set("solver.undone_atoms_per_warm_hit",
              Ratio(da.warm_undone_atoms - db.warm_undone_atoms, warm));
}

std::vector<const gsls::Term*> ParseTerms(gsls::TermStore& store,
                                          const std::vector<std::string>& src,
                                          bool* ok) {
  std::vector<const gsls::Term*> out;
  out.reserve(src.size());
  for (const std::string& s : src) {
    Result<const gsls::Term*> t = gsls::ParseTerm(store, s);
    if (!t.ok()) {
      *ok = false;
      return out;
    }
    out.push_back(*t);
  }
  return out;
}

}  // namespace perfbench
