// delta_stream: direct mode, solver threads 2, one closed-loop client on a
// wide program of many small components (chain + grid + forest, ~28k
// atoms, all below the warm-interior threshold). A fixed repeating
// pattern of seeded operations: move-fact toggles and cycle-closing
// ground-rule assert/retract pairs, each followed by a query that reads
// its own write, and plain point queries on uniformly random atoms. The
// front half runs only in set-up and the serving layer not at all.

#include <cstdio>
#include <string>
#include <vector>

#include "check/audit.h"
#include "game_setup.h"
#include "inputs.h"
#include "serve/session.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gsls::Clause;
using gsls::Session;
using gsls::SessionAnswer;
using gsls::Term;

/// Operations between two seeded checkpoints against a fresh solve.
constexpr uint64_t kCheckEvery = 2000;
/// Atoms a checkpoint queries and compares (value and both stages).
constexpr int kCheckAtoms = 16;

struct Inputs {
  std::vector<const Term*> facts;       ///< per wide edge
  std::vector<const Term*> fact_wins;   ///< win(src) per wide edge
  std::vector<uint8_t> present;         ///< per wide edge: fact enabled
  std::vector<Clause> rules;            ///< cycle-closing clauses
  std::vector<gsls::AtomId> atoms;      ///< every registered atom
};

struct Counters {
  SolverCounters solver;
  gsls::DynamicCondensation::Stats cond;

  static Counters Of(const gsls::IncrementalSolver& s) {
    return Counters{{s.stats(), s.diagnostics()}, *s.condensation_stats()};
  }
};

struct OpSample {
  DeltaKind kind;
  double ns;
};

struct Phase {
  std::vector<OpSample> log;     ///< every op, in the order it ran
  std::vector<double> fact_ns;   ///< toggle + own query
  std::vector<double> rule_ns;   ///< assert or retract + own query
  std::vector<double> pair_ns;   ///< one assert/retract pair
  std::vector<double> query_ns;  ///< plain point query
  uint64_t op_ns = 0;
  uint64_t ops = 0;
  uint64_t memo_hits = 0;
  uint64_t resolved = 0;
  OpTally tally;
  Counters before;
  Counters after;
};

bool AnswerOk(const SessionAnswer& a) {
  return a.outcome == gsls::SolveOutcome::kCompleted &&
         a.status != gsls::GoalStatus::kUnknown;
}

/// Queries a seeded sample of atoms and compares value and stages with a
/// from-scratch solve of the current program state. Each compared atom
/// counts as one operation.
void Checkpoint(Session& s, const Inputs& in, gsls::Rng& rng, OpTally* t) {
  const gsls::WfsModel fresh = s.solver().SolveFresh();
  for (int i = 0; i < kCheckAtoms; ++i) {
    const gsls::AtomId a = in.atoms[rng.Uniform(in.atoms.size())];
    const SessionAnswer ans = s.Query(a);
    t->Record(AnswerOk(ans) && ans.value == fresh.Value(a) &&
              fresh.has_levels && ans.true_stage == fresh.true_stage[a] &&
              ans.false_stage == fresh.false_stage[a]);
  }
}

Phase RunPhase(Session& s, Inputs& in, DeltaStream& stream, gsls::Rng& check,
               Tracer& tracer, double seconds) {
  Phase ph;
  ph.before = Counters::Of(s.solver());
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  uint64_t pair_start = 0;
  while (ph.op_ns < budget) {
    const DeltaStep step = stream.Next();
    bool ok = true;
    SessionAnswer ans;
    const uint64_t t0 = NowNs();
    {
      Span op(tracer, Site::kOp);
      switch (step.kind) {
        case DeltaKind::kFactToggle: {
          const size_t e = step.target;
          {
            Span sp(tracer, Site::kApplyFact);
            ok = in.present[e] ? s.Retract(in.facts[e]) : s.Assert(in.facts[e]);
          }
          in.present[e] ^= 1;
          Span sp(tracer, Site::kQuery);
          ans = s.Query(in.fact_wins[e]);
          break;
        }
        case DeltaKind::kRuleAssert:
        case DeltaKind::kRuleRetract: {
          const Clause& rule = in.rules[step.target];
          {
            Span sp(tracer, Site::kApplyRule);
            const uint64_t w0 = s.solver().condensation_stats()->window_ns;
            if (step.kind == DeltaKind::kRuleAssert) {
              bool changed = false;
              ok = s.Assert(rule, &changed).ok() && changed;
            } else {
              ok = s.Retract(rule);
            }
            tracer.Carve(Layer::kAnalysis,
                         s.solver().condensation_stats()->window_ns - w0);
          }
          Span sp(tracer, Site::kQuery);
          ans = s.Query(rule.head);
          break;
        }
        case DeltaKind::kQuery: {
          Span sp(tracer, Site::kQuery);
          ans = s.Query(in.atoms[step.target]);
          break;
        }
      }
    }
    const uint64_t dt = NowNs() - t0;
    ph.log.push_back(OpSample{step.kind, static_cast<double>(dt)});
    ph.op_ns += dt;
    ++ph.ops;
    ph.memo_hits += ans.memo_hits;
    ph.resolved += ans.resolved_components;
    switch (step.kind) {
      case DeltaKind::kFactToggle:
        ph.fact_ns.push_back(static_cast<double>(dt));
        break;
      case DeltaKind::kRuleAssert:
        ph.rule_ns.push_back(static_cast<double>(dt));
        pair_start = dt;
        break;
      case DeltaKind::kRuleRetract:
        ph.rule_ns.push_back(static_cast<double>(dt));
        ph.pair_ns.push_back(static_cast<double>(pair_start + dt));
        break;
      case DeltaKind::kQuery:
        ph.query_ns.push_back(static_cast<double>(dt));
        break;
    }
    ph.tally.Record(ok && AnswerOk(ans));
    if (ph.ops % kCheckEvery == 0) Checkpoint(s, in, check, &ph.tally);
  }
  ph.after = Counters::Of(s.solver());
  return ph;
}

/// Slices of a measured phase: about 3000 ops each.
constexpr int kSlices = 16;

/// The gated values per slice; a slice is whole repeats of the op
/// pattern, so every slice holds the same mix.
std::vector<SliceMetrics> Slices(const Phase& ph) {
  std::vector<SliceMetrics> out;
  for (auto [b, e] : SliceRanges(ph.log.size(), DeltaStream::kPeriod,
                                 kSlices)) {
    std::vector<double> writes;
    for (size_t i = b; i < e; ++i) {
      if (ph.log[i].kind != DeltaKind::kQuery) writes.push_back(ph.log[i].ns);
    }
    out.push_back(SliceMetrics{Percentile(&writes, 50) / 1e3,
                               Percentile(&writes, 90) / 1e3});
  }
  return out;
}

/// End-of-run check: the settled model against a from-scratch solve, atom
/// by atom (values and stages), plus the solver's invariant audit.
uint64_t FinalCheck(Session& s) {
  const gsls::WfsModel& m = s.solver().Model();
  const gsls::WfsModel fresh = s.solver().SolveFresh();
  uint64_t bad = m.outcome == gsls::SolveOutcome::kCompleted ? 0 : 1;
  for (gsls::AtomId a = 0; a < fresh.model.atom_count(); ++a) {
    bad += m.Value(a) != fresh.Value(a) ||
           m.true_stage[a] != fresh.true_stage[a] ||
           m.false_stage[a] != fresh.false_stage[a];
  }
  const gsls::check::AuditReport audit = gsls::check::AuditSolver(s.solver());
  if (!audit.ok()) {
    std::fprintf(stderr, "audit: %s\n", audit.ToString().c_str());
    bad += audit.failures.size();
  }
  return bad;
}

void ReportPhaseLayers(const Phase& ph, const Ledger& ledger, Report* r) {
  const uint64_t rule_ops = ph.rule_ns.size();
  const uint64_t deltas = ph.fact_ns.size() + rule_ops;
  r->Set("solver.apply_us",
         static_cast<double>(ledger.InclusiveNs(Site::kApplyFact) +
                             ledger.InclusiveNs(Site::kApplyRule)) /
             1e3 / static_cast<double>(deltas));
  r->Set("solver.query_us", ledger.MeanUs(Site::kQuery));
  r->Set("solver.memo_hit_ratio",
         Ratio(ph.memo_hits, ph.memo_hits + ph.resolved));
  ReportSolverCounters(ph.before.solver, ph.after.solver, deltas, r);
  const gsls::DynamicCondensation::Stats& ca = ph.after.cond;
  const gsls::DynamicCondensation::Stats& cb = ph.before.cond;
  r->Set("analysis.windows_per_rule_delta",
         Ratio(ca.windows - cb.windows, rule_ops));
  r->Set("analysis.merges", static_cast<double>(ca.merges - cb.merges));
  r->Set("analysis.splits", static_cast<double>(ca.splits - cb.splits));
  r->Set("analysis.pk_regions",
         static_cast<double>(ca.pk_regions - cb.pk_regions));
  r->Set("analysis.window_us_per_rule_delta",
         Ratio(ca.window_ns - cb.window_ns, rule_ops) / 1e3);
}

}  // namespace

RunOutcome RunDeltaStream(const RunConfig& cfg, Report* report) {
  RunOutcome out;
  gsls::SessionOptions opts;
  opts.solver.num_threads = 2;
  opts.compute_levels = true;

  std::vector<double> setups;
  SetupLayers layers;
  GameProgram program;
  OpenedGame g = SetUp(&WideProgram, cfg.seed, opts, cfg.trace, &program,
                       &setups, &layers);
  if (!g.ok) {
    out.tally.Record(false);
    return out;
  }
  Session& s = *g.session;

  Inputs in;
  bool parsed = true;
  std::vector<std::string> facts, wins;
  for (const Edge& e : program.wide_edges) {
    facts.push_back(MoveFact(e));
    wins.push_back(WinAtom(e.src));
  }
  in.facts = ParseTerms(*g.store, facts, &parsed);
  in.fact_wins = ParseTerms(*g.store, wins, &parsed);
  in.present.assign(in.facts.size(), 1);
  for (const Edge& r : program.cycle_rules) {
    gsls::Result<gsls::Program> p = gsls::ParseProgram(*g.store,
                                                       CycleClause(r));
    parsed &= p.ok() && p->size() == 1;
    if (parsed) in.rules.push_back(p->clauses()[0]);
  }
  for (gsls::AtomId a = 0; a < s.solver().program().atom_count(); ++a) {
    in.atoms.push_back(a);
  }
  if (!parsed) {
    out.tally.Record(false);
    return out;
  }

  DeltaStream stream(cfg.seed, in.facts.size(), in.rules.size(),
                     in.atoms.size());
  gsls::Rng check(cfg.seed ^ 0xc4ec4ULL);
  Tracer untraced(false);
  Phase ph = RunPhase(s, in, stream, check, untraced, cfg.seconds);
  // Before the final check's fresh solve and audit.
  report->Set("peak_rss_mb", PeakRssMb());
  out.tally.Merge(ph.tally);

  std::printf("workload delta_stream: %zu atoms, %zu rules, seed %llu\n",
              s.solver().program().atom_count(),
              s.solver().program().rule_count(),
              static_cast<unsigned long long>(cfg.seed));
  report->PrintLatency("fact_us", "us", 1e-3, ph.fact_ns);
  report->PrintLatency("rule_us", "us", 1e-3, ph.rule_ns);
  report->PrintLatency("rule_pair_us", "us", 1e-3, ph.pair_ns);
  report->PrintLatency("query_us", "us", 1e-3, ph.query_ns);
  const double ops_per_s =
      static_cast<double>(ph.ops) / (static_cast<double>(ph.op_ns) / 1e9);
  report->PrintValue("ops_per_s", ops_per_s, "ops/s", ph.ops);

  report->Set("setup_s", Median(setups));
  report->SetFromSlices(Slices(ph));

  if (cfg.trace) {
    ReportSetupLayers(layers, report);
    Tracer tracer(true);
    Phase tp = RunPhase(s, in, stream, check, tracer, cfg.seconds);
    out.tally.Merge(tp.tally);
    const Ledger ledger = tracer.Collect();
    ReportPhaseLayers(tp, ledger, report);
    const double untraced_mean =
        static_cast<double>(ph.op_ns) / static_cast<double>(ph.ops);
    const double traced_mean =
        static_cast<double>(tp.op_ns) / static_cast<double>(tp.ops);
    report->PrintLedger("delta_stream", ledger, traced_mean / untraced_mean);
  }

  out.tally.FailLater(FinalCheck(s));
  return out;
}

}  // namespace perfbench
