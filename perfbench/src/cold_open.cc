// cold_open: one client, sequential, solver threads 1. Each operation
// takes a program's text through ParseProgram -> the steps of Session::Open
// -> a full model via SnapshotNow -> a few point queries, on a fresh
// TermStore. The seeded list mixes reach-neg, random games, grids, forests
// and random propositional programs; `lang` and `ground` do nearly all of
// the work.

#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ground/grounder.h"
#include "game_setup.h"
#include "inputs.h"
#include "lang/parser.h"
#include "serve/session.h"
#include "solver/solver.h"
#include "wfs/wfs.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gsls::GroundProgram;
using gsls::IncrementalSolver;
using gsls::Program;
using gsls::Result;
using gsls::Session;
using gsls::SessionAnswer;
using gsls::SessionOptions;
using gsls::Term;
using gsls::TermStore;
using gsls::TruthValue;

SessionOptions ColdOptions() {
  SessionOptions opts;
  opts.solver.num_threads = 1;
  opts.compute_levels = true;
  return opts;
}

/// The expected model of one program, from `ComputeWfsAlternating` on its
/// relevant grounding: values keyed by the atom term's structural hash,
/// which is identical across term stores that parsed the same text.
struct Oracle {
  bool ok = false;
  size_t atoms = 0;
  std::unordered_map<uint64_t, TruthValue> by_hash;
  std::vector<TruthValue> queries;
};

Oracle BuildOracle(const ColdProgram& p) {
  Oracle o;
  TermStore store;
  Result<Program> prog = gsls::ParseProgram(store, p.text);
  if (!prog.ok()) return o;
  Result<GroundProgram> gp = gsls::GroundRelevant(*prog, {});
  if (!gp.ok()) return o;
  const gsls::WfsModel m = gsls::ComputeWfsAlternating(*gp);
  o.atoms = gp->atom_count();
  for (gsls::AtomId a = 0; a < o.atoms; ++a) {
    if (!o.by_hash.emplace(gp->AtomTerm(a)->hash(), m.Value(a)).second) {
      return o;  // hash collision: this oracle cannot check
    }
  }
  for (const std::string& q : p.queries) {
    Result<const Term*> t = gsls::ParseTerm(store, q);
    if (!t.ok()) return o;
    std::optional<gsls::AtomId> id = gp->FindAtom(*t);
    o.queries.push_back(id.has_value() ? m.Value(*id) : TruthValue::kFalse);
  }
  o.ok = true;
  return o;
}

/// Side measurements of one program of the list, on its own grounding.
SideCosts MeasureProgram(const ColdProgram& p) {
  TermStore store;
  Result<Program> prog = gsls::ParseProgram(store, p.text);
  if (!prog.ok()) return {};
  Result<GroundProgram> gp = gsls::GroundRelevant(*prog, {});
  if (!gp.ok()) return {};
  return MeasureSide(*gp);
}

/// Samples and counters of one measured phase.
struct Phase {
  std::vector<double> open_ns;
  std::vector<double> query_ns;
  uint64_t op_ns = 0;
  uint64_t parsed_bytes = 0;
  uint64_t grounded_rules = 0;
  uint64_t queries = 0;
  uint64_t fastpaths = 0;
  uint64_t memo_hits = 0;
  uint64_t resolved = 0;
  OpTally tally;
};

/// One cold open. It makes the calls `Session::Open` makes one layer at a
/// time (`GroundRelevant`, solver construction + `Adopt`), then the first
/// `Model`, `SnapshotNow` and the queries, each in its own span; traced,
/// the side-measured condensation is carved out of the first model.
/// Returns false when any check failed; `oracle` null skips the checks.
bool ColdOp(const ColdProgram& p, const Oracle* oracle, Tracer& tracer,
            const SideCosts* side, Phase* ph) {
  bool ok = true;
  TermStore store;
  std::shared_ptr<const gsls::serve::Snapshot> snap;
  std::vector<SessionAnswer> answers;
  std::unique_ptr<Session> session;
  const uint64_t t0 = NowNs();
  {
    Span op(tracer, Site::kOp);
    Result<Program> prog = [&] {
      Span s(tracer, Site::kParseProgram);
      return gsls::ParseProgram(store, p.text);
    }();
    if (!prog.ok()) return false;
    Result<GroundProgram> gp = [&] {
      Span s(tracer, Site::kGroundRelevant);
      return gsls::GroundRelevant(*prog, {});
    }();
    if (!gp.ok()) return false;
    ph->grounded_rules += gp->rule_count();
    {
      Span s(tracer, Site::kAdopt);
      SessionOptions opts = ColdOptions();
      opts.solver.compute_levels = opts.compute_levels;
      session = std::make_unique<Session>(Session::Adopt(
          std::make_unique<IncrementalSolver>(std::move(gp.value()),
                                              opts.solver),
          opts));
    }
    {
      Span s(tracer, Site::kFirstModel);
      const gsls::WfsModel& m = session->solver().Model();
      ok &= m.outcome == gsls::SolveOutcome::kCompleted;
      if (side != nullptr) tracer.Carve(Layer::kAnalysis, side->condense_ns);
    }
    {
      Span s(tracer, Site::kSnapshotNow);
      snap = session->SnapshotNow();
    }
    // A point query arrives as text: parse the atom, then ask.
    for (const std::string& q : p.queries) {
      const uint64_t q0 = NowNs();
      Result<const Term*> t = [&] {
        Span s(tracer, Site::kParseTerm);
        return gsls::ParseTerm(store, q);
      }();
      if (!t.ok()) return false;
      {
        Span s(tracer, Site::kQuery);
        answers.push_back(session->Query(*t));
      }
      ph->query_ns.push_back(static_cast<double>(NowNs() - q0));
    }
  }
  const uint64_t dt = NowNs() - t0;
  ph->open_ns.push_back(static_cast<double>(dt));
  ph->op_ns += dt;
  ph->parsed_bytes += p.text.size();
  const gsls::IncrementalStats& st = session->solver().stats();
  ph->queries += st.queries;
  ph->fastpaths += st.query_fastpaths;

  for (size_t i = 0; i < answers.size(); ++i) {
    const SessionAnswer& a = answers[i];
    ph->memo_hits += a.memo_hits;
    ph->resolved += a.resolved_components;
    ok &= a.outcome == gsls::SolveOutcome::kCompleted &&
          a.status != gsls::GoalStatus::kUnknown;
    if (oracle != nullptr) ok &= a.value == oracle->queries[i];
  }
  if (oracle != nullptr) {
    ok &= oracle->ok && snap->atom_count() == oracle->atoms;
    for (gsls::AtomId a = 0; ok && a < snap->atom_count(); ++a) {
      auto it = oracle->by_hash.find(snap->index().terms[a]->hash());
      ok &= it != oracle->by_hash.end() && it->second == snap->Value(a);
    }
  }
  return ok;
}

/// Whole passes over the list until `seconds` of operation time elapsed,
/// so every program is weighted equally in the percentiles.
Phase RunPhase(const std::vector<ColdProgram>& programs,
               const std::vector<Oracle>& oracles,
               const std::vector<SideCosts>* side, Tracer& tracer,
               double seconds) {
  Phase ph;
  const uint64_t budget = static_cast<uint64_t>(seconds * 1e9);
  while (ph.op_ns < budget) {
    for (size_t i = 0; i < programs.size(); ++i) {
      const bool ok = ColdOp(programs[i], &oracles[i], tracer,
                             side == nullptr ? nullptr : &(*side)[i], &ph);
      ph.tally.Record(ok);
    }
  }
  return ph;
}

/// Slices of a measured phase: about five passes over the list each.
constexpr int kSlices = 8;

/// The gated values per slice; a slice is whole passes over the list.
std::vector<SliceMetrics> Slices(const Phase& ph, size_t programs) {
  std::vector<SliceMetrics> out;
  for (auto [b, e] : SliceRanges(ph.open_ns.size(), programs, kSlices)) {
    out.push_back(SliceMetrics{RangePercentile(ph.open_ns, b, e, 50) / 1e3,
                               RangePercentile(ph.open_ns, b, e, 90) / 1e3});
  }
  return out;
}

double MeanNs(const Phase& ph) {
  return ph.open_ns.empty() ? 0.0
                            : static_cast<double>(ph.op_ns) /
                                  static_cast<double>(ph.open_ns.size());
}

}  // namespace

RunOutcome RunColdOpen(const RunConfig& cfg, Report* report) {
  RunOutcome out;
  Tracer untraced(false);

  // Set-up: generate the program list and open every program once (the
  // warm pass), repeated; the median is setup_s.
  std::vector<double> setups;
  std::vector<ColdProgram> programs;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const uint64_t t0 = NowNs();
    programs = ColdOpenPrograms(cfg.seed);
    Phase warm;
    for (const ColdProgram& p : programs) {
      out.tally.Record(ColdOp(p, nullptr, untraced, nullptr, &warm));
    }
    setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  std::vector<Oracle> oracles;
  for (const ColdProgram& p : programs) oracles.push_back(BuildOracle(p));

  Phase ph = RunPhase(programs, oracles, nullptr, untraced, cfg.seconds);
  report->Set("peak_rss_mb", PeakRssMb());
  out.tally.Merge(ph.tally);

  std::printf("workload cold_open: %zu programs, seed %llu\n",
              programs.size(), static_cast<unsigned long long>(cfg.seed));
  report->PrintLatency("open_ms", "ms", 1e-6, ph.open_ns);
  report->PrintLatency("query_us", "us", 1e-3, ph.query_ns);
  const double ops_per_s = static_cast<double>(ph.open_ns.size()) /
                           (static_cast<double>(ph.op_ns) / 1e9);
  report->PrintValue("ops_per_s", ops_per_s, "ops/s", ph.open_ns.size());
  report->Set("setup_s", Median(setups));
  report->SetFromSlices(Slices(ph, programs.size()));

  if (cfg.trace) {
    std::vector<SideCosts> side;
    SideCosts total;
    for (const ColdProgram& p : programs) {
      side.push_back(MeasureProgram(p));
      const SideCosts& c = side.back();
      total.condense_ns += c.condense_ns;
      total.leveled_ns += c.leveled_ns;
      total.unleveled_ns += c.unleveled_ns;
      total.rules += c.rules;
      total.atoms += c.atoms;
      total.components += c.components;
      total.max_component = std::max(total.max_component, c.max_component);
    }
    Tracer tracer(true);
    Phase tp = RunPhase(programs, oracles, &side, tracer, cfg.seconds);
    out.tally.Merge(tp.tally);
    const Ledger ledger = tracer.Collect();

    // Per open: means of the traced phase's spans. Counts: totals over
    // one pass of the list (exact, so a grounder change must keep them).
    const uint64_t n = programs.size();
    report->Set("lang.parse_us", ledger.MeanUs(Site::kParseProgram));
    report->Set("lang.parse_mb_s",
                Ratio(tp.parsed_bytes * 1000,
                      ledger.InclusiveNs(Site::kParseProgram)));
    report->Set("ground.relevant_us", ledger.MeanUs(Site::kGroundRelevant));
    report->Set("ground.us_per_rule",
                Ratio(ledger.InclusiveNs(Site::kGroundRelevant),
                      tp.grounded_rules) / 1e3);
    report->Set("ground.rules", static_cast<double>(total.rules));
    report->Set("ground.atoms", static_cast<double>(total.atoms));
    report->Set("analysis.condense_us", Ratio(total.condense_ns, n) / 1e3);
    report->Set("solver.first_model_us", ledger.MeanUs(Site::kFirstModel));
    report->Set("analysis.condense_share",
                Ratio(total.condense_ns, n) / 1e3 /
                    ledger.MeanUs(Site::kFirstModel));
    report->Set("analysis.components", static_cast<double>(total.components));
    report->Set("analysis.max_component_atoms",
                static_cast<double>(total.max_component));
    report->Set("solver.levels_overhead",
                Ratio(total.leveled_ns, total.unleveled_ns));
    report->Set("solver.query_us", ledger.MeanUs(Site::kQuery));
    report->Set("solver.fastpath_ratio", Ratio(tp.fastpaths, tp.queries));
    report->Set("solver.memo_hit_ratio",
                Ratio(tp.memo_hits, tp.memo_hits + tp.resolved));
    report->Set("serve.snapshot_now_us", ledger.MeanUs(Site::kSnapshotNow));
    report->PrintLedger("cold_open", ledger, MeanNs(tp) / MeanNs(ph));
  }
  return out;
}

}  // namespace perfbench
