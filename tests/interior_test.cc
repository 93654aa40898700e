// Intra-component incremental evaluation (solver/warm_component.h): the
// warm-start path that persists each dirty component's compiled RuleTable,
// source pointers, and decision trail across deltas, re-solving by
// patch + suffix-undo + seeded flood instead of a cold compile +
// InitSources over the whole component.
//
// Coverage: randomized rule churn inside a single giant negation-recursive
// SCC, checked delta-for-delta against a fresh masked solve and the
// independent alternating-fixpoint oracle at 1, 2, and 4 threads with the
// full `AuditSolver` pass (which re-derives the persisted warm state's
// invariants) after every delta; plus the headline flood-narrowing
// regression — a unit-rule toggle in a 10k-atom SCC must seed an
// unfounded flood that is far smaller than the component.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/audit.h"
#include "solver/incremental.h"
#include "solver/solver.h"
#include "solver/warm_component.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;
using testing::RebuildEnabled;

/// win/move game whose move graph is a directed n-cycle plus `chords`
/// random chords per node: strongly connected by construction, so all n
/// win atoms form ONE negation-recursive SCC, and the chords give most
/// positions several alternative moves — the redundancy that keeps a
/// single move-fact toggle from rippling across the whole component.
std::string OneSccGame(Rng& rng, int n, int chords) {
  std::string src;
  src.reserve(static_cast<size_t>(n) * (chords + 2) * 24);
  for (int i = 0; i < n; ++i) {
    src += StrCat("move(n", i, ",n", (i + 1) % n, ").\n");
    for (int c = 0; c < chords; ++c) {
      int j = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
      if (j == i) j = (i + 1) % n;
      src += StrCat("move(n", i, ",n", j, ").\n");
    }
  }
  src += "win(X) :- move(X,Y), not win(Y).\n";
  return src;
}

std::vector<RuleId> NonUnitRules(const GroundProgram& gp) {
  std::vector<RuleId> out;
  for (RuleId r = 0; r < gp.rule_count(); ++r) {
    const RuleView rule = gp.rule(r);
    if (!rule.pos.empty() || !rule.neg.empty()) out.push_back(r);
  }
  return out;
}

std::vector<RuleId> UnitRules(const GroundProgram& gp) {
  std::vector<RuleId> out;
  for (RuleId r = 0; r < gp.rule_count(); ++r) {
    const RuleView rule = gp.rule(r);
    if (rule.pos.empty() && rule.neg.empty()) out.push_back(r);
  }
  return out;
}

void ToggleRule(IncrementalSolver& inc, RuleId r) {
  if (inc.RuleEnabled(r)) {
    inc.RetractRule(r);
  } else {
    inc.AssertRule(inc.program().rule(r));
  }
}

/// One churn sequence inside a single giant negation-recursive SCC at one
/// thread count, with warm-starting forced on (`warm_min_atoms = 2`):
/// every delta is checked against the fresh masked solve, the independent
/// alternating-fixpoint oracle, and the full solver audit — which
/// re-derives the warm entries' counters, source acyclicity, and trail
/// justification against the live tape.
void RunWarmChurn(uint64_t seed, unsigned threads) {
  Rng gen(seed);
  Fixture f(OneSccGame(gen, 90, 2));
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  opts.warm_min_atoms = 2;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();
  std::vector<RuleId> rules = NonUnitRules(inc.program());
  std::vector<RuleId> units = UnitRules(inc.program());
  ASSERT_FALSE(rules.empty());
  ASSERT_FALSE(units.empty());

  Rng rng(seed * 31 + threads);
  for (int d = 0; d < 30; ++d) {
    // Mostly move-fact (unit) toggles — external drift for the win SCC's
    // warm state; game-rule toggles mix in rule death/revival inside it.
    if (rng.Chance(3, 4)) {
      ToggleRule(inc, units[rng.Uniform(units.size())]);
    } else {
      ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    }
    const std::string context =
        StrCat("seed ", seed, " threads ", threads, " delta ", d);
    const WfsModel& got = inc.Model();
    WfsModel fresh = inc.SolveFresh();
    ASSERT_EQ(got.model, fresh.model)
        << context << "\nincremental vs fresh SolveWfs diff:\n"
        << DescribeModelDifference(inc.program(), got.model, fresh.model);
    for (AtomId a = 0; a < inc.program().atom_count(); ++a) {
      ASSERT_EQ(got.true_stage[a], fresh.true_stage[a])
          << context << ": true stage of atom " << a;
      ASSERT_EQ(got.false_stage[a], fresh.false_stage[a])
          << context << ": false stage of atom " << a;
    }
    GroundProgram rebuilt = RebuildEnabled(inc, f.store);
    WfsModel oracle = ComputeWfsAlternating(rebuilt);
    ASSERT_EQ(got.model, oracle.model)
        << context << "\nincremental vs alternating-fixpoint oracle diff:\n"
        << DescribeModelDifference(inc.program(), got.model, oracle.model);
    check::AuditReport report = check::AuditSolver(inc);
    ASSERT_TRUE(report.ok()) << context << "\n" << report.ToString();
  }
  // The sequence must actually have exercised the warm path: the giant
  // SCC is eligible and its binding survives fact toggles.
  EXPECT_GT(inc.diagnostics().warm_hits, 0u) << "threads " << threads;
  check::AuditReport final_report = check::AuditSolver(inc);
  EXPECT_GT(final_report.warm_entries_checked, 0u) << "threads " << threads;
}

TEST(InteriorTest, WarmChurnInGiantSccAgreesEverywhereSequential) {
  RunWarmChurn(11, 1);
}

TEST(InteriorTest, WarmChurnInGiantSccAgreesEverywhereTwoThreads) {
  RunWarmChurn(12, 2);
}

TEST(InteriorTest, WarmChurnInGiantSccAgreesEverywhereFourThreads) {
  RunWarmChurn(13, 4);
}

/// A false head whose falsifying rule stays dead after a delta, but only
/// through a body atom decided after the head, rests on itself: the warm
/// re-solve must undo it. Retracting `move(a, b)` falsifies `win(b)` and
/// makes `win(a)` true; re-asserting it removes the external witness that
/// killed `win(b)`'s rule, which then stays dead only through `win(a)`.
/// Both atoms are undefined in the well-founded model.
TEST(InteriorTest, WarmResolveUndoesFalseHeadWithSelfDependentWitness) {
  Fixture f("move(a, b). move(b, a). win(X) :- move(X, Y), not win(Y).");
  SolverOptions opts;
  opts.warm_min_atoms = 2;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();
  const Term* edge = MustParseTerm(f.store, "move(a, b)");
  ASSERT_TRUE(inc.Retract(edge));
  inc.Model();
  ASSERT_TRUE(inc.Assert(edge));
  const WfsModel& got = inc.Model();
  EXPECT_GT(inc.diagnostics().warm_hits, 0u);
  for (const char* atom : {"win(a)", "win(b)"}) {
    EXPECT_EQ(got.model.Value(*inc.program().FindAtom(
                  MustParseTerm(f.store, atom))),
              TruthValue::kUndefined)
        << atom;
  }
  WfsModel fresh = inc.SolveFresh();
  EXPECT_EQ(got.model, fresh.model)
      << DescribeModelDifference(inc.program(), got.model, fresh.model);
  check::AuditReport report = check::AuditSolver(inc);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

/// Replays one rule-toggle stream, `make_stream(program)`, at 1, 2, and 4
/// threads: the warm/cold dispatch is shape-only and the evaluation
/// thread-count invariant, so models and stage levels must be
/// bit-identical after every delta. Every `fresh_every`-th delta (0: none)
/// is also checked against a fresh leveled solve.
template <typename MakeStream>
void ExpectThreadIdenticalChurn(const std::string& src, SolverOptions opts,
                                int fresh_every, MakeStream make_stream) {
  std::vector<std::unique_ptr<Fixture>> fixtures;
  std::vector<std::unique_ptr<IncrementalSolver>> solvers;
  for (unsigned threads : {1u, 2u, 4u}) {
    fixtures.push_back(std::make_unique<Fixture>(src));
    opts.num_threads = threads;
    solvers.push_back(std::make_unique<IncrementalSolver>(
        MustGround(fixtures.back()->program), opts));
    solvers.back()->Model();
  }
  const std::vector<RuleId> stream = make_stream(solvers[0]->program());
  ASSERT_FALSE(stream.empty());
  for (size_t d = 0; d < stream.size(); ++d) {
    for (auto& s : solvers) ToggleRule(*s, stream[d]);
    const WfsModel& m1 = solvers[0]->Model();
    for (size_t i = 1; i < solvers.size(); ++i) {
      const WfsModel& mi = solvers[i]->Model();
      ASSERT_EQ(m1.model, mi.model)
          << "delta " << d << ": threads[0] vs solver " << i << "\n"
          << DescribeModelDifference(solvers[0]->program(), m1.model,
                                     mi.model);
      ASSERT_EQ(m1.true_stage, mi.true_stage) << "delta " << d;
      ASSERT_EQ(m1.false_stage, mi.false_stage) << "delta " << d;
    }
    if (fresh_every > 0 && d % fresh_every == 0) {
      WfsModel fresh = solvers[0]->SolveFresh();
      ASSERT_EQ(m1.model, fresh.model)
          << "delta " << d << ": vs fresh SolveWfs\n"
          << DescribeModelDifference(solvers[0]->program(), m1.model,
                                     fresh.model);
      ASSERT_EQ(m1.true_stage, fresh.true_stage) << "delta " << d;
      ASSERT_EQ(m1.false_stage, fresh.false_stage) << "delta " << d;
    }
  }
  EXPECT_GT(solvers[0]->diagnostics().warm_hits, 0u);
}

TEST(InteriorTest, WarmResolveBitIdenticalAcrossThreadCounts) {
  Rng gen(77);
  SolverOptions opts;
  opts.compute_levels = true;
  opts.warm_min_atoms = 2;
  ExpectThreadIdenticalChurn(
      OneSccGame(gen, 120, 2), opts, 0, [](const GroundProgram& gp) {
        std::vector<RuleId> rules = NonUnitRules(gp);
        std::vector<RuleId> units = UnitRules(gp);
        Rng rng(78);
        std::vector<RuleId> stream;
        for (int d = 0; d < 25; ++d) {
          stream.push_back(rng.Chance(3, 4)
                               ? units[rng.Uniform(units.size())]
                               : rules[rng.Uniform(rules.size())]);
        }
        return stream;
      });
  if (HasFatalFailure()) return;

  // The dense random game(2000, 1%) the warm-interior benchmark times: one
  // giant SCC at the default warm threshold, 60 move-fact toggles, a fresh
  // check every 10th.
  Rng dense(0xD5CC);
  SolverOptions dense_opts;
  dense_opts.compute_levels = true;
  ExpectThreadIdenticalChurn(
      workload::RandomGame(dense, 2000, 1), dense_opts, 10,
      [](const GroundProgram& gp) {
        std::vector<RuleId> units = UnitRules(gp);
        Rng rng(0xDE17A5);
        std::vector<RuleId> stream;
        for (int d = 0; d < 60 && !units.empty(); ++d) {
          stream.push_back(units[rng.Uniform(units.size())]);
        }
        return stream;
      });
}

/// The headline narrowing regression: in a 10k-atom negation-recursive
/// SCC with redundant moves, a single move-fact (unit rule) toggle must
/// seed an unfounded flood that is a small fraction of the component —
/// the warm path floods from the delta's atoms, not `InitSources` over
/// all 10k. Averaged over 32 toggles to keep the assertion robust against
/// an unlucky position.
TEST(InteriorTest, UnitToggleFloodsFarLessThanTenKAtomScc) {
  Rng gen(5);
  const int n = 10000;
  Fixture f(OneSccGame(gen, n, 2));
  SolverOptions opts;
  opts.num_threads = 2;
  opts.warm_min_atoms = 64;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();

  std::vector<RuleId> units = UnitRules(inc.program());
  ASSERT_GE(units.size(), static_cast<size_t>(n));

  const uint64_t flood_before = inc.diagnostics().seeded_flood_sizes.sum;
  const uint64_t undone_before = inc.diagnostics().warm_undone_atoms;
  const uint64_t hits_before = inc.diagnostics().warm_hits;

  Rng rng(6);
  const int kToggles = 32;
  for (int d = 0; d < kToggles; ++d) {
    ToggleRule(inc, units[rng.Uniform(units.size())]);
    inc.Model();
  }

  const uint64_t hits = inc.diagnostics().warm_hits - hits_before;
  EXPECT_GT(hits, 0u) << "warm path never taken in the 10k SCC";
  const uint64_t flood =
      inc.diagnostics().seeded_flood_sizes.sum - flood_before;
  const uint64_t undone = inc.diagnostics().warm_undone_atoms - undone_before;
  // Averages per delta. A cold re-solve floods the whole component every
  // time (the InitSources candidate sweep); the warm path must stay two
  // orders of magnitude under that.
  const double avg_flood = static_cast<double>(flood) / kToggles;
  const double avg_undone = static_cast<double>(undone) / kToggles;
  EXPECT_LT(avg_flood, n / 10.0)
      << "avg seeded flood " << avg_flood << " atoms vs component " << n;
  EXPECT_LT(avg_undone, n / 2.0)
      << "avg trail undo " << avg_undone << " atoms vs component " << n;

  // And the model is still right (one fresh check at the end; the churn
  // tests above do this delta-for-delta).
  const WfsModel& got = inc.Model();
  WfsModel fresh = inc.SolveFresh();
  ASSERT_EQ(got.model, fresh.model)
      << DescribeModelDifference(inc.program(), got.model, fresh.model);
}

/// `inc.Model()` must equal a fresh leveled solve (values and both stage
/// tapes) and pass the full solver audit, which checks every warm entry's
/// snapshots against its drift record.
void ExpectFreshAndClean(IncrementalSolver& inc, const std::string& context) {
  const WfsModel& got = inc.Model();
  WfsModel fresh = inc.SolveFresh();
  ASSERT_EQ(got.model, fresh.model)
      << context << "\nincremental vs fresh SolveWfs diff:\n"
      << DescribeModelDifference(inc.program(), got.model, fresh.model);
  ASSERT_EQ(got.true_stage, fresh.true_stage) << context;
  ASSERT_EQ(got.false_stage, fresh.false_stage) << context;
  check::AuditReport report = check::AuditSolver(inc);
  ASSERT_TRUE(report.ok()) << context << "\n" << report.ToString();
}

/// The one sequence a footprint that skips retracted occurrences gets
/// wrong: an external moves under a retracted rule (the component is not
/// re-solved, so only the drift record remembers the move), the rule is
/// re-enabled, and the external moves back. Without the record the last
/// move would match the stale snapshot again while the rule's counters
/// still count the middle value. The rule `win(n0) :- g.` has no body atom
/// inside the SCC, so retracting it keeps the condensation and the entry.
TEST(InteriorTest, FootprintSeesExternalsOfDisabledRules) {
  Rng gen(21);
  Fixture f(OneSccGame(gen, 40, 2) + "g.\nwin(n0) :- g.\n");
  SolverOptions opts;
  opts.compute_levels = true;
  opts.warm_min_atoms = 2;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();
  const GroundProgram& gp = inc.program();
  const AtomId g = *gp.FindAtom(MustParseTerm(f.store, "g"));
  ASSERT_EQ(gp.PositiveOccurrences(g).size(), 1u);
  const RuleId rule = gp.PositiveOccurrences(g)[0];
  const RuleId other = *gp.FindUnitRule(
      *gp.FindAtom(MustParseTerm(f.store, "move(n5, n6)")));

  // Two deltas elsewhere build the warm entry and take its warm path.
  for (int i = 0; i < 2; ++i) {
    ToggleRule(inc, other);
    ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, StrCat("warm-up ", i)));
  }
  const uint64_t hits = inc.diagnostics().warm_hits;
  const uint64_t fallbacks = inc.diagnostics().warm_cold_fallbacks;
  ASSERT_GT(hits, 0u);

  ASSERT_TRUE(inc.RetractRule(rule));
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "rule retracted"));
  ASSERT_TRUE(inc.RetractAtom(g));  // moves under the retracted rule only
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "g retracted"));
  ToggleRule(inc, rule);  // re-enables the retracted duplicate
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "rule re-enabled"));
  ASSERT_TRUE(inc.AssertAtom(g));  // moves back
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "g re-asserted"));
  // One entry patched every step but the move under the retracted rule,
  // which re-solved nothing.
  EXPECT_EQ(inc.diagnostics().warm_hits, hits + 3);
  EXPECT_EQ(inc.diagnostics().warm_cold_fallbacks, fallbacks);
}

/// Retracting a rule inside a warm SCC that leaves it strongly connected
/// repairs only the component's flags: its member order and local ids
/// stand, so the warm entry survives and the next re-solve patches it
/// instead of recompiling the keep-all table cold.
TEST(InteriorTest, RetractionThatKeepsTheSccWholeKeepsItsWarmEntry) {
  Rng gen(21);
  Fixture f(OneSccGame(gen, 40, 2));
  SolverOptions opts;
  opts.compute_levels = true;
  opts.warm_min_atoms = 2;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();
  const GroundProgram& gp = inc.program();
  const RuleId other = *gp.FindUnitRule(
      *gp.FindAtom(MustParseTerm(f.store, "move(n5, n6)")));
  for (int i = 0; i < 2; ++i) {
    ToggleRule(inc, other);
    ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, StrCat("warm-up ", i)));
  }
  // win(n0) :- move(n0, n1), not win(n1).
  const AtomId win0 = *gp.FindAtom(MustParseTerm(f.store, "win(n0)"));
  const AtomId win1 = *gp.FindAtom(MustParseTerm(f.store, "win(n1)"));
  RuleId rule = gp.rule_count();
  for (RuleId r : gp.RulesFor(win0)) {
    if (std::ranges::equal(gp.rule(r).neg, std::vector<AtomId>{win1})) {
      rule = r;
    }
  }
  ASSERT_LT(rule, gp.rule_count());
  const uint32_t components = inc.graph()->component_count();
  const uint64_t hits = inc.diagnostics().warm_hits;
  const uint64_t fallbacks = inc.diagnostics().warm_cold_fallbacks;

  ASSERT_TRUE(inc.RetractRule(rule));
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "rule retracted"));
  EXPECT_EQ(inc.graph()->component_count(), components);
  EXPECT_EQ(inc.diagnostics().warm_cold_fallbacks, fallbacks);
  EXPECT_EQ(inc.diagnostics().warm_hits, hits + 1);
}

/// A move-fact toggle on the dense game(2000, 1%) drifts one external of
/// the giant SCC: the warm re-solve must read exactly that record entry,
/// not the component's ~40k rules and externals.
TEST(InteriorTest, WarmResolveReadsOnlyItsFootprint) {
  Rng gen(0xD5CC);
  Fixture f(workload::RandomGame(gen, 2000, 1));
  SolverOptions opts;
  opts.compute_levels = true;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();
  const AtomDependencyGraph& graph = *inc.graph();
  uint32_t warm = UINT32_MAX;
  for (uint32_t c = 0; c < graph.id_bound(); ++c) {
    if (solver::WarmComponent::Eligible(graph, c, opts.warm_min_atoms)) {
      ASSERT_EQ(warm, UINT32_MAX) << "expected one warm-eligible component";
      warm = c;
    }
  }
  ASSERT_NE(warm, UINT32_MAX);
  const std::vector<RuleId> units = UnitRules(inc.program());
  Rng rng(0xF007);
  ToggleRule(inc, units[rng.Uniform(units.size())]);  // builds the entry
  inc.Model();

  int in_scc = 0;
  for (int d = 0; d < 40; ++d) {
    const RuleId u = units[rng.Uniform(units.size())];
    const AtomId fact = inc.program().rule(u).head;
    // The move atom reaches the SCC through one rule at most, so the
    // footprint is one external, or nothing when the edge leaves it.
    uint64_t expected = 0;
    for (RuleId r : inc.program().PositiveOccurrences(fact)) {
      if (graph.ComponentOf(inc.program().rule(r).head) == warm) {
        expected = 1;
      }
    }
    in_scc += static_cast<int>(expected);
    const uint64_t before = inc.diagnostics().warm_drift_entries;
    const uint64_t hits = inc.diagnostics().warm_hits;
    ToggleRule(inc, u);
    inc.Model();
    EXPECT_EQ(inc.diagnostics().warm_drift_entries - before, expected)
        << "toggle " << d;
    EXPECT_EQ(inc.diagnostics().warm_hits - hits, expected) << "toggle " << d;
  }
  EXPECT_GT(in_scc, 20);
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "after the toggles"));
}

/// OneSccGame plus internal unit facts on `win` atoms and a row of small
/// lower 2-cycles `s(i)`/`t(i)` (warm too at `warm_min_atoms = 2`) that
/// feed the game through extra rules: the drift record then hears from
/// move facts, internal fact flips, game-rule flips and warm lower
/// components alike.
std::string FootprintChurnProgram(Rng& rng, int n) {
  std::string src = OneSccGame(rng, n, 2);
  for (int i = 0; i < n; i += 7) src += StrCat("win(n", i, ").\n");
  for (int i = 0; i < 6; ++i) {
    src += StrCat("e(", i, ").\n");
    src += StrCat("s(", i, ") :- e(", i, "), not t(", i, ").\n");
    src += StrCat("t(", i, ") :- not s(", i, ").\n");
    src += StrCat("win(n", 3 * i + 1, ") :- s(", i, "), not win(n",
                  3 * i + 2, ").\n");
  }
  return src;
}

/// Randomized churn through every drift source at one thread count: one
/// to three deltas per `Model()` (so several fold into one pass), each a
/// move-fact toggle, an internal `win` fact toggle, an `e` fact toggle
/// under a lower warm component, or a game-rule retraction or re-enable
/// of the retracted duplicate. After every pass: fresh agreement (values
/// and stages) and a clean audit.
void RunFootprintChurn(uint64_t seed, unsigned threads) {
  Rng gen(seed);
  Fixture f(FootprintChurnProgram(gen, 60));
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  opts.warm_min_atoms = 2;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();
  const GroundProgram& gp = inc.program();
  auto head = [&](RuleId r) {
    return f.store.ToString(gp.AtomTerm(gp.rule(r).head));
  };
  std::vector<RuleId> moves, wins, gates, rules;
  for (RuleId r : UnitRules(gp)) {
    const std::string name = head(r);
    (name.starts_with("move") ? moves
     : name.starts_with("win") ? wins
                               : gates).push_back(r);
  }
  for (RuleId r : NonUnitRules(gp)) {
    if (head(r).starts_with("win")) rules.push_back(r);
  }
  ASSERT_FALSE(moves.empty());
  ASSERT_FALSE(wins.empty());
  ASSERT_FALSE(gates.empty());
  ASSERT_FALSE(rules.empty());

  Rng rng(seed * 131 + threads);
  for (int pass = 0; pass < 40; ++pass) {
    const int deltas = 1 + static_cast<int>(rng.Uniform(3));
    for (int d = 0; d < deltas; ++d) {
      const uint64_t kind = rng.Uniform(8);
      const std::vector<RuleId>& pool = kind < 4   ? moves
                                        : kind < 5 ? wins
                                        : kind < 6 ? gates
                                                   : rules;
      ToggleRule(inc, pool[rng.Uniform(pool.size())]);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(
        inc, StrCat("seed ", seed, " threads ", threads, " pass ", pass)));
  }
  EXPECT_GT(inc.diagnostics().warm_hits, 0u);
  EXPECT_GT(inc.diagnostics().warm_drift_entries, 0u);
}

TEST(InteriorTest, FootprintChurnAgreesSequential) { RunFootprintChurn(31, 1); }

TEST(InteriorTest, FootprintChurnAgreesTwoThreads) { RunFootprintChurn(32, 2); }

TEST(InteriorTest, FootprintChurnAgreesFourThreads) {
  RunFootprintChurn(33, 4);
}

/// A query before the first `Model()` builds warm entries through its cone
/// pass; the first `Model()` is then a full solve that rewrites the tape
/// without recording drift, so it must discard them. A delta in between
/// moves an external the entry would otherwise never hear of.
TEST(InteriorTest, FullSolveDiscardsQueryBuiltWarmEntries) {
  Rng gen(51);
  Fixture f(OneSccGame(gen, 40, 2));
  SolverOptions opts;
  opts.compute_levels = true;
  opts.warm_min_atoms = 2;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.QueryAtom(MustParseTerm(f.store, "win(n3)"));
  ASSERT_GT(check::AuditSolver(inc).warm_entries_checked, 0u);
  ASSERT_TRUE(inc.Retract(MustParseTerm(f.store, "move(n0, n1)")));
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "first Model()"));
  EXPECT_EQ(inc.stats().full_solves, 1u);
  ASSERT_TRUE(inc.Assert(MustParseTerm(f.store, "move(n0, n1)")));
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "delta after it"));
}

/// The pool executor's concurrent recording: two move facts toggled before
/// one `Model()` at 4 threads seed two singleton components, which the
/// pool re-solves on different workers, and both record into the giant
/// SCC's warm entry before it runs. TSan checks the record's locking; the
/// counter checks that both entries arrived.
TEST(InteriorTest, PoolPredecessorsRecordIntoOneWarmEntry) {
  Rng gen(41);
  Fixture f(OneSccGame(gen, 200, 2));
  SolverOptions opts;
  opts.num_threads = 4;
  opts.compute_levels = true;
  opts.warm_min_atoms = 2;
  IncrementalSolver inc(MustGround(f.program), opts);
  inc.Model();
  const std::vector<RuleId> units = UnitRules(inc.program());
  Rng rng(42);
  ToggleRule(inc, units[0]);  // builds the entry
  ToggleRule(inc, units[1]);
  ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, "warm-up"));
  for (int pass = 0; pass < 20; ++pass) {
    const size_t i = rng.Uniform(units.size());
    const size_t j = (i + 1 + rng.Uniform(units.size() - 1)) % units.size();
    const uint64_t before = inc.diagnostics().warm_drift_entries;
    const uint64_t hits = inc.diagnostics().warm_hits;
    ToggleRule(inc, units[i]);
    ToggleRule(inc, units[j]);
    ASSERT_NO_FATAL_FAILURE(ExpectFreshAndClean(inc, StrCat("pass ", pass)));
    // Each move atom occurs in exactly one game rule, inside the SCC.
    EXPECT_EQ(inc.diagnostics().warm_hits - hits, 1u) << "pass " << pass;
    EXPECT_EQ(inc.diagnostics().warm_drift_entries - before, 2u)
        << "pass " << pass;
  }
}

}  // namespace
}  // namespace gsls
