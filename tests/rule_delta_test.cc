// Rule-level incremental deltas: `IncrementalSolver::AssertRule` /
// `RetractRule` and `Session::Assert`/`Retract(Clause)` with localized
// recondensation (analysis/dynamic_condensation.h). Structural coverage —
// a retraction that splits the component holding a negative loop, an
// assertion that merges previously independent SCCs, undefined flips when
// the sole loop-breaking rule goes away — plus randomized rule-churn
// sequences checked delta-for-delta against a fresh masked solve, an
// independent alternating-fixpoint rebuild, and the V_P stage oracle, at
// one and several threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.h"
#include "core/engine.h"
#include "core/tabled.h"
#include "serve/session.h"
#include "solver/incremental.h"
#include "solver/solver.h"
#include "test_support.h"
#include "util/strings.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;
using testing::RebuildEnabled;

/// After-every-delta invariant: values against the fresh masked solve and
/// the alternating-fixpoint reference; stage levels (when computed)
/// against both the fresh solve and the quadratic V_P oracle.
void ExpectAgreesEverywhere(IncrementalSolver& inc, TermStore& store,
                            const std::string& context) {
  const WfsModel& incremental = inc.Model();
  WfsModel fresh = inc.SolveFresh();
  ASSERT_EQ(incremental.model, fresh.model)
      << context << "\nincremental vs fresh SolveWfs diff:\n"
      << DescribeModelDifference(inc.program(), incremental.model,
                                 fresh.model);
  GroundProgram rebuilt = RebuildEnabled(inc, store);
  WfsModel reference = ComputeWfsAlternating(rebuilt);
  ASSERT_EQ(incremental.model, reference.model)
      << context << "\nincremental vs alternating-fixpoint reference diff:\n"
      << DescribeModelDifference(inc.program(), incremental.model,
                                 reference.model);
  if (!inc.options().compute_levels) return;
  ASSERT_TRUE(incremental.has_levels) << context;
  WfsStages oracle = ComputeWfsStages(rebuilt);
  for (AtomId a = 0; a < inc.program().atom_count(); ++a) {
    ASSERT_EQ(incremental.true_stage[a], fresh.true_stage[a])
        << context << ": true stage of atom " << a << " vs fresh";
    ASSERT_EQ(incremental.false_stage[a], fresh.false_stage[a])
        << context << ": false stage of atom " << a << " vs fresh";
    ASSERT_EQ(incremental.true_stage[a], oracle.true_stage[a])
        << context << ": true stage of atom " << a << " vs V_P oracle";
    ASSERT_EQ(incremental.false_stage[a], oracle.false_stage[a])
        << context << ": false stage of atom " << a << " vs V_P oracle";
  }
}

TruthValue ValueOf(IncrementalSolver& inc, TermStore& store,
                   std::string_view atom_src) {
  return inc.ValueOf(MustParseTerm(store, atom_src));
}

/// Finds the id of the enabled ground instance `head :- pos, not neg.`
RuleId MustFindRule(const IncrementalSolver& inc, TermStore& store,
                    std::string_view head,
                    const std::vector<std::string>& pos,
                    const std::vector<std::string>& neg) {
  const GroundProgram& gp = inc.program();
  GroundRule want;
  want.head = *gp.FindAtom(MustParseTerm(store, head));
  for (const auto& s : pos) {
    want.pos.push_back(*gp.FindAtom(MustParseTerm(store, s)));
  }
  for (const auto& s : neg) {
    want.neg.push_back(*gp.FindAtom(MustParseTerm(store, s)));
  }
  std::sort(want.pos.begin(), want.pos.end());
  std::sort(want.neg.begin(), want.neg.end());
  for (RuleId r = 0; r < gp.rule_count(); ++r) {
    const RuleView rule = gp.rule(r);
    if (rule.head == want.head && std::ranges::equal(rule.pos, want.pos) &&
        std::ranges::equal(rule.neg, want.neg)) {
      return r;
    }
  }
  ADD_FAILURE() << "rule not found";
  return 0;
}

SolverOptions Leveled(unsigned threads = 1) {
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  return opts;
}

TEST(RuleDeltaTest, AssertAndRetractRuleRoundTrip) {
  Fixture f("a. b :- a.");
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();

  const Term* c = MustParseTerm(f.store, "c");
  const Term* a = MustParseTerm(f.store, "a");
  const Term* d = MustParseTerm(f.store, "d");
  std::vector<const Term*> pos = {a};
  std::vector<const Term*> neg = {d};
  bool changed = false;
  RuleId id = inc.AssertRule(c, pos, neg, &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(inc.ValueOf(c), TruthValue::kTrue);  // a true, d unregistered
  ExpectAgreesEverywhere(inc, f.store, "assert c :- a, not d");

  // The identical rule is deduplicated and already enabled.
  RuleId again = inc.AssertRule(c, pos, neg, &changed);
  EXPECT_EQ(id, again);
  EXPECT_FALSE(changed);

  ASSERT_TRUE(inc.RetractRule(id));
  EXPECT_EQ(inc.ValueOf(c), TruthValue::kFalse);
  EXPECT_FALSE(inc.RetractRule(id));  // already retracted
  ExpectAgreesEverywhere(inc, f.store, "retract c :- a, not d");

  // Re-assert re-enables the same id.
  EXPECT_EQ(inc.AssertRule(c, pos, neg, &changed), id);
  EXPECT_TRUE(changed);
  EXPECT_EQ(inc.ValueOf(c), TruthValue::kTrue);
  ExpectAgreesEverywhere(inc, f.store, "re-assert c :- a, not d");
}

TEST(RuleDeltaTest, UnitAssertRuleTakesFactPath) {
  Fixture f("p :- not q.");
  IncrementalSolver inc(MustGround(f.program));
  inc.Model();
  const Term* q = MustParseTerm(f.store, "q");
  bool changed = false;
  RuleId id = inc.AssertRule(q, {}, {}, &changed);
  EXPECT_TRUE(changed);
  EXPECT_TRUE(inc.HasFact(*inc.program().FindAtom(q)));
  EXPECT_EQ(ValueOf(inc, f.store, "p"), TruthValue::kFalse);
  ASSERT_TRUE(inc.RetractRule(id));
  EXPECT_EQ(ValueOf(inc, f.store, "p"), TruthValue::kTrue);
}

// Retracting one game rule of a 3-cycle breaks the strongly connected
// win-component: it must split into singletons and the previously drawn
// (undefined) positions become determined — and the reverse assert merges
// the independent SCCs back and flips them to undefined again. Checked
// against fresh leveled solves throughout.
TEST(RuleDeltaTest, CycleRuleRetractSplitsAssertMergesComponents) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(c1, c2). move(c2, c3). move(c3, c1).\n");
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  EXPECT_EQ(ValueOf(inc, f.store, "win(c1)"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(inc, f.store, "win(c2)"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(inc, f.store, "win(c3)"), TruthValue::kUndefined);
  ASSERT_NE(inc.graph(), nullptr);
  uint32_t comps_cycle = inc.graph()->component_count();

  RuleId r = MustFindRule(inc, f.store, "win(c1)", {"move(c1, c2)"},
                          {"win(c2)"});
  ASSERT_TRUE(inc.RetractRule(r));
  // win(c1) lost its only rule: false. The cycle unwinds behind it.
  EXPECT_EQ(ValueOf(inc, f.store, "win(c1)"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(inc, f.store, "win(c3)"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(inc, f.store, "win(c2)"), TruthValue::kFalse);
  ExpectAgreesEverywhere(inc, f.store, "cycle rule retracted");
  // The 3-atom SCC fell apart into singletons: two more components.
  EXPECT_EQ(inc.graph()->component_count(), comps_cycle + 2);
  ASSERT_NE(inc.condensation_stats(), nullptr);
  EXPECT_GE(inc.condensation_stats()->splits, 1u);

  // Re-asserting the rule merges the previously independent SCCs back
  // into one cycle component; the positions flip back to undefined.
  bool changed = false;
  EXPECT_EQ(inc.AssertRule(inc.program().rule(r), &changed), r);
  EXPECT_TRUE(changed);
  EXPECT_EQ(ValueOf(inc, f.store, "win(c1)"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(inc, f.store, "win(c2)"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(inc, f.store, "win(c3)"), TruthValue::kUndefined);
  ExpectAgreesEverywhere(inc, f.store, "cycle rule re-asserted");
  EXPECT_EQ(inc.graph()->component_count(), comps_cycle);
  EXPECT_GE(inc.condensation_stats()->merges, 1u);
}

// The sole rule that breaks a negative loop: q's escape through r keeps
// the p/q loop determined; retracting it flips both loop atoms back to
// undefined (no fact delta can do this — the rule is not a unit).
TEST(RuleDeltaTest, RetractingSoleLoopBreakerFlipsToUndefined) {
  Fixture f("p :- not q. q :- not p. q :- r. r.");
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  EXPECT_EQ(ValueOf(inc, f.store, "q"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(inc, f.store, "p"), TruthValue::kFalse);

  RuleId r = MustFindRule(inc, f.store, "q", {"r"}, {});
  ASSERT_TRUE(inc.RetractRule(r));
  EXPECT_EQ(ValueOf(inc, f.store, "p"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(inc, f.store, "q"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(inc, f.store, "r"), TruthValue::kTrue);
  ExpectAgreesEverywhere(inc, f.store, "loop breaker retracted");

  ASSERT_TRUE(inc.AssertRule(inc.program().rule(r)) == r);
  EXPECT_EQ(ValueOf(inc, f.store, "q"), TruthValue::kTrue);
  ExpectAgreesEverywhere(inc, f.store, "loop breaker restored");
}

// Two independent negative loops; two rule asserts close a cycle through
// both, merging the two SCCs into one four-atom component.
TEST(RuleDeltaTest, AssertRuleMergesIndependentSccs) {
  Fixture f("a :- not b. b :- not a. c :- not d. d :- not c. seed.");
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  uint32_t comps_before = inc.graph()->component_count();

  const Term* a = MustParseTerm(f.store, "a");
  const Term* b = MustParseTerm(f.store, "b");
  const Term* c = MustParseTerm(f.store, "c");
  const Term* d = MustParseTerm(f.store, "d");
  std::vector<const Term*> body_c = {c};
  inc.AssertRule(b, body_c, {});  // b :- c.  (one direction: still a DAG)
  ExpectAgreesEverywhere(inc, f.store, "bridge b :- c");
  EXPECT_EQ(inc.graph()->component_count(), comps_before);

  std::vector<const Term*> body_a = {a};
  inc.AssertRule(d, body_a, {});  // d :- a.  closes the cross-loop cycle
  ExpectAgreesEverywhere(inc, f.store, "bridge d :- a merges SCCs");
  EXPECT_EQ(inc.graph()->component_count(), comps_before - 1);
  EXPECT_GE(inc.condensation_stats()->merges, 1u);
  uint32_t merged = inc.graph()->ComponentOf(*inc.program().FindAtom(a));
  EXPECT_EQ(inc.graph()->ComponentOf(*inc.program().FindAtom(b)), merged);
  EXPECT_EQ(inc.graph()->ComponentOf(*inc.program().FindAtom(c)), merged);
  EXPECT_EQ(inc.graph()->ComponentOf(*inc.program().FindAtom(d)), merged);
  EXPECT_TRUE(inc.graph()->HasInternalNegation(merged));
}

TEST(RuleDeltaTest, AssertRuleOverBrandNewAtoms) {
  Fixture f("base.");
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  // head and body atoms all new: appended singletons, then repaired.
  const Term* x = MustParseTerm(f.store, "x");
  const Term* y = MustParseTerm(f.store, "y");
  const Term* base = MustParseTerm(f.store, "base");
  std::vector<const Term*> pos = {base};
  std::vector<const Term*> negy = {y};
  inc.AssertRule(x, pos, negy);  // x :- base, not y.
  EXPECT_EQ(inc.ValueOf(x), TruthValue::kTrue);
  EXPECT_EQ(inc.ValueOf(y), TruthValue::kFalse);
  ExpectAgreesEverywhere(inc, f.store, "rule over new atoms");
  // Close a brand-new negative loop over x/y.
  std::vector<const Term*> negx = {x};
  inc.AssertRule(y, pos, negx);  // y :- base, not x.
  EXPECT_EQ(inc.ValueOf(x), TruthValue::kUndefined);
  EXPECT_EQ(inc.ValueOf(y), TruthValue::kUndefined);
  ExpectAgreesEverywhere(inc, f.store, "new-atom negative loop");
}

/// One randomized churn sequence: toggles random program rules and
/// asserts/retracts random synthetic rules over the existing atom pool,
/// checking full agreement after every delta.
void RunChurnSequence(uint64_t seed, unsigned threads) {
  Rng rng(seed);
  Fixture f(workload::RandomPropositional(rng, 10, 16, 3));
  IncrementalSolver inc(MustGround(f.program), Leveled(threads));
  inc.Model();
  const size_t n = inc.program().atom_count();
  if (n == 0) return;

  // Synthetic delta pool: random rules over the registered atoms.
  std::vector<GroundRule> pool;
  for (int i = 0; i < 8; ++i) {
    GroundRule r;
    r.head = static_cast<AtomId>(rng.Uniform(n));
    int body = rng.UniformInt(1, 3);
    for (int b = 0; b < body; ++b) {
      AtomId atom = static_cast<AtomId>(rng.Uniform(n));
      if (rng.Chance(2, 5)) {
        r.neg.push_back(atom);
      } else {
        r.pos.push_back(atom);
      }
    }
    pool.push_back(std::move(r));
  }

  for (int d = 0; d < 24; ++d) {
    std::string context;
    if (rng.Chance(1, 2) && inc.program().rule_count() > 0) {
      RuleId r = static_cast<RuleId>(rng.Uniform(inc.program().rule_count()));
      if (inc.RuleEnabled(r)) {
        inc.RetractRule(r);
        context = StrCat("seed ", seed, " delta ", d, ": retract rule ", r);
      } else {
        inc.AssertRule(inc.program().rule(r));
        context = StrCat("seed ", seed, " delta ", d, ": re-assert rule ", r);
      }
    } else {
      const GroundRule& r = pool[rng.Uniform(pool.size())];
      inc.AssertRule(r);
      context = StrCat("seed ", seed, " delta ", d, ": assert pool rule");
    }
    ExpectAgreesEverywhere(inc, f.store, context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RuleDeltaTest, RandomizedRuleChurnAgreesEverywhere) {
  for (uint64_t seed = 1; seed <= 160; ++seed) {
    RunChurnSequence(seed, /*threads=*/1);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(RuleDeltaTest, RandomizedRuleChurnAgreesEverywhereThreaded) {
  for (uint64_t seed = 100; seed <= 112; ++seed) {
    RunChurnSequence(seed, /*threads=*/2);
    if (::testing::Test::HasFatalFailure()) return;
    RunChurnSequence(seed + 1000, /*threads=*/4);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (uint64_t seed = 1000; seed <= 1160; ++seed) {
    RunChurnSequence(seed, /*threads=*/2);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

/// Toggles `deltas` random non-unit rules of `src` at `threads` threads,
/// with full agreement after every delta.
void RunFamilyRuleChurn(const std::string& src, unsigned threads,
                        uint64_t seed, int deltas) {
  Fixture f(src);
  IncrementalSolver inc(MustGround(f.program), Leveled(threads));
  inc.Model();
  std::vector<RuleId> rules;
  for (RuleId r = 0; r < inc.program().rule_count(); ++r) {
    const RuleView rule = inc.program().rule(r);
    if (!rule.pos.empty() || !rule.neg.empty()) rules.push_back(r);
  }
  Rng rng(seed);
  for (int d = 0; d < deltas && !rules.empty(); ++d) {
    const RuleId r = rules[rng.Uniform(rules.size())];
    if (inc.RuleEnabled(r)) {
      inc.RetractRule(r);
    } else {
      inc.AssertRule(inc.program().rule(r));
    }
    ExpectAgreesEverywhere(inc, f.store,
                           StrCat("threads ", threads, " delta ", d, "\n",
                                  src.substr(0, 200)));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The rule-delta benchmark families: the paper programs and small
// workloads at 1 and 2 threads, then the timed sizes up to chain(2048).
TEST(RuleDeltaTest, WorkloadFamilyRuleChurnAgreesEverywhere) {
  Rng rng(20260729);
  const std::string families[] = {
      workload::VanGelderProgram(),
      workload::Example32Program(),
      workload::Example33Program(),
      workload::GameChain(256),
      workload::GameGrid(12, 12),
      workload::GameCycleWithTail(33, 32),
      workload::RandomGame(rng, 48, 10),
  };
  for (const std::string& src : families) {
    for (unsigned threads : {1u, 2u}) {
      RunFamilyRuleChurn(src, threads, 0xDE17A5 + threads, 40);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  Rng timed(7);
  const std::string timed_families[] = {
      workload::GameChain(256),
      workload::GameChain(1024),
      workload::GameChain(2048),
      workload::GameGrid(24, 24),
      workload::GameCycleWithTail(101, 100),
      workload::RandomGame(timed, 64, 10),
  };
  for (const std::string& src : timed_families) {
    RunFamilyRuleChurn(src, 1, 0x5EED, 10);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Threaded and sequential instances fed the identical delta stream must
// produce identical models and levels at every step.
TEST(RuleDeltaTest, ThreadedChurnMatchesSequentialDeltaForDelta) {
  for (uint64_t seed = 7; seed <= 13; ++seed) {
    Rng gen(seed);
    std::string src = workload::RandomPropositional(gen, 12, 20, 3);
    Fixture fa(src);
    Fixture fb(src);
    IncrementalSolver seq(MustGround(fa.program), Leveled(1));
    IncrementalSolver par(MustGround(fb.program), Leveled(4));
    seq.Model();
    par.Model();
    const size_t n = seq.program().atom_count();
    Rng rng(seed * 77 + 3);
    for (int d = 0; d < 20; ++d) {
      if (rng.Chance(1, 2) && seq.program().rule_count() > 0) {
        RuleId r =
            static_cast<RuleId>(rng.Uniform(seq.program().rule_count()));
        if (seq.RuleEnabled(r)) {
          seq.RetractRule(r);
          par.RetractRule(r);
        } else {
          seq.AssertRule(seq.program().rule(r));
          par.AssertRule(seq.program().rule(r));
        }
      } else {
        GroundRule r;
        r.head = static_cast<AtomId>(rng.Uniform(n));
        r.pos.push_back(static_cast<AtomId>(rng.Uniform(n)));
        r.neg.push_back(static_cast<AtomId>(rng.Uniform(n)));
        seq.AssertRule(r);
        par.AssertRule(r);
      }
      const WfsModel& ms = seq.Model();
      const WfsModel& mp = par.Model();
      ASSERT_EQ(ms.model, mp.model)
          << "seed " << seed << " delta " << d << ":\n"
          << DescribeModelDifference(seq.program(), ms.model, mp.model);
      ASSERT_EQ(ms.true_stage, mp.true_stage) << "seed " << seed;
      ASSERT_EQ(ms.false_stage, mp.false_stage) << "seed " << seed;
    }
  }
}

TEST(RuleDeltaTest, TabledEngineRuleDeltas) {
  Fixture f("p :- not q. q :- not p. q :- r. r.");
  TabledOptions opts;
  Result<TabledEngine> engine = TabledEngine::Create(f.program, opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  TabledEngine& e = engine.value();
  const Term* p = MustParseTerm(f.store, "p");
  const Term* q = MustParseTerm(f.store, "q");
  EXPECT_EQ(e.ValueOf(q), TruthValue::kTrue);
  EXPECT_EQ(e.ValueOf(p), TruthValue::kFalse);

  // Nonground clauses are rejected.
  Program nonground = MustParseProgram(f.store, "s(X) :- t(X).");
  EXPECT_FALSE(e.session().Assert(nonground.clauses()[0]).ok());

  // Retract the loop breaker through the engine; levels must follow.
  RuleId r = MustFindRule(e.solver(), f.store, "q", {"r"}, {});
  ASSERT_TRUE(e.session().solver().RetractRule(r));
  EXPECT_EQ(e.ValueOf(p), TruthValue::kUndefined);
  EXPECT_EQ(e.ValueOf(q), TruthValue::kUndefined);
  EXPECT_FALSE(e.LevelOf(p).has_value());

  // Assert a ground clause making p win outright.
  Program ground = MustParseProgram(f.store, "p :- r.");
  Result<RuleId> added = e.session().Assert(ground.clauses()[0]);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(e.ValueOf(p), TruthValue::kTrue);
  EXPECT_EQ(e.ValueOf(q), TruthValue::kFalse);
  ASSERT_TRUE(e.LevelOf(p).has_value());
  // p rides r's stage: positive edges carry stages unchanged (Def. 2.4).
  EXPECT_EQ(e.LevelOf(p)->FiniteValue(), 1u);
  ASSERT_TRUE(e.session().solver().RetractRule(added.value()));
  EXPECT_EQ(e.ValueOf(p), TruthValue::kUndefined);
}

// Ground rule deltas enter through the session: asserting a clause that
// derives p defeats the negative loop, and content-addressed retraction
// (of an asserted clause or a base rule) undoes it.
TEST(RuleDeltaTest, SessionClauseDeltasDefeatTheNegativeLoop) {
  Fixture f("p :- not q. q :- not p. q :- r. r.");
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Session& s = opened.value();
  const Term* p = MustParseTerm(f.store, "p");
  const Term* q = MustParseTerm(f.store, "q");
  EXPECT_EQ(s.Query(q).status, GoalStatus::kSuccessful);
  EXPECT_EQ(s.Query(p).status, GoalStatus::kFailed);

  // p :- r derives p outright; q keeps its own escape through r, so both
  // goals now succeed (the negative loop is fully defeated).
  const Clause p_r = MustParseProgram(f.store, "p :- r.").clauses()[0];
  bool changed = false;
  Result<RuleId> added = s.Assert(p_r, &changed);
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_TRUE(changed);
  EXPECT_EQ(s.Query(p).status, GoalStatus::kSuccessful);
  EXPECT_EQ(s.Query(q).status, GoalStatus::kSuccessful);

  ASSERT_TRUE(s.Retract(p_r));
  EXPECT_EQ(s.Query(p).status, GoalStatus::kFailed);
  EXPECT_EQ(s.Query(q).status, GoalStatus::kSuccessful);
  EXPECT_FALSE(s.Retract(p_r));  // already gone

  // Re-assert p :- r and retract the base rule q :- r: p wins the loop.
  ASSERT_TRUE(s.Assert(p_r).ok());
  ASSERT_TRUE(s.Retract(f.program.clauses()[2]));  // q :- r.
  EXPECT_EQ(s.Query(p).status, GoalStatus::kSuccessful);
  EXPECT_EQ(s.Query(q).status, GoalStatus::kFailed);

  Program nonground = MustParseProgram(f.store, "s(X) :- t(X).");
  EXPECT_FALSE(s.Assert(nonground.clauses()[0]).ok());
}

// The engine answers over the program it was given: a grown clause base
// (AddClause + ClearMemo) re-opens the oracle, and the next queries see
// every added clause.
TEST(RuleDeltaTest, GlobalSlsEngineSeesClauseBaseGrowth) {
  Fixture f("p :- not q. q :- not p. q :- r. r.");
  GlobalSlsEngine engine(f.program);
  const Term* p = MustParseTerm(f.store, "p");
  const Term* q = MustParseTerm(f.store, "q");
  EXPECT_EQ(engine.StatusOf(q), GoalStatus::kSuccessful);
  EXPECT_EQ(engine.StatusOf(p), GoalStatus::kFailed);

  f.program.AddClause(MustParseProgram(f.store, "p :- r.").clauses()[0]);
  engine.ClearMemo();
  EXPECT_EQ(engine.StatusOf(p), GoalStatus::kSuccessful);
  EXPECT_EQ(engine.StatusOf(q), GoalStatus::kSuccessful);

  f.program.AddClause(MustParseProgram(f.store, "s :- r.").clauses()[0]);
  engine.ClearMemo();
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "s")),
            GoalStatus::kSuccessful);
  EXPECT_EQ(engine.StatusOf(p), GoalStatus::kSuccessful);
  ASSERT_NE(engine.session(), nullptr);
  EXPECT_EQ(engine.session()->solver().program().rule_count(), 6u);
}

// After AddClause + ClearMemo, the enumerating search and the memoized
// point statuses resolve against the same clause base: `Solve(p(X))`
// answers exactly the ground instances `StatusOf` calls successful.
TEST(RuleDeltaTest, GlobalSlsEngineAnswersAgreeWithStatusesAfterAddClause) {
  Fixture f("t(a). s(b). p(X) :- s(X).");
  GlobalSlsEngine engine(f.program);
  const Goal goal = MustParseQuery(f.store, "p(X)");
  EXPECT_EQ(engine.Solve(goal).answers.size(), 1u);

  f.program.AddClause(
      MustParseProgram(f.store, "p(a) :- t(a).").clauses()[0]);
  engine.ClearMemo();
  QueryResult r = engine.Solve(goal);
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  std::set<const Term*> answered;
  for (const Answer& a : r.answers) {
    answered.insert(a.theta.Apply(f.store, goal[0].atom));
  }
  for (const char* c : {"a", "b"}) {
    const Term* instance = MustParseTerm(f.store, StrCat("p(", c, ")"));
    EXPECT_EQ(answered.count(instance) == 1,
              engine.StatusOf(instance) == GoalStatus::kSuccessful)
        << c;
  }
  EXPECT_EQ(answered.size(), 2u);
}

// A clause-base edit that takes the program out of the oracle's domain
// (here: a function-symbol clause) must discard the previously built
// oracle — a stale model must never seed the memo.
TEST(RuleDeltaTest, StaleOracleDiscardedWhenProgramLeavesItsDomain) {
  Fixture f("q :- not r.");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "q")),
            GoalStatus::kSuccessful);  // oracle built and memo seeded

  f.program.AddClause(MustParseProgram(f.store, "r.").clauses()[0]);
  f.program.AddClause(
      MustParseProgram(f.store, "deep(f(f(a))).").clauses()[0]);
  engine.ClearMemo();
  // Plain search must now see the updated program, not the stale model.
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "r")),
            GoalStatus::kSuccessful);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "q")),
            GoalStatus::kFailed);
}

// Order-respecting rule deltas must never pay a recondensation window —
// the localized repair's fast path is the common production shape.
TEST(RuleDeltaTest, DescendingDeltasSkipRecondensation) {
  Fixture f(workload::GameChain(64));
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  RuleId r = MustFindRule(inc, f.store, "win(n10)", {"move(n10, n11)"},
                          {"win(n11)"});
  ASSERT_TRUE(inc.RetractRule(r));
  ExpectAgreesEverywhere(inc, f.store, "chain rule retract");
  ASSERT_TRUE(inc.AssertRule(inc.program().rule(r)) == r);
  ExpectAgreesEverywhere(inc, f.store, "chain rule re-assert");
  ASSERT_NE(inc.condensation_stats(), nullptr);
  EXPECT_EQ(inc.condensation_stats()->windows, 0u);
  EXPECT_EQ(inc.stats().rule_deltas, 2u);
}

// --- Stable component ids ---------------------------------------------

/// Where the live condensation puts each atom: (component id, label).
std::vector<std::pair<uint32_t, uint64_t>> Placement(
    const IncrementalSolver& inc) {
  const AtomDependencyGraph& g = *inc.graph();
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (AtomId a = 0; a < g.atom_count(); ++a) {
    out.emplace_back(g.ComponentOf(a), g.Label(g.ComponentOf(a)));
  }
  return out;
}

/// Applies one rule delta with head `head` and checks the stable-id
/// contract after it: the auditor finds nothing, the model and levels
/// equal a fresh solve, and every atom outside the repair's dirty
/// components — the head's component before the delta (a split's pieces)
/// and after it (a merge) — keeps its component id and, unless the delta
/// relabelled a label block to make room, its label.
template <typename Delta>
void StableIdStep(IncrementalSolver& inc, AtomId head, Delta&& delta,
                  const std::string& context) {
  inc.Model();
  const auto before = Placement(inc);
  const uint64_t relabels = inc.condensation_stats()->relabels;
  std::set<AtomId> dirty;
  auto add_head_component = [&] {
    const AtomDependencyGraph& g = *inc.graph();
    for (AtomId a : g.Atoms(g.ComponentOf(head))) dirty.insert(a);
  };
  add_head_component();
  delta();
  add_head_component();
  const auto after = Placement(inc);
  const bool relabelled = inc.condensation_stats()->relabels != relabels;
  for (AtomId a = 0; a < before.size(); ++a) {
    if (dirty.count(a) != 0) continue;
    ASSERT_EQ(after[a].first, before[a].first)
        << context << ": atom " << a << " changed component id";
    if (!relabelled) {
      ASSERT_EQ(after[a].second, before[a].second)
          << context << ": atom " << a << " changed label";
    }
  }
  check::AuditReport report = check::AuditSolver(inc);
  ASSERT_TRUE(report.ok()) << context << ":\n" << report.ToString();
  const WfsModel& got = inc.Model();
  WfsModel want = inc.SolveFresh();
  ASSERT_EQ(got.model, want.model)
      << context << "\n"
      << DescribeModelDifference(inc.program(), got.model, want.model);
  ASSERT_EQ(got.true_stage, want.true_stage) << context;
  ASSERT_EQ(got.false_stage, want.false_stage) << context;
  report = check::AuditSolver(inc);
  ASSERT_TRUE(report.ok()) << context << " (after solve):\n"
                           << report.ToString();
}

// Asserting and retracting the same cycle-closing rule merges and splits
// one component over and over; the merge frees ids and the split takes
// them back, so the id bound stops growing after the first pair. The
// merge's dropped labels leave the gap the split refills, so the churn
// never runs out of labels and never relabels.
TEST(RuleDeltaTest, StableIdsReuseFreedIdsUnderCycleChurn) {
  std::string src = "win(X) :- move(X, Y), not win(Y).\n";
  for (int k = 0; k < 8; ++k) {
    for (int i = 0; i < 3; ++i) {
      src += StrCat("move(n", k, "_", i, ", n", k, "_", i + 1, ").\n");
    }
  }
  for (unsigned threads : {1u, 2u, 4u}) {
    Fixture f(src);
    IncrementalSolver inc(MustGround(f.program), Leveled(threads));
    inc.Model();
    GroundRule closing;
    closing.head = *inc.program().FindAtom(MustParseTerm(f.store, "win(n0_3)"));
    closing.neg = {*inc.program().FindAtom(MustParseTerm(f.store, "win(n0_0)"))};
    const uint32_t comps = inc.graph()->component_count();
    uint32_t bound_after_first = 0;
    for (int pair = 0; pair < 500; ++pair) {
      const std::string ctx = StrCat("threads ", threads, " pair ", pair);
      RuleId r = 0;
      StableIdStep(inc, closing.head, [&] { r = inc.AssertRule(closing); },
                   ctx + " assert");
      ASSERT_EQ(inc.graph()->component_count(), comps - 3) << ctx;
      StableIdStep(inc, closing.head, [&] { inc.RetractRule(r); },
                   ctx + " retract");
      ASSERT_EQ(inc.graph()->component_count(), comps) << ctx;
      if (pair == 0) bound_after_first = inc.graph()->id_bound();
    }
    EXPECT_EQ(inc.graph()->id_bound(), bound_after_first);
    EXPECT_GE(inc.condensation_stats()->merges, 500u);
    EXPECT_GE(inc.condensation_stats()->splits, 500u);
    EXPECT_EQ(inc.condensation_stats()->relabels, 0u);
  }
}

// A ladder a0 <- a1 <- ... <- aN closed back into a0 by one rule per rung:
// retracting the closing rules from the top splits the rung off the
// remaining cycle, each split halving the label gap the previous one
// left, until the gap is exhausted and a label block is relabelled. The
// relabel stays local: it touches a few dozen components, not the
// thousands of unrelated filler atoms.
TEST(RuleDeltaTest, StableIdsNestedSplitsRelabel) {
  constexpr int kRungs = 40;
  constexpr int kFiller = 4000;
  std::string src;
  for (int i = 0; i < kFiller; ++i) src += StrCat("filler(", i, ").\n");
  for (unsigned threads : {1u, 2u, 4u}) {
    Fixture f(src);
    IncrementalSolver inc(MustGround(f.program), Leveled(threads));
    inc.Model();
    std::vector<const Term*> rung;
    for (int i = 0; i <= kRungs; ++i) {
      rung.push_back(MustParseTerm(f.store, StrCat("a", i)));
    }
    auto atom = [&](int i) { return *inc.program().FindAtom(rung[i]); };
    std::vector<const Term*> no_terms;
    for (int i = 1; i <= kRungs; ++i) {
      std::vector<const Term*> neg = {rung[i - 1]};
      inc.AssertRule(rung[i], no_terms, neg);
    }
    std::vector<RuleId> closing(kRungs + 1);
    for (int i = 1; i <= kRungs; ++i) {
      GroundRule r;
      r.head = atom(0);
      r.neg = {atom(i)};
      StableIdStep(inc, r.head, [&] { closing[i] = inc.AssertRule(r); },
                   StrCat("threads ", threads, " close rung ", i));
    }
    for (int i = kRungs; i >= 1; --i) {
      StableIdStep(inc, atom(0), [&] { inc.RetractRule(closing[i]); },
                   StrCat("threads ", threads, " open rung ", i));
    }
    EXPECT_GE(inc.condensation_stats()->splits,
              static_cast<uint64_t>(kRungs));
    const DynamicCondensation::Stats& cs = *inc.condensation_stats();
    EXPECT_GE(cs.relabels, 1u);
    EXPECT_LE(cs.relabel_comps, cs.relabels * 4 * kRungs);
  }
}

}  // namespace
}  // namespace gsls
