#include "solver/incremental.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cone_oracle.h"
#include "core/engine.h"
#include "core/tabled.h"
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

/// After-every-delta invariant: the incremental model equals both a fresh
/// masked solve and the independent alternating-fixpoint reference.
void ExpectAgreesWithFresh(IncrementalSolver& inc, TermStore& store,
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
}

TruthValue ValueOf(IncrementalSolver& inc, TermStore& store,
                   std::string_view atom_src) {
  return inc.ValueOf(MustParseTerm(store, atom_src));
}

TEST(IncrementalTest, RetractingSoleSupportFalsifiesPositiveLoop) {
  // p and q lean on each other; the loop's only external support is e.
  Fixture f("e. p :- q. p :- e. q :- p.");
  IncrementalSolver inc(MustGround(f.program));
  EXPECT_EQ(ValueOf(inc, f.store, "p"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(inc, f.store, "q"), TruthValue::kTrue);

  ASSERT_TRUE(inc.Retract(MustParseTerm(f.store, "e")));
  EXPECT_EQ(ValueOf(inc, f.store, "e"), TruthValue::kFalse);
  // The loop is now unfounded: falsified wholesale, not left undefined.
  EXPECT_EQ(ValueOf(inc, f.store, "p"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(inc, f.store, "q"), TruthValue::kFalse);
  ExpectAgreesWithFresh(inc, f.store, "retract sole support");
}

TEST(IncrementalTest, AssertingFactDecidesUndefinedNegativeLoop) {
  Fixture f("p :- not q. q :- not p. r :- p.");
  IncrementalSolver inc(MustGround(f.program));
  EXPECT_EQ(ValueOf(inc, f.store, "p"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(inc, f.store, "q"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(inc, f.store, "r"), TruthValue::kUndefined);

  // Asserting q falsifies the previously-undefined loop partner p — and
  // r, above the loop, follows.
  ASSERT_TRUE(inc.Assert(MustParseTerm(f.store, "q")));
  EXPECT_EQ(ValueOf(inc, f.store, "q"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(inc, f.store, "p"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(inc, f.store, "r"), TruthValue::kFalse);
  ExpectAgreesWithFresh(inc, f.store, "assert into negative loop");
}

TEST(IncrementalTest, DeleteThenReassertRoundTripsToIdenticalModel) {
  std::string src = workload::GameCycleWithTail(9, 8);
  Fixture f(src);
  IncrementalSolver inc(MustGround(f.program));
  Interpretation before = inc.Model().model;
  ASSERT_FALSE(before.IsTotal());  // odd cycle: some positions drawn

  const Term* fact = MustParseTerm(f.store, "move(t4, t5)");
  ASSERT_TRUE(inc.Retract(fact));
  ExpectAgreesWithFresh(inc, f.store, "cycle+tail after retract");
  ASSERT_TRUE(inc.Assert(fact));
  ExpectAgreesWithFresh(inc, f.store, "cycle+tail after reassert");
  EXPECT_EQ(inc.Model().model, before);

  // Same round-trip through a fact feeding the negative cycle itself.
  const Term* cycle_fact = MustParseTerm(f.store, "move(c1, c2)");
  ASSERT_TRUE(inc.Retract(cycle_fact));
  ExpectAgreesWithFresh(inc, f.store, "cycle fact retracted");
  ASSERT_TRUE(inc.Assert(cycle_fact));
  EXPECT_EQ(inc.Model().model, before);
}

TEST(IncrementalTest, AssertNewAtomRegistersAndRetracts) {
  Fixture f("p :- not q.");
  IncrementalSolver inc(MustGround(f.program));
  inc.Model();  // initial full solve, so the rebuild below is observable
  size_t atoms_before = inc.program().atom_count();

  const Term* fresh = MustParseTerm(f.store, "brand_new");
  EXPECT_EQ(inc.ValueOf(fresh), TruthValue::kFalse);  // unregistered
  ASSERT_TRUE(inc.Assert(fresh));
  EXPECT_EQ(inc.ValueOf(fresh), TruthValue::kTrue);
  EXPECT_EQ(inc.program().atom_count(), atoms_before + 1);
  EXPECT_EQ(inc.stats().graph_rebuilds, 1u);  // new node: lazy rebuild
  ExpectAgreesWithFresh(inc, f.store, "assert new atom");

  // Registered but factless after retraction: false, not undefined.
  ASSERT_TRUE(inc.Retract(fresh));
  EXPECT_EQ(inc.ValueOf(fresh), TruthValue::kFalse);
  EXPECT_EQ(inc.stats().graph_rebuilds, 1u);  // no new node: no rebuild
  ExpectAgreesWithFresh(inc, f.store, "retract new atom");
}

TEST(IncrementalTest, RedundantDeltasReportNoChange) {
  Fixture f("e. p :- e.");
  IncrementalSolver inc(MustGround(f.program));
  const Term* e = MustParseTerm(f.store, "e");
  EXPECT_FALSE(inc.Assert(e));  // already an enabled fact
  ASSERT_TRUE(inc.Retract(e));
  EXPECT_FALSE(inc.Retract(e));  // already retracted
  EXPECT_FALSE(inc.Retract(MustParseTerm(f.store, "p")));  // derived, no fact
  ExpectAgreesWithFresh(inc, f.store, "redundant deltas");
}

TEST(IncrementalTest, UpConeIsChangePruned) {
  // chain(64): win(n1) is already won, so asserting it as a fact re-solves
  // exactly one component — the cone is cut before any dependent.
  Fixture f(workload::GameChain(64));
  IncrementalSolver inc(MustGround(f.program));
  ASSERT_EQ(inc.Model().model.Value(
                *inc.program().FindAtom(MustParseTerm(f.store, "win(n1)"))),
            TruthValue::kTrue);
  uint64_t resolved_before = inc.stats().components_resolved;
  ASSERT_TRUE(inc.Assert(MustParseTerm(f.store, "win(n1)")));
  inc.Model();
  EXPECT_EQ(inc.stats().components_resolved, resolved_before + 1);
  EXPECT_EQ(inc.stats().cone_cutoffs, 1u);
  EXPECT_GT(inc.stats().components_reused, 0u);
  ExpectAgreesWithFresh(inc, f.store, "assert already-true win");
}

TEST(IncrementalTest, RandomizedChurnAgreesWithFreshSolve) {
  // The headline property, and most of the >= 400 delta trials: after
  // every single delta the incremental model equals a fresh solve and the
  // independent alternating-fixpoint reference.
  int deltas_checked = 0;
  {
    Rng prng(0xD317Au);
    for (int trial = 0; trial < 25; ++trial) {
      std::string src = workload::RandomPropositional(
          prng, /*num_preds=*/8, /*num_rules=*/14, /*max_body=*/4);
      Fixture f(src);
      IncrementalSolver inc(MustGround(f.program));
      inc.Model();
      for (int d = 0; d < 10; ++d) {
        AtomId a = static_cast<AtomId>(prng.UniformInt(
            0, static_cast<int>(inc.program().atom_count()) - 1));
        if (inc.HasFact(a)) {
          inc.RetractAtom(a);
        } else {
          inc.AssertAtom(a);
        }
        ExpectAgreesWithFresh(
            inc, f.store,
            StrCat("prop trial ", trial, " delta ", d, "\n", src));
        ++deltas_checked;
      }
    }
  }
  {
    Rng grng(0xD317Bu);
    for (int trial = 0; trial < 18; ++trial) {
      std::string src = workload::RandomGame(grng, 8, 30);
      Fixture f(src);
      IncrementalSolver inc(MustGround(f.program));
      inc.Model();
      for (int d = 0; d < 10; ++d) {
        AtomId a = static_cast<AtomId>(grng.UniformInt(
            0, static_cast<int>(inc.program().atom_count()) - 1));
        if (inc.HasFact(a)) {
          inc.RetractAtom(a);
        } else {
          inc.AssertAtom(a);
        }
        ExpectAgreesWithFresh(
            inc, f.store,
            StrCat("game trial ", trial, " delta ", d, "\n", src));
        ++deltas_checked;
      }
    }
  }
  EXPECT_GE(deltas_checked, 400);
}

// The fact-delta benchmark families at their timed sizes: 60 random
// toggles of fact atoms each, every delta against a fresh masked solve.
TEST(IncrementalTest, WorkloadFamilyChurnAgreesWithFreshSolve) {
  Rng rng(20260728);
  const std::string sources[] = {
      workload::GameChain(256),
      workload::GameChain(1024),
      workload::GameChain(2048),
      workload::GameGrid(24, 24),
      workload::GameCycleWithTail(101, 100),
      workload::RandomGame(rng, 64, 10),
  };
  for (size_t family = 0; family < std::size(sources); ++family) {
    Fixture f(sources[family]);
    IncrementalSolver inc(MustGround(f.program));
    inc.Model();
    std::vector<AtomId> facts;
    for (AtomId a = 0; a < inc.program().atom_count(); ++a) {
      if (inc.program().FindUnitRule(a).has_value()) facts.push_back(a);
    }
    ASSERT_FALSE(facts.empty()) << "family " << family;
    Rng delta_rng(0x1C0FFEEu);
    for (int d = 0; d < 60; ++d) {
      const AtomId a = facts[delta_rng.Uniform(facts.size())];
      if (inc.HasFact(a)) {
        inc.RetractAtom(a);
      } else {
        inc.AssertAtom(a);
      }
      const WfsModel& got = inc.Model();
      WfsModel fresh = inc.SolveFresh();
      ASSERT_EQ(got.model, fresh.model)
          << "family " << family << " delta " << d << ":\n"
          << DescribeModelDifference(inc.program(), got.model, fresh.model);
    }
  }
}

TEST(IncrementalTest, TabledEngineWithoutStagesMatchesStagedEngine) {
  Rng rng(0x7AB1Du);
  for (int trial = 0; trial < 20; ++trial) {
    std::string src = workload::RandomGame(rng, 7, 30);
    Fixture f(src);
    TabledOptions fast;
    fast.solver.compute_levels = false;
    Result<TabledEngine> staged = TabledEngine::Create(f.program);
    Result<TabledEngine> modelonly = TabledEngine::Create(f.program, fast);
    ASSERT_TRUE(staged.ok());
    ASSERT_TRUE(modelonly.ok());
    const GroundProgram& gp = staged->ground();
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      const Term* atom = gp.AtomTerm(a);
      EXPECT_EQ(staged->ValueOf(atom), modelonly->ValueOf(atom)) << src;
      EXPECT_EQ(staged->StatusOf(atom), modelonly->StatusOf(atom)) << src;
    }
    // Query answering agrees up to levels (the model-only engine reports
    // approximate levels, never wrong statuses or answer sets).
    QueryResult qa = staged->Solve(MustParseQuery(f.store, "win(X)"));
    QueryResult qb = modelonly->Solve(MustParseQuery(f.store, "win(X)"));
    EXPECT_EQ(qa.status, qb.status) << src;
    EXPECT_EQ(qa.answers.size(), qb.answers.size()) << src;
  }
}

TEST(IncrementalTest, TabledEngineFactDeltas) {
  Fixture f("win(X) :- move(X, Y), not win(Y). move(a, b). move(b, c).");
  TabledOptions fast;
  fast.solver.compute_levels = false;
  Result<TabledEngine> engine = TabledEngine::Create(f.program, fast);
  ASSERT_TRUE(engine.ok());
  const Term* win_a = MustParseTerm(f.store, "win(a)");
  const Term* win_b = MustParseTerm(f.store, "win(b)");
  // b -> c (dead end): win(b) holds, so win(a) fails.
  EXPECT_EQ(engine->ValueOf(win_a), TruthValue::kFalse);
  EXPECT_EQ(engine->ValueOf(win_b), TruthValue::kTrue);

  // Retracting move(b, c) strands b, flipping win(a).
  ASSERT_TRUE(engine->session().Retract(MustParseTerm(f.store, "move(b, c)")));
  // No-op deltas report no change.
  EXPECT_FALSE(engine->session().Retract(MustParseTerm(f.store, "move(b, c)")));
  EXPECT_FALSE(engine->session().Retract(MustParseTerm(f.store, "win(a)")));
  EXPECT_EQ(engine->ValueOf(win_a), TruthValue::kTrue);
  EXPECT_EQ(engine->ValueOf(win_b), TruthValue::kFalse);
  // Levels are unavailable without stages; statuses still exact.
  EXPECT_EQ(engine->StatusOf(win_a), GoalStatus::kSuccessful);
  EXPECT_FALSE(engine->LevelOf(win_a).has_value());

  // A staged engine takes the same deltas and keeps its levels fresh
  // (regression: this used to be a silent no-op returning false). The full
  // delta/level matrix lives in stages_test.cc.
  Result<TabledEngine> staged = TabledEngine::Create(f.program);
  ASSERT_TRUE(staged.ok());
  EXPECT_TRUE(staged->session().Retract(MustParseTerm(f.store, "move(b, c)")));
  EXPECT_FALSE(staged->session().Retract(MustParseTerm(f.store, "move(b, c)")));
  EXPECT_EQ(staged->ValueOf(win_a), TruthValue::kTrue);
  EXPECT_TRUE(staged->LevelOf(win_a).has_value());
}

TEST(IncrementalTest, EngineOracleIsReusedAcrossMemoClears) {
  Fixture f(workload::GameChain(24));
  GlobalSlsEngine engine(f.program);
  QueryResult first = engine.Solve(MustParseQuery(f.store, "win(n1)"));
  EXPECT_EQ(first.status, GoalStatus::kSuccessful);
  ASSERT_NE(engine.session(), nullptr);
  const IncrementalSolver* oracle = &engine.session()->solver();
  EXPECT_EQ(oracle->stats().full_solves, 1u);

  engine.ClearMemo();
  QueryResult second = engine.Solve(MustParseQuery(f.store, "win(n1)"));
  EXPECT_EQ(second.status, GoalStatus::kSuccessful);
  // Same incremental instance, and no re-solve happened: the cached model
  // was reused to refill the memo.
  EXPECT_EQ(&engine.session()->solver(), oracle);
  EXPECT_EQ(oracle->stats().full_solves, 1u);
  EXPECT_EQ(oracle->stats().incremental_solves, 0u);
}

TEST(IncrementalTest, EngineOracleRebuildsAfterProgramMutation) {
  // Growing the program and clearing the memo must not answer from the
  // stale oracle model.
  Fixture f("p :- not q.");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "p")),
            GoalStatus::kSuccessful);

  Program extra = MustParseProgram(f.store, "q.");
  f.program.AddClause(extra.clauses()[0]);
  engine.ClearMemo();
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "q")),
            GoalStatus::kSuccessful);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "p")),
            GoalStatus::kFailed);
}

// The cone pass's cost, pinned: after a batch of fact toggles the delta
// pass re-solves exactly the components the models say it owes — those
// holding a dirty atom, plus the head component of every enabled rule
// that mentions a moved atom of another component — at every thread
// count, so the pool executor keeps the heap's change pruning.
class DeltaConeCostTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DeltaConeCostTest, ResolvesExactlyTheOwedComponents) {
  const unsigned threads = GetParam();
  Rng rng(0xC0FFEEu);
  int multi_seed_batches = 0;
  for (int trial = 0; trial < 12; ++trial) {
    Fixture f(trial % 2 == 0 ? workload::GameForest(rng, 6, 8, 25)
                             : workload::RandomGame(rng, 14, 18));
    SolverOptions opts;
    opts.num_threads = threads;
    opts.compute_levels = true;
    IncrementalSolver inc(MustGround(f.program), opts);
    inc.EnableResolveLog();
    inc.Model();
    inc.TakeResolveLog();
    for (int batch = 0; batch < 10; ++batch) {
      const std::string context =
          StrCat("threads ", threads, " trial ", trial, " batch ", batch);
      WfsModel before = inc.SolveFresh();
      std::vector<AtomId> dirty = testing::ToggleRandomFacts(inc, rng);
      WfsModel after = inc.SolveFresh();
      const uint64_t resolved_before = inc.stats().components_resolved;
      ASSERT_EQ(inc.Model().model, after.model) << context;
      std::set<uint32_t> owed = testing::OwedComponents(
          inc, dirty, testing::MovedAtoms(before, after));
      EXPECT_EQ(testing::ResolvedComponents(inc), owed) << context;
      EXPECT_EQ(inc.stats().components_resolved - resolved_before, owed.size())
          << context;
      std::set<uint32_t> seeds;
      for (AtomId a : dirty) seeds.insert(inc.graph()->ComponentOf(a));
      if (seeds.size() > 1) ++multi_seed_batches;
    }
  }
  EXPECT_GT(multi_seed_batches, 20);  // the pool executor ran when threaded
}

INSTANTIATE_TEST_SUITE_P(Threads, DeltaConeCostTest,
                         ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace gsls
