// Stage/level reconstruction from the SCC schedule (solver/stages.h):
// agreement with the quadratic V_P iteration oracle (`ComputeWfsStages`,
// Def. 2.4) atom-for-atom, thread-count invariance, maintenance across
// incremental fact deltas, and the engine-facing contract that replaced
// the retired staged/incremental `TabledEngine` split.

#include "solver/stages.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/tabled.h"
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

/// Asserts that a leveled solver model agrees with the V_P iteration on
/// `gp`: same partial model, same stage for every literal of the model,
/// and stage 0 for every literal outside it.
void ExpectLevelsMatchOracle(const GroundProgram& gp, const WfsModel& got,
                             const std::string& context) {
  ASSERT_TRUE(got.has_levels) << context;
  WfsStages oracle = ComputeWfsStages(gp);
  ASSERT_EQ(got.model, oracle.model)
      << context << "\nmodel diff:\n"
      << DescribeModelDifference(gp, got.model, oracle.model);
  ASSERT_EQ(got.true_stage.size(), gp.atom_count()) << context;
  ASSERT_EQ(got.false_stage.size(), gp.atom_count()) << context;
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    EXPECT_EQ(got.true_stage[a], oracle.true_stage[a])
        << context << "\ntrue stage of " << gp.store().ToString(gp.AtomTerm(a));
    EXPECT_EQ(got.false_stage[a], oracle.false_stage[a])
        << context << "\nfalse stage of "
        << gp.store().ToString(gp.AtomTerm(a));
  }
}

SolverOptions LeveledOptions(unsigned threads = 1) {
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  return opts;
}

/// The families the level benchmarks time, at their timed sizes.
std::vector<std::string> LevelBenchmarkFamilies() {
  Rng rng(20260729);
  return {
      workload::GameChain(256),
      workload::GameChain(1024),
      workload::GameGrid(16, 16),
      workload::GameCycleWithTail(33, 32),
      workload::RandomGame(rng, 64, 10),
      workload::RandomGame(rng, 96, 6),
      workload::GameForest(rng, 8, 24, 12),
  };
}

TEST(StagesTest, PaperExamplesAgreeWithVpIteration) {
  const std::string sources[] = {
      workload::VanGelderProgram(),
      workload::Example32Program(),
      workload::Example33Program(),
      workload::GameChain(24),
      workload::GameCycleWithTail(9, 8),
      workload::GameGrid(6, 6),
      // The Sec. 2.4 stage example of wfs_test, plus degenerate shapes.
      "win(X) :- move(X, Y), not win(Y). move(n1, n2). move(n2, n3).",
      "p :- not q. q :- not p. r :- p. r :- q.",
      "a :- b. b :- a. b :- not c.",
      "p.",
  };
  for (const std::string& src : sources) {
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    WfsModel leveled = SolveWfs(gp, LeveledOptions());
    ExpectLevelsMatchOracle(gp, leveled, "program:\n" + src);
  }
}

TEST(StagesTest, KnownChainStages) {
  // Chain n1 -> n2 -> n3: the alternation of Def. 2.4 (win(n3) falls at 1,
  // win(n2) derives at 2, win(n1) falls at 3; move facts derive at 1).
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = SolveWfs(gp, LeveledOptions());
  auto tstage = [&](std::string_view a) {
    return m.true_stage[*gp.FindAtom(MustParseTerm(f.store, a))];
  };
  auto fstage = [&](std::string_view a) {
    return m.false_stage[*gp.FindAtom(MustParseTerm(f.store, a))];
  };
  EXPECT_EQ(fstage("win(n3)"), 1u);
  EXPECT_EQ(tstage("move(n1, n2)"), 1u);
  EXPECT_EQ(tstage("win(n2)"), 2u);
  EXPECT_EQ(fstage("win(n1)"), 3u);
}

TEST(StagesTest, RandomizedLevelsAgreeWithVpIteration) {
  // The headline property: >= 300 random programs, every literal's stage
  // equal to the V_P iteration's, across both workload families.
  int programs_checked = 0;
  {
    Rng rng(0x57A6E5u);
    for (int trial = 0; trial < 160; ++trial) {
      std::string src = workload::RandomPropositional(
          rng, /*num_preds=*/8, /*num_rules=*/15, /*max_body=*/4);
      Fixture f(src);
      GroundProgram gp = MustGround(f.program);
      WfsModel leveled = SolveWfs(gp, LeveledOptions());
      ExpectLevelsMatchOracle(
          gp, leveled, StrCat("prop trial ", trial, "\n", src));
      ++programs_checked;
    }
  }
  {
    Rng rng(0x57A6E6u);
    for (int trial = 0; trial < 150; ++trial) {
      std::string src = workload::RandomGame(rng, 9, 25);
      Fixture f(src);
      GroundProgram gp = MustGround(f.program);
      WfsModel leveled = SolveWfs(gp, LeveledOptions());
      ExpectLevelsMatchOracle(
          gp, leveled, StrCat("game trial ", trial, "\n", src));
      ++programs_checked;
    }
  }
  {
    Rng rng(0xBEEFu);
    for (int trial = 0; trial < 120; ++trial) {
      std::string src = workload::RandomPropositional(rng, 9, 16, 4);
      Fixture f(src);
      GroundProgram gp = MustGround(f.program);
      WfsModel leveled = SolveWfs(gp, LeveledOptions());
      ExpectLevelsMatchOracle(
          gp, leveled, StrCat("small prop trial ", trial, "\n", src));
      ++programs_checked;
    }
  }
  EXPECT_GE(programs_checked, 300);
}

TEST(StagesTest, LevelsAreThreadCountInvariant) {
  // Workers reconstruct stages of disjoint components under the same DAG
  // release order that makes the model schedule-independent; the levels
  // must be bit-identical at any worker count.
  Rng rng(0x7C0DEu);
  std::vector<std::string> sources;
  sources.push_back(workload::VanGelderProgram());
  sources.push_back(workload::GameChain(48));
  for (int t = 0; t < 30; ++t) {
    sources.push_back(workload::GameForest(rng, 4, 8, 30));
  }
  for (int t = 0; t < 30; ++t) {
    sources.push_back(workload::RandomPropositional(rng, 10, 18, 4));
  }
  for (std::string& src : LevelBenchmarkFamilies()) {
    sources.push_back(std::move(src));
  }
  for (size_t i = 0; i < sources.size(); ++i) {
    Fixture f(sources[i]);
    GroundProgram gp = MustGround(f.program);
    WfsModel seq = SolveWfs(gp, LeveledOptions(1));
    ExpectLevelsMatchOracle(gp, seq,
                            StrCat("sequential, program ", i, "\n",
                                   sources[i]));
    for (unsigned threads : {2u, 4u}) {
      WfsModel par = SolveWfs(gp, LeveledOptions(threads));
      ASSERT_EQ(par.model, seq.model)
          << "threads=" << threads << " program " << i;
      EXPECT_EQ(par.true_stage, seq.true_stage)
          << "threads=" << threads << " program " << i << "\n" << sources[i];
      EXPECT_EQ(par.false_stage, seq.false_stage)
          << "threads=" << threads << " program " << i << "\n" << sources[i];
    }
  }
}

TEST(StagesTest, LevelsOffCostsNothingAndCarriesNothing) {
  Fixture f(workload::GameChain(16));
  GroundProgram gp = MustGround(f.program);
  WfsModel plain = SolveWfs(gp);
  EXPECT_FALSE(plain.has_levels);
  EXPECT_TRUE(plain.true_stage.empty());
  EXPECT_TRUE(plain.false_stage.empty());
}

TEST(StagesTest, IncrementalChurnMaintainsExactLevels) {
  // After every delta the maintained levels must equal both a fresh
  // leveled solve of the masked program and the V_P iteration over an
  // independently rebuilt enabled-rules program.
  int deltas_checked = 0;
  auto churn = [&](IncrementalSolver& inc, Fixture& f, Rng& rng,
                   const std::string& src, int trial, int deltas = 8) {
    inc.Model();
    for (int d = 0; d < deltas; ++d) {
      AtomId a = static_cast<AtomId>(rng.UniformInt(
          0, static_cast<int>(inc.program().atom_count()) - 1));
      if (inc.HasFact(a)) {
        inc.RetractAtom(a);
      } else {
        inc.AssertAtom(a);
      }
      const WfsModel& maintained = inc.Model();
      std::string context = StrCat("trial ", trial, " delta ", d, "\n", src);
      WfsModel fresh = inc.SolveFresh();
      ASSERT_TRUE(fresh.has_levels) << context;
      ASSERT_EQ(maintained.model, fresh.model)
          << context << "\n"
          << DescribeModelDifference(inc.program(), maintained.model,
                                     fresh.model);
      EXPECT_EQ(maintained.true_stage, fresh.true_stage) << context;
      EXPECT_EQ(maintained.false_stage, fresh.false_stage) << context;
      GroundProgram rebuilt = RebuildEnabled(inc, f.store);
      ExpectLevelsMatchOracle(rebuilt, maintained, context);
      ++deltas_checked;
    }
  };
  {
    Rng rng(0x1E7E15u);
    for (int trial = 0; trial < 12; ++trial) {
      std::string src = workload::RandomPropositional(rng, 8, 14, 4);
      Fixture f(src);
      IncrementalSolver inc(MustGround(f.program), LeveledOptions());
      churn(inc, f, rng, src, trial);
    }
  }
  {
    Rng rng(0x1E7E16u);
    for (int trial = 0; trial < 10; ++trial) {
      std::string src = workload::RandomGame(rng, 8, 30);
      Fixture f(src);
      IncrementalSolver inc(MustGround(f.program), LeveledOptions());
      churn(inc, f, rng, src, trial);
    }
  }
  // Threaded churn: the parallel up-cone re-solve maintains the same
  // levels as the sequential heap.
  {
    Rng rng(0x1E7E17u);
    for (int trial = 0; trial < 6; ++trial) {
      std::string src = workload::GameForest(rng, 3, 7, 30);
      Fixture f(src);
      IncrementalSolver inc(MustGround(f.program), LeveledOptions(4));
      churn(inc, f, rng, src, trial + 100);
    }
  }
  {
    std::vector<std::string> sources = LevelBenchmarkFamilies();
    for (size_t i = 0; i < sources.size(); ++i) {
      Rng rng(0x1EEE15u);
      Fixture f(sources[i]);
      IncrementalSolver inc(MustGround(f.program), LeveledOptions());
      churn(inc, f, rng, sources[i], static_cast<int>(i) + 200, 24);
    }
  }
  EXPECT_GE(deltas_checked, 200);
}

TEST(StagesTest, AssertRetractStageShiftRecomputesDependents) {
  // Asserting an already-derived atom as a fact pulls its stage down to 1
  // without flipping any truth value; dependents' stages must follow (the
  // cone pruning compares stages, not just values).
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3). move(n3, n4).\n");
  IncrementalSolver inc(MustGround(f.program), LeveledOptions());
  const GroundProgram& gp = inc.program();
  AtomId win3 = *gp.FindAtom(MustParseTerm(f.store, "win(n3)"));
  AtomId win2 = *gp.FindAtom(MustParseTerm(f.store, "win(n2)"));
  AtomId win1 = *gp.FindAtom(MustParseTerm(f.store, "win(n1)"));
  {
    const WfsModel& m = inc.Model();
    EXPECT_EQ(m.true_stage[win3], 2u);   // not win(n4) settles at 1
    EXPECT_EQ(m.false_stage[win2], 3u);
    EXPECT_EQ(m.true_stage[win1], 4u);
  }
  // win(n3) as a fact: still true, but now at stage 1 — and the whole
  // alternation above it shifts down even though no value changes.
  ASSERT_TRUE(inc.AssertAtom(win3));
  {
    const WfsModel& m = inc.Model();
    EXPECT_EQ(m.model.Value(win3), TruthValue::kTrue);
    EXPECT_EQ(m.true_stage[win3], 1u);
    EXPECT_EQ(m.false_stage[win2], 2u);
    EXPECT_EQ(m.true_stage[win1], 3u);
  }
  // Retraction restores the original stages exactly.
  ASSERT_TRUE(inc.RetractAtom(win3));
  {
    const WfsModel& m = inc.Model();
    EXPECT_EQ(m.true_stage[win3], 2u);
    EXPECT_EQ(m.false_stage[win2], 3u);
    EXPECT_EQ(m.true_stage[win1], 4u);
  }
}

TEST(StagesTest, TabledEngineFactDeltasWorkWithStages) {
  // Regression for the retired staged/incremental split: an engine created
  // with levels on (the default) used to silently refuse fact deltas,
  // returning false. Now every engine takes them, returns the changed-bit
  // symmetrically, and keeps serving exact levels afterwards.
  Fixture f("win(X) :- move(X, Y), not win(Y). move(a, b). move(b, c).");
  Result<TabledEngine> engine = TabledEngine::Create(f.program);
  ASSERT_TRUE(engine.ok());
  const Term* win_a = MustParseTerm(f.store, "win(a)");
  const Term* win_b = MustParseTerm(f.store, "win(b)");
  const Term* move_bc = MustParseTerm(f.store, "move(b, c)");
  EXPECT_EQ(engine->ValueOf(win_a), TruthValue::kFalse);
  EXPECT_EQ(engine->LevelOf(win_a), Ordinal::Finite(3));

  // Retract: changed-bit true, then a no-op returns false (symmetry with
  // Assert below — neither direction is a silent no-op anymore).
  ASSERT_TRUE(engine->session().Retract(move_bc));
  EXPECT_FALSE(engine->session().Retract(move_bc));
  EXPECT_EQ(engine->ValueOf(win_a), TruthValue::kTrue);
  EXPECT_EQ(engine->ValueOf(win_b), TruthValue::kFalse);
  // Levels re-derived through the up-cone: win(b) strands at stage 1,
  // win(a) derives at 2.
  EXPECT_EQ(engine->LevelOf(win_b), Ordinal::Finite(1));
  EXPECT_EQ(engine->LevelOf(win_a), Ordinal::Finite(2));

  ASSERT_TRUE(engine->session().Assert(move_bc));
  EXPECT_FALSE(engine->session().Assert(move_bc));
  EXPECT_EQ(engine->ValueOf(win_a), TruthValue::kFalse);
  EXPECT_EQ(engine->LevelOf(win_a), Ordinal::Finite(3));

  // Answer levels stay exact on a staged engine after deltas.
  QueryResult r = engine->Solve(MustParseQuery(f.store, "win(X)"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_TRUE(r.level_exact);
}

TEST(StagesTest, TabledEngineLevelsMatchOracleAfterChurn) {
  Rng rng(0x7AB5E5u);
  for (int trial = 0; trial < 8; ++trial) {
    std::string src = workload::RandomGame(rng, 7, 30);
    Fixture f(src);
    Result<TabledEngine> engine = TabledEngine::Create(f.program);
    ASSERT_TRUE(engine.ok());
    const GroundProgram& gp = engine->ground();
    // A couple of random fact flips through the public delta API...
    for (int d = 0; d < 4; ++d) {
      AtomId a = static_cast<AtomId>(rng.UniformInt(
          0, static_cast<int>(gp.atom_count()) - 1));
      const Term* atom = gp.AtomTerm(a);
      if (!engine->session().Retract(atom)) engine->session().Assert(atom);
    }
    // ...then every served level must equal the V_P oracle over the
    // enabled rules of the engine's solver.
    GroundProgram rebuilt = RebuildEnabled(engine->solver(), f.store);
    WfsStages oracle = ComputeWfsStages(rebuilt);
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      const Term* atom = gp.AtomTerm(a);
      std::optional<Ordinal> level = engine->LevelOf(atom);
      switch (engine->ValueOf(atom)) {
        case TruthValue::kTrue:
          ASSERT_TRUE(level.has_value()) << src;
          EXPECT_EQ(*level, Ordinal::Finite(oracle.true_stage[a]))
              << src << "\natom " << f.store.ToString(atom);
          break;
        case TruthValue::kFalse:
          ASSERT_TRUE(level.has_value()) << src;
          EXPECT_EQ(*level, Ordinal::Finite(oracle.false_stage[a]))
              << src << "\natom " << f.store.ToString(atom);
          break;
        case TruthValue::kUndefined:
          EXPECT_FALSE(level.has_value()) << src;
          break;
      }
    }
  }
}

TEST(StagesTest, EngineOracleLevelsComeFromReconstruction) {
  // The global SLS engine's exact levels are now fed by the solver's
  // reconstruction; they must still match the V_P oracle literal for
  // literal (the Cor. 4.6 correspondence bench gates this at scale).
  // Function-free programs only: that is the class on which the bottom-up
  // oracle engages and serves exact levels at all.
  Rng rng(0x0AC1Eu);
  for (const std::string& src :
       {workload::GameChain(16), workload::RandomGame(rng, 6, 30),
        workload::GameCycleWithTail(5, 4)}) {
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    WfsStages oracle = ComputeWfsStages(gp);
    GlobalSlsEngine engine(f.program);
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      const Term* atom = gp.AtomTerm(a);
      QueryResult r = engine.SolveAtom(atom);
      if (r.status == GoalStatus::kSuccessful && r.level_exact) {
        EXPECT_EQ(r.answers[0].level,
                  Ordinal::Finite(oracle.true_stage[a]))
            << src << "\natom " << f.store.ToString(atom);
      } else if (r.status == GoalStatus::kFailed && r.level_exact) {
        EXPECT_EQ(r.level, Ordinal::Finite(oracle.false_stage[a]))
            << src << "\natom " << f.store.ToString(atom);
      }
    }
  }
}

}  // namespace
}  // namespace gsls
