#include "core/engine.h"

#include <gtest/gtest.h>

#include "test_support.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

GoalStatus StatusOfAtom(Fixture& f, GlobalSlsEngine& engine,
                        std::string_view atom) {
  return engine.StatusOf(MustParseTerm(f.store, atom));
}

TEST(EngineTest, FactSucceedsAtLevelOne) {
  Fixture f("p.");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].level, Ordinal::Finite(1));
  EXPECT_TRUE(r.level_exact);
}

TEST(EngineTest, NoRuleFailsAtLevelOne) {
  Fixture f("p.");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "q"));
  EXPECT_EQ(r.status, GoalStatus::kFailed);
  EXPECT_EQ(r.level, Ordinal::Finite(1));
}

TEST(EngineTest, NegationAsFailureSucceeds) {
  Fixture f("p :- not q.");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  // q fails at level 1; the negation node succeeds at 1; p at 2.
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].level, Ordinal::Finite(2));
}

TEST(EngineTest, PositiveLoopFails) {
  Fixture f("p :- p.");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "p"), GoalStatus::kFailed);
}

TEST(EngineTest, MutualPositiveLoopFails) {
  Fixture f("p :- q. q :- p.");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "p"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "q"), GoalStatus::kFailed);
}

TEST(EngineTest, SelfNegationIsIndeterminate) {
  Fixture f("p :- not p.");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "p"), GoalStatus::kIndeterminate);
}

TEST(EngineTest, NegativeTwoCycleIsIndeterminate) {
  Fixture f("p :- not q. q :- not p.");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "p"), GoalStatus::kIndeterminate);
  EXPECT_EQ(StatusOfAtom(f, engine, "q"), GoalStatus::kIndeterminate);
}

TEST(EngineTest, LoopWithEscapeHatchSucceeds) {
  // q has a fact besides the loop: q true, p false.
  Fixture f("p :- not q. q :- not p. q.");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "q"), GoalStatus::kSuccessful);
  EXPECT_EQ(StatusOfAtom(f, engine, "p"), GoalStatus::kFailed);
}

TEST(EngineTest, WinGameChainStatusesAndLevels) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n3)"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n2)"), GoalStatus::kSuccessful);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n1)"), GoalStatus::kFailed);
}

TEST(EngineTest, WinGameCycleIsIndeterminate) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(b, a).\n");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(a)"), GoalStatus::kIndeterminate);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(b)"), GoalStatus::kIndeterminate);
}

TEST(EngineTest, WinGameCycleWithEscape) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(b, a). move(b, c).\n");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(c)"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(b)"), GoalStatus::kSuccessful);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(a)"), GoalStatus::kFailed);
}

TEST(EngineTest, AnswerEnumeration) {
  Fixture f(
      "edge(a, b). edge(b, c). edge(a, c).\n"
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Y) :- edge(X, Z), path(Z, Y).\n");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "path(a, X)"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_EQ(r.answers.size(), 2u);  // X = b, X = c
}

TEST(EngineTest, AnswersAreSoundBindings) {
  Fixture f(
      "p(a). p(b). q(b).\n"
      "r(X) :- p(X), not q(X).\n");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "r(X)"));
  ASSERT_EQ(r.status, GoalStatus::kSuccessful);
  ASSERT_EQ(r.answers.size(), 1u);
  const Goal goal = MustParseQuery(f.store, "r(X)");
  // The answer must ground r(X) to r(a).
  Goal q2 = MustParseQuery(f.store, "r(X)");
  // Apply to the atom of the original query result's substitution.
  // (The variable ids differ per parse; check via the bound term's text.)
  ASSERT_EQ(r.answers[0].theta.bindings().size(), 1u);
  const Term* bound = r.answers[0].theta.bindings().begin()->second;
  EXPECT_EQ(f.store.ToString(bound), "a");
}

TEST(EngineTest, FloundersOnNonGroundNegation) {
  Fixture f("p(X) :- not q(f(X)). q(a).");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p(X)"));
  EXPECT_EQ(r.status, GoalStatus::kFloundered);
}

TEST(EngineTest, GroundInstanceOfFlounderingGoalSucceeds) {
  // Sec. 6: <- p(X) flounders, yet every ground instance succeeds.
  Fixture f("p(X) :- not q(f(X)). q(a).");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "p(a)"), GoalStatus::kSuccessful);
  EXPECT_EQ(StatusOfAtom(f, engine, "p(b)"), GoalStatus::kSuccessful);
}

TEST(EngineTest, Example32PreferentialSucceeds) {
  Fixture f(
      "p :- q, not r.\n"
      "q :- r, not p.\n"
      "r :- p, not q.\n"
      "s :- not p, not q, not r.\n");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "p"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "q"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "r"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "s"), GoalStatus::kSuccessful);
}

TEST(EngineTest, Example32NonPositivisticIsIndeterminate) {
  // Selecting negative literals first loses completeness: <- s appears
  // indeterminate even though it is well-founded true.
  Fixture f(
      "p :- q, not r.\n"
      "q :- r, not p.\n"
      "r :- p, not q.\n"
      "s :- not p, not q, not r.\n");
  EngineOptions opts;
  opts.selection = SelectionMode::kNegativesFirst;
  GlobalSlsEngine engine(f.program, opts);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "s"));
  EXPECT_NE(r.status, GoalStatus::kSuccessful);
  // It recurses through negation forever: every atom reads indeterminate.
  for (const char* atom : {"s", "p", "q", "r"}) {
    EXPECT_EQ(StatusOfAtom(f, engine, atom), GoalStatus::kIndeterminate)
        << atom;
  }
}

TEST(EngineTest, Example33SequentialGetsStuck) {
  // q :- not p(a), not s. The infinite regress p(a), p(f(a)), ... wedges a
  // sequential rule; the parallel rule reaches `not s` and fails q.
  Fixture f(
      "q :- not p(a), not s.\n"
      "s.\n"
      "p(X) :- not p(f(X)).\n");
  // At any negation budget.
  for (size_t budget : {8, 16, 24, 32, 64}) {
    EngineOptions sequential;
    sequential.negatively_parallel = false;
    sequential.max_negation_depth = budget;
    GlobalSlsEngine seq(f.program, sequential);
    QueryResult r1 = seq.Solve(MustParseQuery(f.store, "q"));
    EXPECT_EQ(r1.status, GoalStatus::kUnknown) << budget;

    EngineOptions parallel;
    parallel.max_negation_depth = budget;
    GlobalSlsEngine par(f.program, parallel);
    QueryResult r2 = par.Solve(MustParseQuery(f.store, "q"));
    EXPECT_EQ(r2.status, GoalStatus::kFailed) << budget;
  }
}

TEST(EngineTest, InfiniteNegativeRegressIsUnknown) {
  // p(a) <- not p(f(a)) <- ... never repeats an atom: the ideal procedure
  // does not terminate; the engine reports honest resource exhaustion.
  Fixture f("p(X) :- not p(f(X)).");
  EngineOptions opts;
  opts.max_negation_depth = 16;
  GlobalSlsEngine engine(f.program, opts);
  EXPECT_EQ(StatusOfAtom(f, engine, "p(a)"), GoalStatus::kUnknown);
}

TEST(EngineTest, DeepNegationChainLevels) {
  // win chain of length 6: win(n1) alternates false/true down the chain.
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3). move(n3, n4). move(n4, n5).\n"
      "move(n5, n6).\n");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n6)"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n5)"), GoalStatus::kSuccessful);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n4)"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n3)"), GoalStatus::kSuccessful);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n2)"), GoalStatus::kFailed);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n1)"), GoalStatus::kSuccessful);
}

TEST(EngineTest, ConjunctiveQuery) {
  Fixture f("p(a). p(b). q(a).");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p(X), q(X)"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_EQ(r.answers.size(), 1u);
}

TEST(EngineTest, QueryWithNegativeLiteralGroundedByPositive) {
  Fixture f("p(a). p(b). q(a).");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p(X), not q(X)"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  ASSERT_EQ(r.answers.size(), 1u);
  const Term* bound = r.answers[0].theta.bindings().begin()->second;
  EXPECT_EQ(f.store.ToString(bound), "b");
}

TEST(EngineTest, EmptyGoalSucceedsTrivially) {
  Fixture f("p.");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(Goal{});
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
}

TEST(EngineTest, MemoizationReusesResults) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(StatusOfAtom(f, engine, "win(n1)"), GoalStatus::kFailed);
  QueryResult again = engine.SolveAtom(MustParseTerm(f.store, "win(n1)"));
  // Second run hits the memo: negligible new negation nodes.
  EXPECT_EQ(again.status, GoalStatus::kFailed);
  EXPECT_LE(again.negation_nodes, 2u);
}

TEST(EngineTest, OracleAndSearchAgreeEitherWay) {
  // The bottom-up oracle (default) and the pure search must assign the
  // same status to every ground atom of a function-free program.
  Rng rng(0x0AC1Eu);
  for (int trial = 0; trial < 20; ++trial) {
    std::string src = workload::RandomGame(rng, 6, 30);
    Fixture f(src);
    GlobalSlsEngine with_oracle(f.program);
    EngineOptions no_oracle_opts;
    no_oracle_opts.bottom_up_oracle = false;
    GlobalSlsEngine no_oracle(f.program, no_oracle_opts);
    GroundProgram gp = testing::MustGround(f.program);
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      const Term* atom = gp.AtomTerm(a);
      EXPECT_EQ(with_oracle.StatusOf(atom), no_oracle.StatusOf(atom))
          << f.store.ToString(atom) << " in\n" << src;
    }
  }
}

TEST(EngineTest, OracleAnswersWithoutSearchWork) {
  // A seeded memo resolves ground goals without expanding any SLP tree.
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3). move(n3, n4).\n");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.SolveAtom(MustParseTerm(f.store, "win(n1)"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_EQ(r.negation_nodes, 0u);
}

TEST(EngineTest, LevelsMatchStagesOnChain) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  GlobalSlsEngine engine(f.program);
  QueryResult lost = engine.SolveAtom(MustParseTerm(f.store, "win(n3)"));
  EXPECT_EQ(lost.level, Ordinal::Finite(1));
  QueryResult won = engine.SolveAtom(MustParseTerm(f.store, "win(n2)"));
  ASSERT_EQ(won.status, GoalStatus::kSuccessful);
  EXPECT_EQ(won.answers[0].level, Ordinal::Finite(2));
  QueryResult lost1 = engine.SolveAtom(MustParseTerm(f.store, "win(n1)"));
  EXPECT_EQ(lost1.level, Ordinal::Finite(3));
}

}  // namespace
}  // namespace gsls
