#include "core/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_support.h"
#include "util/rng.h"
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


// --- Golden outputs: answers with their levels, `work` and
// `negation_nodes` under every selection mode and both negation rules.

/// A program whose `p(X)` has three derivations of `p(a)` at different
/// levels, for answer deduplication.
const char* kDuplicateAnswers =
    "q(a). r(a). r(b). t(b).\n"
    "p(X) :- q(X).\n"
    "p(X) :- r(X), not t(X).\n"
    "p(X) :- r(X).\n";

/// Solves `queries` in order on one engine per computation rule and
/// renders every result (test_support.h).
std::string EngineGolden(const std::string& src,
                         const std::vector<const char*>& queries) {
  struct Rule {
    const char* name;
    SelectionMode selection;
    bool negatively_parallel;
    bool bottom_up_oracle;
  };
  const Rule rules[] = {
      {"positivistic", SelectionMode::kPositivistic, true, true},
      {"positivistic search", SelectionMode::kPositivistic, true, false},
      {"positivistic sequential", SelectionMode::kPositivistic, false, true},
      {"negatives-first", SelectionMode::kNegativesFirst, true, true},
      {"negatives-first sequential", SelectionMode::kNegativesFirst, false,
       true},
      {"leftmost", SelectionMode::kLeftmost, true, true},
      {"leftmost sequential", SelectionMode::kLeftmost, false, true}};
  std::string out;
  for (const Rule& rule : rules) {
    Fixture f(src);
    EngineOptions opts;
    opts.selection = rule.selection;
    opts.negatively_parallel = rule.negatively_parallel;
    opts.bottom_up_oracle = rule.bottom_up_oracle;
    opts.max_negation_depth = 24;
    opts.max_work = 20000;
    GlobalSlsEngine engine(f.program, opts);
    out += StrCat(rule.name, ":\n");
    for (const char* q : queries) {
      out += StrCat("<- ", q, ": ",
                    testing::RenderQueryResult(
                        f.store, engine.Solve(MustParseQuery(f.store, q))));
    }
  }
  return out;
}

TEST(EngineGoldenTest, Example32) {
  EXPECT_EQ(EngineGolden(workload::Example32Program(), {"s", "p", "q"}),
            R"(positivistic:
<- s: successful level 2 work 1 neg 0
  {} @2
<- p: failed level 1 work 0 neg 0
<- q: failed level 1 work 0 neg 0
positivistic search:
<- s: successful level 2? work 12 neg 3
  {} @2?
<- p: failed level 1 work 0 neg 0
<- q: failed level 1? work 0 neg 0
positivistic sequential:
<- s: successful level 2? work 12 neg 3
  {} @2?
<- p: failed level 1 work 0 neg 0
<- q: failed level 1? work 0 neg 0
negatives-first:
<- s: indeterminate level 0? work 8 neg 4
<- p: indeterminate level 0? work 6 neg 3
<- q: indeterminate level 0? work 2 neg 1
negatives-first sequential:
<- s: indeterminate level 0? work 8 neg 4
<- p: indeterminate level 0? work 6 neg 3
<- q: indeterminate level 0? work 2 neg 1
leftmost:
<- s: successful level 1? work 15 neg 3
  {} @1
<- p: failed level 1 work 0 neg 0
<- q: failed level 1? work 0 neg 0
leftmost sequential:
<- s: successful level 1? work 15 neg 3
  {} @1
<- p: failed level 1 work 0 neg 0
<- q: failed level 1? work 0 neg 0
)");
}

TEST(EngineGoldenTest, Example33) {
  EXPECT_EQ(EngineGolden(workload::Example33Program(), {"q", "p(a)"}),
            R"(positivistic:
<- q: failed level 2? work 52 neg 26
<- p(a): unknown level 0? work 50 neg 25
positivistic search:
<- q: failed level 2? work 52 neg 26
<- p(a): unknown level 0? work 50 neg 25
positivistic sequential:
<- q: unknown level 0? work 50 neg 25
<- p(a): unknown level 0? work 50 neg 25
negatives-first:
<- q: unknown level 0? work 50 neg 25
<- p(a): unknown level 0? work 50 neg 25
negatives-first sequential:
<- q: unknown level 0? work 50 neg 25
<- p(a): unknown level 0? work 50 neg 25
leftmost:
<- q: unknown level 0? work 50 neg 25
<- p(a): unknown level 0? work 50 neg 25
leftmost sequential:
<- q: unknown level 0? work 50 neg 25
<- p(a): unknown level 0? work 50 neg 25
)");
}

TEST(EngineGoldenTest, GameCycleWithTail) {
  EXPECT_EQ(
      EngineGolden(workload::GameCycleWithTail(3, 3), {"win(X)", "win(c0)"}),
      R"(positivistic:
<- win(X): successful level 2 work 8 neg 6
  {X -> c1} @6
  {X -> c0} @4
  {X -> t2} @2
<- win(c0): successful level 4 work 1 neg 0
  {} @4
positivistic search:
<- win(X): successful level 2? work 26 neg 12
  {X -> c1} @6?
  {X -> c0} @4
  {X -> t2} @2
<- win(c0): successful level 4? work 1 neg 0
  {} @4?
positivistic sequential:
<- win(X): successful level 2? work 26 neg 12
  {X -> c1} @6?
  {X -> c0} @4
  {X -> t2} @2
<- win(c0): successful level 4? work 1 neg 0
  {} @4?
negatives-first:
<- win(X): floundered level 0? fl work 1 neg 0
<- win(c0): floundered level 0? fl work 1 neg 0
negatives-first sequential:
<- win(X): floundered level 0? fl work 1 neg 0
<- win(c0): floundered level 0? fl work 1 neg 0
leftmost:
<- win(X): successful level 1? work 32 neg 12
  {X -> c1} @1
  {X -> c0} @1
  {X -> t2} @1
<- win(c0): successful level 1? work 1 neg 0
  {} @1?
leftmost sequential:
<- win(X): successful level 1? work 32 neg 12
  {X -> c1} @1
  {X -> c0} @1
  {X -> t2} @1
<- win(c0): successful level 1? work 1 neg 0
  {} @1?
)");
}

TEST(EngineGoldenTest, RandomGame) {
  Rng rng(7);
  EXPECT_EQ(EngineGolden(workload::RandomGame(rng, 6, 25), {"win(X)"}),
            R"(positivistic:
<- win(X): indeterminate level 0? work 11 neg 9
positivistic search:
<- win(X): indeterminate level 0? work 68 neg 34
positivistic sequential:
<- win(X): indeterminate level 0? work 68 neg 34
negatives-first:
<- win(X): floundered level 0? fl work 1 neg 0
negatives-first sequential:
<- win(X): floundered level 0? fl work 1 neg 0
leftmost:
<- win(X): indeterminate level 0? work 68 neg 34
leftmost sequential:
<- win(X): indeterminate level 0? work 68 neg 34
)");
}

TEST(EngineGoldenTest, VanGelder) {
  EXPECT_EQ(EngineGolden(workload::VanGelderProgram(),
                         {"w(s(s(0)))", "u(s(0))", "w(X)"}),
            R"(positivistic:
<- w(s(s(0))): successful level 4 work 10 neg 3
  {} @4
<- u(s(0)): failed level 1 work 0 neg 0
<- w(X): floundered level 0? fl work 2 neg 0
positivistic search:
<- w(s(s(0))): successful level 4 work 10 neg 3
  {} @4
<- u(s(0)): failed level 1 work 0 neg 0
<- w(X): floundered level 0? fl work 2 neg 0
positivistic sequential:
<- w(s(s(0))): successful level 4 work 10 neg 3
  {} @4
<- u(s(0)): failed level 1 work 0 neg 0
<- w(X): floundered level 0? fl work 2 neg 0
negatives-first:
<- w(s(s(0))): floundered level 0? fl work 3 neg 1
<- u(s(0)): floundered level 0? fl work 1 neg 0
<- w(X): floundered level 0? fl work 1 neg 0
negatives-first sequential:
<- w(s(s(0))): floundered level 0? fl work 3 neg 1
<- u(s(0)): floundered level 0? fl work 1 neg 0
<- w(X): floundered level 0? fl work 1 neg 0
leftmost:
<- w(s(s(0))): successful level 1? work 12 neg 3
  {} @1
<- u(s(0)): failed level 1 work 0 neg 0
<- w(X): floundered level 0? fl work 1 neg 0
leftmost sequential:
<- w(s(s(0))): successful level 1? work 12 neg 3
  {} @1
<- u(s(0)): failed level 1 work 0 neg 0
<- w(X): floundered level 0? fl work 1 neg 0
)");
}

TEST(EngineGoldenTest, DuplicateAnswers) {
  EXPECT_EQ(EngineGolden(kDuplicateAnswers,
                         {"p(X)", "r(X), not t(X)", "not t(X), r(X)"}),
            R"(positivistic:
<- p(X): successful level 1 work 9 neg 2
  {X -> a} @1
  {X -> b} @1
<- r(X), not t(X): successful level 2 work 3 neg 2
  {X -> a} @2
<- not t(X), r(X): successful level 2 work 3 neg 2
  {X -> a} @2
positivistic search:
<- p(X): successful level 1 work 12 neg 2
  {X -> a} @1
  {X -> b} @1
<- r(X), not t(X): successful level 2 work 3 neg 2
  {X -> a} @2
<- not t(X), r(X): successful level 2 work 3 neg 2
  {X -> a} @2
positivistic sequential:
<- p(X): successful level 1 work 12 neg 2
  {X -> a} @1
  {X -> b} @1
<- r(X), not t(X): successful level 2 work 3 neg 2
  {X -> a} @2
<- not t(X), r(X): successful level 2 work 3 neg 2
  {X -> a} @2
negatives-first:
<- p(X): successful level 1? fl work 6 neg 0
  {X -> a} @1
  {X -> b} @1
<- r(X), not t(X): floundered level 0? fl work 0 neg 0
<- not t(X), r(X): floundered level 0? fl work 0 neg 0
negatives-first sequential:
<- p(X): successful level 1? fl work 6 neg 0
  {X -> a} @1
  {X -> b} @1
<- r(X), not t(X): floundered level 0? fl work 0 neg 0
<- not t(X), r(X): floundered level 0? fl work 0 neg 0
leftmost:
<- p(X): successful level 1? work 13 neg 2
  {X -> a} @1
  {X -> b} @1
<- r(X), not t(X): successful level 1? work 4 neg 2
  {X -> a} @1
<- not t(X), r(X): floundered level 0? fl work 0 neg 0
leftmost sequential:
<- p(X): successful level 1? work 13 neg 2
  {X -> a} @1
  {X -> b} @1
<- r(X), not t(X): successful level 1? work 4 neg 2
  {X -> a} @1
<- not t(X), r(X): floundered level 0? fl work 0 neg 0
)");
}

}  // namespace
}  // namespace gsls
