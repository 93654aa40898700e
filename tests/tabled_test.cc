#include "core/tabled.h"

#include <gtest/gtest.h>

#include "test_support.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

TabledEngine MustCreate(const Program& p, TabledOptions opts = {}) {
  Result<TabledEngine> r = TabledEngine::Create(p, opts);
  if (!r.ok()) {
    fprintf(stderr, "tabled create failed: %s\n",
            r.status().ToString().c_str());
    abort();
  }
  return std::move(r.value());
}

TEST(TabledTest, BasicTruthValues) {
  Fixture f("p :- not q. r :- r. u :- not u.");
  TabledEngine t = MustCreate(f.program);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "p")),
            GoalStatus::kSuccessful);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "q")), GoalStatus::kFailed);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "r")), GoalStatus::kFailed);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "u")),
            GoalStatus::kIndeterminate);
}

TEST(TabledTest, LevelsAreStages) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  TabledEngine t = MustCreate(f.program);
  EXPECT_EQ(t.LevelOf(MustParseTerm(f.store, "win(n3)")),
            Ordinal::Finite(1));
  EXPECT_EQ(t.LevelOf(MustParseTerm(f.store, "win(n2)")),
            Ordinal::Finite(2));
  EXPECT_EQ(t.LevelOf(MustParseTerm(f.store, "win(n1)")),
            Ordinal::Finite(3));
  EXPECT_EQ(t.LevelOf(MustParseTerm(f.store, "move(n1, n2)")),
            Ordinal::Finite(1));
  // Unregistered atoms fail at stage 1.
  EXPECT_EQ(t.LevelOf(MustParseTerm(f.store, "win(zzz)")),
            Ordinal::Finite(1));
}

TEST(TabledTest, UndefinedAtomsHaveNoLevel) {
  Fixture f("p :- not p.");
  TabledEngine t = MustCreate(f.program);
  EXPECT_FALSE(t.LevelOf(MustParseTerm(f.store, "p")).has_value());
}

TEST(TabledTest, AnswerEnumerationWithNegation) {
  Fixture f(
      "p(a). p(b). p(c). q(b).\n"
      "r(X) :- p(X), not q(X).\n");
  TabledEngine t = MustCreate(f.program);
  QueryResult r = t.Solve(MustParseQuery(f.store, "r(X)"));
  ASSERT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_EQ(r.answers.size(), 2u);  // a, c
}

TEST(TabledTest, LeftRecursionTerminates) {
  // Left-recursive transitive closure diverges in plain SLD(NF) but is
  // handled by the memoing engine.
  Fixture f(
      "t(X, Y) :- t(X, Z), e(Z, Y).\n"
      "t(X, Y) :- e(X, Y).\n"
      "e(a, b). e(b, c). e(c, d).\n");
  TabledEngine t = MustCreate(f.program);
  QueryResult r = t.Solve(MustParseQuery(f.store, "t(a, X)"));
  ASSERT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_EQ(r.answers.size(), 3u);  // b, c, d
}

TEST(TabledTest, CyclicTransitiveClosure) {
  Fixture f(
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n"
      "e(a, b). e(b, a).\n");
  TabledEngine t = MustCreate(f.program);
  QueryResult r = t.Solve(MustParseQuery(f.store, "t(a, X)"));
  ASSERT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_EQ(r.answers.size(), 2u);  // a and b
}

TEST(TabledTest, UndefinedGoalIsIndeterminate) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(b, a).\n");
  TabledEngine t = MustCreate(f.program);
  QueryResult r = t.Solve(MustParseQuery(f.store, "win(a)"));
  EXPECT_EQ(r.status, GoalStatus::kIndeterminate);
  EXPECT_TRUE(r.answers.empty());
}

TEST(TabledTest, MixedQueryStatusPrecedence) {
  // One instance true, another undefined: the goal succeeds with the true
  // answer only.
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(b, a).\n"  // a, b drawn
      "move(c, d).\n");            // c won, d lost
  TabledEngine t = MustCreate(f.program);
  QueryResult r = t.Solve(MustParseQuery(f.store, "win(X)"));
  ASSERT_EQ(r.status, GoalStatus::kSuccessful);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(f.store.ToString(
                r.answers[0].theta.bindings().begin()->second),
            "c");
}

TEST(TabledTest, FloundersWhenVariableOnlyInNegation) {
  Fixture f("q(a). r(b).");
  TabledEngine t = MustCreate(f.program);
  QueryResult r = t.Solve(MustParseQuery(f.store, "not q(X)"));
  EXPECT_EQ(r.status, GoalStatus::kFloundered);
}

TEST(TabledTest, BottomUpInstantiationResolvesRuleLevelFloundering) {
  // Top-down, `p :- not q(X)` flounders; the memoing engine instantiates
  // X over the (finite) universe bottom-up, so p gets its well-founded
  // value. With universe {a} and q(a) true, p is false.
  Fixture f("q(a). p :- not q(X).");
  TabledEngine t = MustCreate(f.program);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "p")), GoalStatus::kFailed);
  // With a second constant, some instance has q(c) false: p true.
  Fixture f2("q(a). c(b). p :- not q(X).");
  TabledEngine t2 = MustCreate(f2.program);
  EXPECT_EQ(t2.StatusOf(MustParseTerm(f2.store, "p")),
            GoalStatus::kSuccessful);
}

TEST(TabledTest, QueryRestrictedTablesAgree) {
  Rng rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    std::string src = workload::RandomGame(rng, 6, 30);
    Fixture f(src);
    TabledEngine full = MustCreate(f.program);
    Goal query = MustParseQuery(f.store, "win(n0)");
    Result<TabledEngine> restricted =
        TabledEngine::CreateForQuery(f.program, query);
    ASSERT_TRUE(restricted.ok());
    const Term* atom = MustParseTerm(f.store, "win(n0)");
    EXPECT_EQ(full.StatusOf(atom), restricted->StatusOf(atom)) << src;
    EXPECT_LE(restricted->ground().rule_count(),
              full.ground().rule_count());
  }
}

TEST(TabledTest, GroundQueriesMatchStatusOf) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3). move(n3, n1). move(n1, n4).\n");
  TabledEngine t = MustCreate(f.program);
  for (const char* node : {"n1", "n2", "n3", "n4"}) {
    const Term* atom =
        MustParseTerm(f.store, StrCat("win(", node, ")"));
    QueryResult r = t.Solve(Goal{Literal::Pos(atom)});
    EXPECT_EQ(r.status, t.StatusOf(atom)) << node;
  }
}

TEST(TabledTest, ConjunctiveQueryLevels) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  TabledEngine t = MustCreate(f.program);
  // Query: move(n1, n2), win(n2): both true; level = max stage.
  QueryResult r = t.Solve(MustParseQuery(f.store, "move(n1, n2), win(n2)"));
  ASSERT_EQ(r.status, GoalStatus::kSuccessful);
  ASSERT_EQ(r.answers.size(), 1u);
  EXPECT_EQ(r.answers[0].level, Ordinal::Finite(2));
}

TEST(TabledTest, FunctionSymbolsUpToDepthBound) {
  Fixture f(
      "even(z).\n"
      "even(s(X)) :- not even(X).\n");
  TabledOptions opts;
  opts.grounding.universe.max_term_depth = 6;
  TabledEngine t = MustCreate(f.program, opts);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "even(z)")),
            GoalStatus::kSuccessful);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "even(s(z))")),
            GoalStatus::kFailed);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "even(s(s(z)))")),
            GoalStatus::kSuccessful);
}

// The default depth cap drops the rule instance for `q(a)` (its body
// mentions `f(a)`), so the raw model of the bounded fragment says `q(a)`
// is false although no exact answer exists. `StatusOf` answers through the
// session, which applies the truncation cone: `kUnknown`, never the
// fragment's value.
TEST(TabledTest, StatusOfAppliesTheTruncationCone) {
  Fixture f("q(X) :- r(X), not s(f(X)). r(a).");
  TabledEngine t = MustCreate(f.program);
  const Term* q = MustParseTerm(f.store, "q(a)");
  EXPECT_EQ(t.session().Query(q).status, GoalStatus::kUnknown);
  EXPECT_EQ(t.StatusOf(q), GoalStatus::kUnknown);
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "r(a)")),
            GoalStatus::kSuccessful);
}

TEST(TabledTest, SolveAppliesTheTruncationCone) {
  Fixture f("q(X) :- r(X), not s(f(X)). r(a).");
  TabledEngine t = MustCreate(f.program);
  for (const char* goal : {"q(a)", "q(X)"}) {
    QueryResult r = t.Solve(MustParseQuery(f.store, goal));
    EXPECT_EQ(r.status, GoalStatus::kUnknown) << goal;
    EXPECT_TRUE(r.answers.empty()) << goal;
  }
  // Goals off the cone keep their exact answers.
  EXPECT_EQ(t.Solve(MustParseQuery(f.store, "r(X)")).status,
            GoalStatus::kSuccessful);
  EXPECT_EQ(t.Solve(MustParseQuery(f.store, "r(b)")).status,
            GoalStatus::kFailed);
}

// `LevelOf` has no level exactly where `StatusOf` has no exact answer:
// in the truncation cone of a depth-capped grounding (here q(a), whose
// true answer is successful at level 2 but whose instance was dropped),
// and after a pass that did not complete. Everywhere else it keeps the
// level Cor. 4.6 gives.
TEST(TabledTest, LevelOfIsEmptyExactlyWhereStatusOfIsUnknown) {
  Fixture f("q(X) :- r(X), not s(f(X)). s(f(X)) :- s(X). r(a).");
  TabledOptions opts;
  opts.grounding.max_atom_arg_depth = 1;
  TabledEngine t = MustCreate(f.program, opts);
  for (const char* name : {"q(a)", "r(a)", "s(a)", "s(f(a))", "q(b)"}) {
    const Term* atom = MustParseTerm(f.store, name);
    const GoalStatus status = t.StatusOf(atom);
    EXPECT_EQ(t.LevelOf(atom).has_value(), status != GoalStatus::kUnknown)
        << name << " is " << GoalStatusName(status);
  }
  EXPECT_EQ(t.StatusOf(MustParseTerm(f.store, "q(a)")), GoalStatus::kUnknown);
  EXPECT_EQ(t.LevelOf(MustParseTerm(f.store, "r(a)")), Ordinal::Finite(1));
  EXPECT_EQ(t.LevelOf(MustParseTerm(f.store, "q(b)")), Ordinal::Finite(1));

  Fixture g("p :- not q. q :- not r. r :- not s. s.");
  CancelToken token;
  TabledOptions copts;
  copts.solver.cancel = &token;
  TabledEngine c = MustCreate(g.program, copts);
  const Term* p = MustParseTerm(g.store, "p");
  EXPECT_EQ(c.LevelOf(p), Ordinal::Finite(4));  // s, r, q, p by stage
  token.Cancel();
  ASSERT_TRUE(c.session().Retract(MustParseTerm(g.store, "s")));
  EXPECT_EQ(c.StatusOf(p), GoalStatus::kUnknown);
  EXPECT_FALSE(c.LevelOf(p).has_value());
  token.Reset();
  EXPECT_EQ(c.StatusOf(p), GoalStatus::kSuccessful);
  EXPECT_EQ(c.LevelOf(p), Ordinal::Finite(4));
}


// --- Golden outputs: answers in order with their levels.

/// A program whose `p(X)` has three derivations of `p(a)` at different
/// levels, for answer deduplication.
const char* kDuplicateAnswers =
    "q(a). r(a). r(b). t(b).\n"
    "p(X) :- q(X).\n"
    "p(X) :- r(X), not t(X).\n"
    "p(X) :- r(X).\n";

std::string TabledGolden(const std::string& src,
                         const std::vector<const char*>& queries) {
  Fixture f(src);
  TabledEngine engine = MustCreate(f.program);
  std::string out;
  for (const char* q : queries) {
    out += StrCat("<- ", q, ": ",
                  testing::RenderQueryResult(
                      f.store, engine.Solve(MustParseQuery(f.store, q))));
  }
  return out;
}

TEST(TabledGoldenTest, RandomGame) {
  Rng rng(7);
  EXPECT_EQ(TabledGolden(workload::RandomGame(rng, 8, 25),
                         {"win(X)", "move(X, Y), not win(Y)"}),
            R"(<- win(X): successful level 2 work 0 neg 0
  {X -> n4} @2
  {X -> n5} @2
  {X -> n3} @4
<- move(X, Y), not win(Y): successful level 1 work 0 neg 0
  {X -> n3, Y -> n1} @3
  {X -> n4, Y -> n7} @1
  {X -> n5, Y -> n7} @1
)");
}

TEST(TabledGoldenTest, GameCycleWithTail) {
  EXPECT_EQ(TabledGolden(workload::GameCycleWithTail(3, 3),
                         {"win(X)", "move(X, Y), not win(Y)"}),
            R"(<- win(X): successful level 2 work 0 neg 0
  {X -> c0} @4
  {X -> c1} @6
  {X -> t2} @2
<- move(X, Y), not win(Y): successful level 1 work 0 neg 0
  {X -> c1, Y -> c2} @5
  {X -> c0, Y -> t1} @3
  {X -> t2, Y -> t3} @1
)");
}

TEST(TabledGoldenTest, DuplicateAnswers) {
  EXPECT_EQ(TabledGolden(kDuplicateAnswers,
                         {"p(X)", "r(X), not t(X)", "p(X), p(Y)"}),
            R"(<- p(X): successful level 1 work 0 neg 0
  {X -> a} @1
  {X -> b} @1
<- r(X), not t(X): successful level 1 work 0 neg 0
  {X -> a} @1
<- p(X), p(Y): successful level 1 work 0 neg 0
  {X -> a, Y -> a} @1
  {X -> a, Y -> b} @1
  {X -> b, Y -> a} @1
  {X -> b, Y -> b} @1
)");
}

}  // namespace
}  // namespace gsls
