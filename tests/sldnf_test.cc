#include "sldnf/sldnf.h"

#include <gtest/gtest.h>

#include "core/tabled.h"
#include "test_support.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

TEST(SldnfTest, DefiniteProgramAnswers) {
  Fixture f(
      "e(a, b). e(b, c).\n"
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n");
  SldnfEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "t(a, X)"));
  ASSERT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_EQ(r.answers.size(), 2u);
}

TEST(SldnfTest, NegationAsFailure) {
  Fixture f("p :- not q. r(a). r(b). s(X) :- r(X), not t(X). t(a).");
  SldnfEngine engine(f.program);
  EXPECT_EQ(engine.Solve(MustParseQuery(f.store, "p")).status,
            GoalStatus::kSuccessful);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "s(X)"));
  ASSERT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_EQ(r.answers.size(), 1u);
}

TEST(SldnfTest, SafeRuleDelaysNonGroundNegation) {
  // not t(X) must wait until r(X) grounds X; with the safe rule the query
  // succeeds rather than floundering.
  Fixture f("r(a). s(X) :- not t(X), r(X). t(b).");
  SldnfEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "s(X)"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
}

TEST(SldnfTest, FloundersWhenNoGroundingPossible) {
  Fixture f("s(X) :- not t(X). t(a).");
  SldnfEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "s(X)"));
  EXPECT_EQ(r.status, GoalStatus::kFloundered);
}

TEST(SldnfTest, DivergesOnPositiveLoopWhereGlobalSlsFails) {
  // Section 7: SLDNF does not treat infinite branches as failed.
  Fixture f("p :- p.");
  SldnfOptions opts;
  opts.max_depth = 64;
  SldnfEngine sldnf(f.program, opts);
  QueryResult r = sldnf.Solve(MustParseQuery(f.store, "p"));
  EXPECT_EQ(r.status, GoalStatus::kUnknown);  // diverges (budget trips)

  GlobalSlsEngine sls(f.program);
  EXPECT_EQ(sls.StatusOf(MustParseTerm(f.store, "p")), GoalStatus::kFailed);
}

TEST(SldnfTest, DivergesOnLeftRecursionWhereTablingTerminates) {
  Fixture f(
      "t(X, Y) :- t(X, Z), e(Z, Y).\n"
      "t(X, Y) :- e(X, Y).\n"
      "e(a, b).\n");
  SldnfOptions opts;
  opts.max_depth = 64;
  SldnfEngine sldnf(f.program, opts);
  // t(b, a) has no derivation, but the left-recursive clause spins an
  // infinite branch, so SLDNF can never conclude finite failure.
  QueryResult r = sldnf.Solve(MustParseQuery(f.store, "t(b, a)"));
  EXPECT_EQ(r.status, GoalStatus::kUnknown);

  Result<TabledEngine> tabled = TabledEngine::Create(f.program);
  ASSERT_TRUE(tabled.ok());
  EXPECT_EQ(tabled->StatusOf(MustParseTerm(f.store, "t(b, a)")),
            GoalStatus::kFailed);
  EXPECT_EQ(tabled->StatusOf(MustParseTerm(f.store, "t(a, b)")),
            GoalStatus::kSuccessful);
}

TEST(SldnfTest, DivergesOnRecursionThroughNegation) {
  // SLDNF has no undefined value: the negative loop simply does not
  // terminate, while global SLS reports indeterminate.
  Fixture f("p :- not q. q :- not p.");
  SldnfOptions opts;
  opts.max_depth = 64;
  SldnfEngine sldnf(f.program, opts);
  EXPECT_EQ(sldnf.Solve(MustParseQuery(f.store, "p")).status,
            GoalStatus::kUnknown);
  GlobalSlsEngine sls(f.program);
  EXPECT_EQ(sls.StatusOf(MustParseTerm(f.store, "p")),
            GoalStatus::kIndeterminate);
}

TEST(SldnfTest, SoundWithRespectToWfsWhenDetermined) {
  // Sec. 7: SLDNF with a safe rule is sound w.r.t. the well-founded
  // semantics — whenever it gives a definite verdict, WFS agrees.
  Rng rng(0x51D5u);
  int determined = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::string src = workload::RandomGame(rng, 5, 30);
    Fixture f(src);
    SldnfOptions opts;
    opts.max_depth = 512;
    opts.max_work = 200000;
    SldnfEngine sldnf(f.program, opts);
    Result<TabledEngine> oracle = TabledEngine::Create(f.program);
    ASSERT_TRUE(oracle.ok());
    const GroundProgram& gp = oracle->ground();
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      const Term* atom = gp.AtomTerm(a);
      QueryResult r = sldnf.Solve(Goal{Literal::Pos(atom)});
      if (r.status == GoalStatus::kSuccessful) {
        ++determined;
        EXPECT_EQ(oracle->ValueOf(atom), TruthValue::kTrue)
            << f.store.ToString(atom) << " in\n" << src;
      } else if (r.status == GoalStatus::kFailed) {
        ++determined;
        EXPECT_EQ(oracle->ValueOf(atom), TruthValue::kFalse)
            << f.store.ToString(atom) << " in\n" << src;
      }
    }
  }
  EXPECT_GT(determined, 100);
}

TEST(SldnfTest, WorkCountsReported) {
  Fixture f("p :- q. q :- r. r.");
  SldnfEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_GT(r.work, 2u);
}

}  // namespace
}  // namespace gsls
