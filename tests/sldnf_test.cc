#include "sldnf/sldnf.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

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


// --- Golden outputs: answers in order and `work`.

/// A program whose `p(X)` has three derivations of `p(a)` at different
/// levels, for answer deduplication.
const char* kDuplicateAnswers =
    "q(a). r(a). r(b). t(b).\n"
    "p(X) :- q(X).\n"
    "p(X) :- r(X), not t(X).\n"
    "p(X) :- r(X).\n";

/// `s(X)` selected behind a nonground `not t(X)`: the resolvent's layout
/// decides which literal the safe rule picks next.
const char* kResolventOrder =
    "t(b). r(c).\n"
    "s(a) :- r(a).\n"
    "s(b) :- r(c).\n"
    "s(c) :- r(c), not t(c).\n";

std::string SldnfGolden(const std::string& src,
                        const std::vector<const char*>& queries) {
  Fixture f(src);
  SldnfOptions opts;
  opts.max_depth = 64;
  opts.max_work = 20000;
  SldnfEngine engine(f.program, opts);
  std::string out;
  for (const char* q : queries) {
    out += StrCat("<- ", q, ": ",
                  testing::RenderQueryResult(
                      f.store, engine.Solve(MustParseQuery(f.store, q))));
  }
  return out;
}

TEST(SldnfGoldenTest, GameChain) {
  EXPECT_EQ(SldnfGolden(workload::GameChain(6), {"win(n1)", "win(X)"}),
            R"(<- win(n1): successful level 0? work 20 neg 0
  {} @0?
<- win(X): successful level 0? work 56 neg 0
  {X -> n1} @0?
  {X -> n3} @0?
  {X -> n5} @0?
)");
}

TEST(SldnfGoldenTest, DuplicateAnswersAreKept) {
  EXPECT_EQ(SldnfGolden(kDuplicateAnswers,
                        {"p(X)", "r(X), not t(X)", "not t(X), r(X)"}),
            R"(<- p(X): successful level 0? work 13 neg 0
  {X -> a} @0?
  {X -> a} @0?
  {X -> a} @0?
  {X -> b} @0?
<- r(X), not t(X): successful level 0? work 7 neg 0
  {X -> a} @0?
<- not t(X), r(X): successful level 0? work 7 neg 0
  {X -> a} @0?
)");
}

TEST(SldnfGoldenTest, TransitiveClosure) {
  EXPECT_EQ(SldnfGolden("e(a, b). e(b, c). e(c, d).\n"
                        "t(X, Y) :- e(X, Y).\n"
                        "t(X, Y) :- e(X, Z), t(Z, Y).\n",
                        {"t(a, X)", "t(b, c)"}),
            R"(<- t(a, X): successful level 0? work 15 neg 0
  {X -> b} @0?
  {X -> c} @0?
  {X -> d} @0?
<- t(b, c): successful level 0? work 10 neg 0
  {} @0?
)");
}

TEST(SldnfGoldenTest, ResolventOrder) {
  EXPECT_EQ(
      SldnfGolden(kResolventOrder, {"not t(X), s(X)", "s(X), not t(X)"}),
      R"(<- not t(X), s(X): successful level 0? work 12 neg 0
  {X -> c} @0?
<- s(X), not t(X): successful level 0? work 12 neg 0
  {X -> c} @0?
)");
}

TEST(SldnfGoldenTest, VanGelder) {
  EXPECT_EQ(
      SldnfGolden(workload::VanGelderProgram(), {"w(s(s(0)))", "u(s(0))"}),
      R"(<- w(s(s(0))): successful level 0? work 12 neg 0
  {} @0?
<- u(s(0)): failed level 0? work 2 neg 0
)");
}

}  // namespace
}  // namespace gsls
