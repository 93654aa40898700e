// Consolidated checks for every worked example in the paper, plus
// edge-case behaviour of the status calculus that the examples exercise.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/tabled.h"
#include "lang/transforms.h"
#include "sldnf/sldnf.h"
#include "stable/stable.h"
#include "test_support.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

// ---------------------------------------------------------------------------
// Example 3.1 (Van Gelder).
// ---------------------------------------------------------------------------

TEST(PaperExamples, Ex31WellFoundedModelIsTotalOnBoundedGrounding) {
  // "this program does have a well-founded total model, in which w(0) is
  // true, even though it is not locally stratified."  On a depth-bounded
  // grounding the model is total with every w true, every u false.
  Fixture f(workload::VanGelderProgram());
  GroundProgram gp = testing::MustGround(f.program, /*term_depth=*/8);
  WfsModel m = ComputeWfs(gp);
  EXPECT_TRUE(m.model.IsTotal());
  FunctorId w = f.store.symbols().FindFunctor("w", 1);
  FunctorId u = f.store.symbols().FindFunctor("u", 1);
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    const Term* atom = gp.AtomTerm(a);
    if (atom->functor() == w) {
      EXPECT_TRUE(m.model.IsTrue(a)) << f.store.ToString(atom);
    } else if (atom->functor() == u) {
      EXPECT_FALSE(m.model.IsTrue(a)) << f.store.ToString(atom);
    }
  }
}

TEST(PaperExamples, Ex31EngineDeterminesEveryFiniteGoal) {
  Fixture f(workload::VanGelderProgram());
  EngineOptions opts;
  opts.max_negation_depth = 40;
  GlobalSlsEngine engine(f.program, opts);
  for (int i = 1; i <= 8; ++i) {
    std::string wi = "w(" + workload::IntTerm(i) + ")";
    QueryResult r = engine.SolveAtom(MustParseTerm(f.store, wi));
    ASSERT_EQ(r.status, GoalStatus::kSuccessful) << wi;
    EXPECT_EQ(r.answers[0].level, Ordinal::Finite(2 * i)) << wi;
    EXPECT_TRUE(r.answers[0].level_exact) << wi;
  }
}

TEST(PaperExamples, Ex31W0NeedsTransfiniteExploration) {
  Fixture f(workload::VanGelderProgram());
  EngineOptions opts;
  opts.max_negation_depth = 20;
  opts.max_slp_depth = 40;
  GlobalSlsEngine engine(f.program, opts);
  // w(0) is true in the WF model but its global tree has level w+2: no
  // finite budget determines it.
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "w(0)")),
            GoalStatus::kUnknown);
}

// ---------------------------------------------------------------------------
// Example 3.2.
// ---------------------------------------------------------------------------

TEST(PaperExamples, Ex32AllThreeEnginesOnWellFoundedModel) {
  Fixture f(workload::Example32Program());
  GlobalSlsEngine sls(f.program);
  Result<TabledEngine> tabled = TabledEngine::Create(f.program);
  ASSERT_TRUE(tabled.ok());
  struct Expect {
    const char* atom;
    GoalStatus status;
  } expects[] = {{"s", GoalStatus::kSuccessful},
                 {"p", GoalStatus::kFailed},
                 {"q", GoalStatus::kFailed},
                 {"r", GoalStatus::kFailed}};
  for (const auto& e : expects) {
    const Term* atom = MustParseTerm(f.store, e.atom);
    EXPECT_EQ(sls.StatusOf(atom), e.status) << e.atom;
    EXPECT_EQ(tabled->StatusOf(atom), e.status) << e.atom;
  }
  // SLDNF diverges on s (the positive loop is an infinite branch).
  SldnfOptions sopts;
  sopts.max_depth = 128;
  SldnfEngine sldnf(f.program, sopts);
  EXPECT_EQ(sldnf.SolveAtom(MustParseTerm(f.store, "s")).status,
            GoalStatus::kUnknown);
}

TEST(PaperExamples, Ex32IsTheUniqueStableModel) {
  Fixture f(workload::Example32Program());
  GroundProgram gp = testing::MustGround(f.program);
  Result<std::vector<DenseBitset>> models = EnumerateStableModels(gp);
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->size(), 1u);
  auto s = gp.FindAtom(MustParseTerm(f.store, "s"));
  EXPECT_TRUE(models->front().Test(*s));
  EXPECT_EQ(models->front().Count(), 1u);
}

// ---------------------------------------------------------------------------
// Example 3.3.
// ---------------------------------------------------------------------------

TEST(PaperExamples, Ex33WellFoundedFactsAndRegress) {
  Fixture f(workload::Example33Program());
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "s")),
            GoalStatus::kSuccessful);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "q")),
            GoalStatus::kFailed);
  // The p(f^k(a)) family recurses through negation forever: each atom is
  // distinct, so only budgets can stop the descent.
  EngineOptions opts;
  opts.max_negation_depth = 12;
  GlobalSlsEngine bounded(f.program, opts);
  EXPECT_EQ(bounded.StatusOf(MustParseTerm(f.store, "p(a)")),
            GoalStatus::kUnknown);
}

TEST(PaperExamples, Ex33SequentialOrderDependence) {
  // Reversing the literal order rescues the sequential rule — showing the
  // incompleteness is about the rule, not the program.
  TermStore store;
  Program reversed = MustParseProgram(store,
                                      "q :- not s, not p(a).\n"
                                      "s.\n"
                                      "p(X) :- not p(f(X)).\n");
  EngineOptions opts;
  opts.negatively_parallel = false;
  opts.max_negation_depth = 12;
  GlobalSlsEngine engine(reversed, opts);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(store, "q")), GoalStatus::kFailed);
}

// ---------------------------------------------------------------------------
// Section 6 remarks.
// ---------------------------------------------------------------------------

TEST(PaperExamples, Sec6FlounderingGoalWithSucceedingInstances) {
  // "programs of the form p(X) <- not q(f(X)); q(a): the goal <- p(X)
  // flounders, while every ground instance of this goal succeeds."
  Fixture f("p(X) :- not q(f(X)). q(a).");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(engine.Solve(MustParseQuery(f.store, "p(X)")).status,
            GoalStatus::kFloundered);
  for (const char* t : {"p(a)", "p(b)", "p(f(a))"}) {
    EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, t)),
              GoalStatus::kSuccessful)
        << t;
  }
}

TEST(PaperExamples, Sec6AllowedProgramsDoNotFlounder) {
  Fixture f("p(X) :- r(X), not q(X). r(a). r(b). q(a).");
  EXPECT_TRUE(f.program.IsRangeRestricted());
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p(X)"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
  EXPECT_FALSE(r.floundered_somewhere);
}

// ---------------------------------------------------------------------------
// Example 6.1 and Thm. 6.2(3): the universal query problem.
// ---------------------------------------------------------------------------

/// Solves ?- p(X) over `src`, augmented (Sec. 6) when asked.
struct PxAnswers {
  GoalStatus status;
  std::vector<std::string> ground;  ///< rendered ground answers
  bool identity = false;            ///< some answer leaves p(X) nonground
};

PxAnswers SolvePx(std::string_view src, bool augment) {
  Fixture f(src);
  Program program = augment ? AugmentProgram(f.program) : f.program;
  GlobalSlsEngine engine(program);
  Goal query = MustParseQuery(f.store, "p(X)");
  QueryResult r = engine.Solve(query);
  PxAnswers out{r.status, {}};
  for (const Answer& a : r.answers) {
    const Term* applied = a.theta.Apply(f.store, query[0].atom);
    if (applied->ground()) {
      out.ground.push_back(f.store.ToString(applied));
    } else {
      out.identity = true;
    }
  }
  return out;
}

TEST(PaperExamples, Ex61OnlyAnswerIsXEqualsA) {
  // Over P = {p(a)}, over P + {q(b)}, and over the augmented P' the only
  // answer to ?- p(X) is X = a. P' has infinitely many ground terms not in
  // P, so by Thm. 6.2(3) the missing identity answer certifies that
  // forall x p(x) is not entailed, which plain P cannot tell.
  for (const auto& [src, augment] :
       {std::pair{"p(a).", false}, {"p(a). q(b).", false}, {"p(a).", true}}) {
    PxAnswers px = SolvePx(src, augment);
    EXPECT_EQ(px.status, GoalStatus::kSuccessful) << src << augment;
    EXPECT_EQ(px.ground, std::vector<std::string>{"p(a)"}) << src << augment;
    EXPECT_FALSE(px.identity) << src << augment;
  }
}

TEST(PaperExamples, Ex61AugmentedUniversalRuleGivesIdentityAnswer) {
  // With a genuinely universal rule, the identity (nonground) answer
  // appears over the augmented program (Thm. 6.2(3)).
  EXPECT_TRUE(SolvePx("p(X). q(a).", /*augment=*/true).identity);
}

// ---------------------------------------------------------------------------
// Section 7: effectiveness.
// ---------------------------------------------------------------------------

TEST(PaperExamples, Sec7EffectivenessTable) {
  // The memoing (tabled) engine determines every function-free goal; the
  // search engine fails ground loops but not the nonground left
  // recursion, whose goals grow forever; SLDNF, which fails no infinite
  // branch and has no undefined value, diverges on every loop.
  struct Row {
    std::string src;
    const char* query;
    GoalStatus sls;
    GoalStatus tabled;
    GoalStatus sldnf;
  } rows[] = {
      {"p :- p.", "p", GoalStatus::kFailed, GoalStatus::kFailed,
       GoalStatus::kUnknown},
      {"p :- q. q :- p.", "p", GoalStatus::kFailed, GoalStatus::kFailed,
       GoalStatus::kUnknown},
      {"t(X,Y) :- t(X,Z), e(Z,Y). t(X,Y) :- e(X,Y). e(a,b).", "t(b,a)",
       GoalStatus::kUnknown, GoalStatus::kFailed, GoalStatus::kUnknown},
      {"p :- not q. q :- not p.", "p", GoalStatus::kIndeterminate,
       GoalStatus::kIndeterminate, GoalStatus::kUnknown},
      {"p :- not q. q :- not p. q.", "p", GoalStatus::kFailed,
       GoalStatus::kFailed, GoalStatus::kFailed},
      {workload::GameChain(12), "win(n1)", GoalStatus::kSuccessful,
       GoalStatus::kSuccessful, GoalStatus::kSuccessful},
  };
  for (const Row& row : rows) {
    Fixture f(row.src);
    const Term* atom = MustParseTerm(f.store, row.query);
    GlobalSlsEngine sls(f.program);
    Result<TabledEngine> tabled = TabledEngine::Create(f.program);
    ASSERT_TRUE(tabled.ok()) << row.src;
    SldnfOptions sopts;
    sopts.max_depth = 256;
    sopts.max_work = 100000;
    SldnfEngine sldnf(f.program, sopts);
    EXPECT_EQ(sls.StatusOf(atom), row.sls) << row.src;
    EXPECT_EQ(tabled->StatusOf(atom), row.tabled) << row.src;
    EXPECT_EQ(sldnf.SolveAtom(atom).status, row.sldnf) << row.src;
  }
  // An acyclic program: the search procedure terminates.
  Fixture acyclic("a :- b, not c. b :- d. c :- not d. d.");
  GlobalSlsEngine engine(acyclic.program);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(acyclic.store, "a")),
            GoalStatus::kSuccessful);
}

// ---------------------------------------------------------------------------
// Status-calculus edge cases from Def. 3.3.
// ---------------------------------------------------------------------------

TEST(StatusCalculus, GoalBothSuccessfulAndFloundered) {
  // "A tree node may be both successful and floundered."
  Fixture f(
      "p(a).\n"
      "p(X) :- not q(f(X)), r(X, Y), not s(Y).\n"
      "r(a, a).\n"
      "t :- p(a).\n");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p(X)"));
  EXPECT_EQ(r.status, GoalStatus::kSuccessful);
}

TEST(StatusCalculus, NegationNodeFailsDespiteFlounderedSibling) {
  // J is failed as soon as SOME child succeeds, even with a nonground
  // (floundered) sibling in the same leaf.
  Fixture f("p(X) :- not ok, not q(X). ok.");
  GlobalSlsEngine engine(f.program);
  QueryResult r = engine.Solve(MustParseQuery(f.store, "p(X)"));
  // The leaf {not ok, not q(X)} has a successful child (ok), so the leaf
  // fails; with no other leaves, p(X) is failed rather than floundered.
  EXPECT_EQ(r.status, GoalStatus::kFailed);
}

TEST(StatusCalculus, FlounderingOnlyWhenNothingDecides) {
  Fixture f("p(X) :- not q(X). q(a).");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(engine.Solve(MustParseQuery(f.store, "p(X)")).status,
            GoalStatus::kFloundered);
}

TEST(StatusCalculus, IndeterminateDominatedBySuccess) {
  // A goal with one undefined instance and one true instance succeeds.
  Fixture f("a :- not b. b :- not a. c. p :- a. p :- c.");
  GlobalSlsEngine engine(f.program);
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "p")),
            GoalStatus::kSuccessful);
}

TEST(StatusCalculus, UndefinedPropagatesThroughPositiveBodies) {
  Fixture f("a :- not b. b :- not a. p :- a, c. c.");
  GlobalSlsEngine engine(f.program);
  Result<TabledEngine> tabled = TabledEngine::Create(f.program);
  ASSERT_TRUE(tabled.ok());
  EXPECT_EQ(engine.StatusOf(MustParseTerm(f.store, "p")),
            GoalStatus::kIndeterminate);
  EXPECT_EQ(tabled->StatusOf(MustParseTerm(f.store, "p")),
            GoalStatus::kIndeterminate);
}

TEST(StatusCalculus, DoubleNegationPreservesValue) {
  Fixture f(
      "a.\n"
      "not_a :- not a.\n"
      "nn_a :- not not_a.\n"
      "u :- not u.\n"
      "not_u :- not u.\n"
      "nn_u :- not not_u.\n");
  Result<TabledEngine> t = TabledEngine::Create(f.program);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->StatusOf(MustParseTerm(f.store, "nn_a")),
            GoalStatus::kSuccessful);
  // Double negation of an undefined atom stays undefined.
  EXPECT_EQ(t->StatusOf(MustParseTerm(f.store, "nn_u")),
            GoalStatus::kIndeterminate);
}

}  // namespace
}  // namespace gsls
