#include "wfs/wfs.h"

#include <gtest/gtest.h>

#include "analysis/atom_dependency_graph.h"
#include "analysis/dependency_graph.h"
#include "test_support.h"
#include "wfs/perfect.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;

TruthValue ValueOf(const GroundProgram& gp, const WfsModel& model,
                   TermStore& store, std::string_view atom_src) {
  const Term* atom = MustParseTerm(store, atom_src);
  auto id = gp.FindAtom(atom);
  if (!id.has_value()) return TruthValue::kFalse;
  return model.model.Value(*id);
}

TEST(WfsTest, FactsAreTrue) {
  Fixture f("p. q :- p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kTrue);
  EXPECT_TRUE(m.model.IsTotal());
}

TEST(WfsTest, UnprovableAtomIsFalse) {
  Fixture f("p :- q. r.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "r"), TruthValue::kTrue);
}

TEST(WfsTest, NegationAsFailure) {
  Fixture f("p :- not q.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kFalse);
}

TEST(WfsTest, SelfNegationIsUndefined) {
  Fixture f("p :- not p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kUndefined);
}

TEST(WfsTest, PositiveLoopIsFalse) {
  Fixture f("p :- q. q :- p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kFalse);
}

TEST(WfsTest, NegativeTwoCycleIsUndefined) {
  Fixture f("p :- not q. q :- not p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kUndefined);
}

TEST(WfsTest, MixedLoopThroughPositiveBodyIsUndefined) {
  // p <- c, not p with c true: p has no witness of unusability and can
  // never fire: undefined.
  Fixture f("c. p :- c, not p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "c"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kUndefined);
}

TEST(WfsTest, PaperExample32Model) {
  // Example 3.2: M_WF = {s, not p, not q, not r}.
  Fixture f(
      "p :- q, not r.\n"
      "q :- r, not p.\n"
      "r :- p, not q.\n"
      "s :- not p, not q, not r.\n");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "r"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "s"), TruthValue::kTrue);
  EXPECT_TRUE(m.model.IsTotal());
}

TEST(WfsTest, WinGameChain) {
  // n1 -> n2 -> n3 (no move from n3): n3 lost, n2 won, n1 lost.
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(n3)"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(n2)"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(n1)"), TruthValue::kFalse);
}

TEST(WfsTest, WinGameCycleIsDrawn) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(b, a).\n");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(a)"), TruthValue::kUndefined);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(b)"), TruthValue::kUndefined);
}

TEST(WfsTest, WinGameCycleWithEscape) {
  // a <-> b, b -> c, c dead: win(c)=false, win(b)=true, win(a)=false.
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(a, b). move(b, a). move(b, c).\n");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(c)"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(b)"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(a)"), TruthValue::kFalse);
}

TEST(WfsTest, OperatorsMonotone) {
  Fixture f(
      "p :- q, not r.\n"
      "q :- r, not p.\n"
      "r :- p, not q.\n"
      "s :- not p, not q, not r.\n");
  GroundProgram gp = MustGround(f.program);
  size_t n = gp.atom_count();
  Interpretation empty(n);
  Interpretation bigger(n);
  // bigger: {not p}
  auto p = gp.FindAtom(MustParseTerm(f.store, "p"));
  ASSERT_TRUE(p.has_value());
  bigger.SetFalse(*p);
  DenseBitset u_small = GreatestUnfoundedSet(gp, empty);
  DenseBitset u_big = GreatestUnfoundedSet(gp, bigger);
  EXPECT_TRUE(u_small.IsSubsetOf(u_big));
  DenseBitset t_small = TpStep(gp, empty);
  DenseBitset t_big = TpStep(gp, bigger);
  EXPECT_TRUE(t_small.IsSubsetOf(t_big));
}

TEST(WfsTest, GreatestUnfoundedSetIsUnfounded) {
  Fixture f(
      "p :- q, not r.\n"
      "q :- r, not p.\n"
      "r :- p, not q.\n"
      "s :- not p, not q, not r.\n"
      "t :- s.\n");
  GroundProgram gp = MustGround(f.program);
  Interpretation empty(gp.atom_count());
  DenseBitset u = GreatestUnfoundedSet(gp, empty);
  EXPECT_TRUE(IsUnfoundedSet(gp, empty, u));
}

TEST(WfsTest, WpIterationMatchesAlternatingFixpoint) {
  Rng rng(20260610);
  for (int trial = 0; trial < 60; ++trial) {
    std::string src = workload::RandomPropositional(
        rng, /*num_preds=*/8, /*num_rules=*/12, /*max_body=*/3);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    WfsModel wp = ComputeWfs(gp);
    WfsModel alt = ComputeWfsAlternating(gp);
    EXPECT_EQ(wp.model, alt.model) << "program:\n" << src;
  }
}

TEST(WfsTest, StagesModelMatchesWpModel) {
  Rng rng(777);
  for (int trial = 0; trial < 60; ++trial) {
    std::string src = workload::RandomPropositional(rng, 7, 14, 3);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    WfsModel wp = ComputeWfs(gp);
    WfsStages st = ComputeWfsStages(gp);
    EXPECT_EQ(wp.model, st.model) << "program:\n" << src;
  }
}

TEST(WfsTest, StagesAreSuccessorStagesAndMonotone) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3). move(n3, n4).\n");
  GroundProgram gp = MustGround(f.program);
  WfsStages st = ComputeWfsStages(gp);
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    if (st.model.IsTrue(a)) {
      EXPECT_GE(st.true_stage[a], 1u);
      EXPECT_EQ(st.false_stage[a], 0u);
    } else if (st.model.IsFalse(a)) {
      EXPECT_GE(st.false_stage[a], 1u);
      EXPECT_EQ(st.true_stage[a], 0u);
    } else {
      EXPECT_EQ(st.true_stage[a], 0u);
      EXPECT_EQ(st.false_stage[a], 0u);
    }
  }
}

TEST(WfsTest, GameStages) {
  // Chain n1 -> n2 -> n3: win(n3) false at stage 1, win(n2) true at
  // stage 2 (V_P computes move facts and the first unfounded layer in one
  // round; stages follow Def. 2.4).
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  GroundProgram gp = MustGround(f.program);
  WfsStages st = ComputeWfsStages(gp);
  auto stage_false = [&](std::string_view a) {
    return st.false_stage[*gp.FindAtom(MustParseTerm(f.store, a))];
  };
  auto stage_true = [&](std::string_view a) {
    return st.true_stage[*gp.FindAtom(MustParseTerm(f.store, a))];
  };
  EXPECT_EQ(stage_false("win(n3)"), 1u);
  EXPECT_EQ(stage_true("win(n2)"), 2u);
  EXPECT_EQ(stage_false("win(n1)"), 3u);
}

TEST(WfsTest, PerfectModelAgreesOnStratifiedPrograms) {
  Rng rng(42);
  int stratified_seen = 0;
  for (int trial = 0; trial < 800 && stratified_seen < 40; ++trial) {
    std::string src = workload::RandomPropositional(rng, 6, 7, 3);
    Fixture f(src);
    Stratification strat = Stratify(f.program);
    if (!strat.stratified) continue;
    ++stratified_seen;
    GroundProgram gp = MustGround(f.program);
    WfsModel wfs = ComputeWfs(gp);
    Result<Interpretation> perfect = ComputePerfectModel(gp, strat);
    ASSERT_TRUE(perfect.ok());
    EXPECT_TRUE(wfs.model.IsTotal()) << "stratified WFS must be total:\n"
                                     << src;
    EXPECT_EQ(wfs.model, perfect.value()) << "program:\n" << src;
  }
  EXPECT_GE(stratified_seen, 10);
}

TEST(WfsTest, PerfectModelRejectsUnstratified) {
  Fixture f("p :- not p.");
  Stratification strat = Stratify(f.program);
  EXPECT_FALSE(strat.stratified);
  GroundProgram gp = MustGround(f.program);
  Result<Interpretation> r = ComputePerfectModel(gp, strat);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(WfsTest, TotalWellFoundedModelIsTwoValuedModel) {
  Fixture f(
      "win(X) :- move(X, Y), not win(Y).\n"
      "move(n1, n2). move(n2, n3).\n");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = ComputeWfs(gp);
  ASSERT_TRUE(m.model.IsTotal());
  EXPECT_TRUE(IsTwoValuedModel(gp, m.model));
}

TEST(WfsTest, WellFoundedModelIsConsistent) {
  Rng rng(9);
  for (int trial = 0; trial < 40; ++trial) {
    std::string src = workload::RandomPropositional(rng, 10, 18, 4);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    WfsModel m = ComputeWfs(gp);
    EXPECT_TRUE(m.model.IsConsistent()) << src;
  }
}

TEST(WfsTest, LocallyStratifiedGroundProgramHasTotalModel) {
  Rng rng(1234);
  int seen = 0;
  for (int trial = 0; trial < 300 && seen < 30; ++trial) {
    std::string src = workload::RandomPropositional(rng, 6, 9, 2);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    if (!AtomDependencyGraph(gp).IsLocallyStratified()) continue;
    ++seen;
    WfsModel m = ComputeWfs(gp);
    EXPECT_TRUE(m.model.IsTotal())
        << "locally stratified => total WFS:\n"
        << src;
  }
  EXPECT_GE(seen, 30);
}

}  // namespace
}  // namespace gsls
