#include "solver/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/atom_dependency_graph.h"
#include "scc_reference.h"
#include "solver/incremental.h"
#include "solver/rule_table.h"
#include "test_support.h"
#include "util/rng.h"
#include "wfs/wfs.h"
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

/// SolveWfs must agree atom-for-atom with all three reference fixpoints.
void ExpectAgreesWithReference(const GroundProgram& gp,
                               const std::string& src) {
  WfsModel scc = SolveWfs(gp);
  WfsModel alternating = ComputeWfsAlternating(gp);
  EXPECT_EQ(scc.model, alternating.model)
      << "SolveWfs vs alternating fixpoint on:\n"
      << src << "diff:\n"
      << DescribeModelDifference(gp, scc.model, alternating.model);
  WfsModel wp = ComputeWfs(gp);
  EXPECT_EQ(scc.model, wp.model)
      << "SolveWfs vs W_P iteration on:\n"
      << src << "diff:\n"
      << DescribeModelDifference(gp, scc.model, wp.model);
  WfsStages stages = ComputeWfsStages(gp);
  EXPECT_EQ(scc.model, stages.model)
      << "SolveWfs vs V_P stages on:\n"
      << src << "diff:\n"
      << DescribeModelDifference(gp, scc.model, stages.model);
}

TEST(SolverTest, FactsChainAndNegation) {
  Fixture f("p. q :- p. r :- not s.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "r"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "s"), TruthValue::kFalse);
  EXPECT_TRUE(m.model.IsTotal());
}

TEST(SolverTest, PositiveLoopIsFalse) {
  Fixture f("p :- q. q :- p. r :- p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "r"), TruthValue::kFalse);
}

TEST(SolverTest, SelfNegationIsUndefined) {
  Fixture f("p :- not p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kUndefined);
}

TEST(SolverTest, NegativeTwoCycleWithEscape) {
  Fixture f("p :- not q. q :- not p. q. t :- p. u :- not p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "t"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "u"), TruthValue::kTrue);
}

TEST(SolverTest, MixedLoopThroughPositiveBodyIsUndefined) {
  // p <- c, not p with c true: p can neither fire nor be unfounded.
  Fixture f("c. p :- c, not p.");
  GroundProgram gp = MustGround(f.program);
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "c"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kUndefined);
}

TEST(SolverTest, PaperExample32Model) {
  // Example 3.2: M_WF = {s, not p, not q, not r}.
  Fixture f(workload::Example32Program());
  GroundProgram gp = MustGround(f.program);
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "p"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "r"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "s"), TruthValue::kTrue);
  EXPECT_TRUE(m.model.IsTotal());
  ExpectAgreesWithReference(gp, workload::Example32Program());
}

TEST(SolverTest, PaperExample33Model) {
  // Example 3.3: s true, q false. (On the full program the p(f^k(a))
  // family is undefined; the depth-bounded grounding truncates that
  // infinite regress, so only the determined literals are checked here —
  // the point of this test is agreement on the exact same grounding.)
  Fixture f(workload::Example33Program());
  GroundProgram gp = MustGround(f.program, /*term_depth=*/5);
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "s"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "q"), TruthValue::kFalse);
  ExpectAgreesWithReference(gp, workload::Example33Program());
}

TEST(SolverTest, VanGelderProgramAgreement) {
  // Example 3.1 on a bounded universe: the model is total, every w true
  // and every u false (see PaperExamples.Ex31...).
  Fixture f(workload::VanGelderProgram());
  GroundProgram gp = MustGround(f.program, /*term_depth=*/6);
  WfsModel m = SolveWfs(gp);
  EXPECT_TRUE(m.model.IsTotal());
  EXPECT_EQ(ValueOf(gp, m, f.store, "w(s(0))"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "u(s(s(0)))"), TruthValue::kFalse);
  ExpectAgreesWithReference(gp, workload::VanGelderProgram());
}

TEST(SolverTest, WinChainValues) {
  // n1 -> ... -> n6: alternating lost/won from the dead end backwards.
  Fixture f(workload::GameChain(6));
  GroundProgram gp = MustGround(f.program);
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(n6)"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(n5)"), TruthValue::kTrue);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(n4)"), TruthValue::kFalse);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(n1)"), TruthValue::kTrue);
  ExpectAgreesWithReference(gp, workload::GameChain(6));
}

TEST(SolverTest, WinCycleWithTailIsPartiallyDrawn) {
  std::string src = workload::GameCycleWithTail(9, 8);
  Fixture f(src);
  GroundProgram gp = MustGround(f.program);
  ExpectAgreesWithReference(gp, src);
  // The odd cycle positions draw (undefined); the tail end is determined.
  WfsModel m = SolveWfs(gp);
  EXPECT_EQ(ValueOf(gp, m, f.store, "win(t8)"), TruthValue::kFalse);
  EXPECT_FALSE(m.model.IsTotal());
}

TEST(SolverTest, GridAndReachabilityFamilies) {
  // Small instances, then every family at the sizes the solver benchmarks
  // time, up to the long chain whose stage depth makes the global
  // fixpoints quadratic.
  Rng rng(20260728);
  Rng sized(20260728);
  const std::string sources[] = {
      workload::GameGrid(6, 6),
      workload::ReachabilityWithNegation(rng, 9, 25),
      workload::GameChain(256),
      workload::GameChain(1024),
      workload::GameChain(4096),
      workload::GameGrid(24, 24),
      workload::GameCycleWithTail(51, 50),
      workload::RandomGame(sized, 48, 10),
      workload::ReachabilityWithNegation(sized, 16, 20),
      workload::RandomPropositional(sized, 48, 160, 3),
  };
  for (const std::string& src : sources) {
    Fixture f(src);
    ExpectAgreesWithReference(MustGround(f.program), src);
  }
}

TEST(SolverTest, RandomPropositionalAgreement) {
  // The headline property: SolveWfs == ComputeWfsAlternating on hundreds
  // of random normal programs covering positive, negative, and mixed
  // recursion.
  Rng rng(0x5CC0u);
  for (int trial = 0; trial < 300; ++trial) {
    std::string src = workload::RandomPropositional(
        rng, /*num_preds=*/8, /*num_rules=*/14, /*max_body=*/4);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    WfsModel scc = SolveWfs(gp);
    WfsModel alternating = ComputeWfsAlternating(gp);
    ASSERT_EQ(scc.model, alternating.model)
        << "trial " << trial << ":\n"
        << src << "diff:\n"
        << DescribeModelDifference(gp, scc.model, alternating.model);
  }
}

TEST(SolverTest, RandomGameAgreement) {
  Rng rng(0x6A3Eu);
  for (int trial = 0; trial < 120; ++trial) {
    std::string src = workload::RandomGame(rng, 8, 30);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    WfsModel scc = SolveWfs(gp);
    WfsModel alternating = ComputeWfsAlternating(gp);
    ASSERT_EQ(scc.model, alternating.model)
        << "trial " << trial << ":\n"
        << src << "diff:\n"
        << DescribeModelDifference(gp, scc.model, alternating.model);
  }
}

TEST(SolverTest, ChainDiagnosticsAreStratified) {
  Fixture f(workload::GameChain(64));
  GroundProgram gp = MustGround(f.program);
  SolverDiagnostics diag;
  WfsModel m = SolveWfs(gp, &diag);
  EXPECT_TRUE(m.model.IsTotal());
  // Every win(ni) and move fact is its own non-recursive component: the
  // whole chain solves by direct evaluation, no floods, no iteration.
  EXPECT_EQ(diag.component_count, gp.atom_count());
  EXPECT_EQ(diag.max_component_size, 1u);
  EXPECT_EQ(diag.recursive_components, 0u);
  EXPECT_EQ(diag.negation_components, 0u);
  EXPECT_EQ(diag.unfounded_floods, 0u);
  EXPECT_EQ(diag.alternating_rounds, 0u);
  EXPECT_GE(diag.rules_visited, gp.rule_count());
}

TEST(SolverTest, CycleDiagnosticsShowNegationComponent) {
  Fixture f(workload::GameCycleWithTail(6, 4));
  GroundProgram gp = MustGround(f.program);
  SolverDiagnostics diag;
  SolveWfs(gp, &diag);
  // The win-atoms of the cycle form one SCC that recurses through
  // negation; the tail stays non-recursive.
  EXPECT_EQ(diag.negation_components, 1u);
  EXPECT_GE(diag.max_component_size, 6u);
  EXPECT_LT(diag.recursive_components, diag.component_count);
}

TEST(SolverTest, PurePositiveLoopNeedsNoFlood) {
  // Unfounded at initialization, before any propagation: no flood runs.
  // (The relevant grounder would prune the loop outright, so instantiate
  // the brute-force fragment.)
  Fixture f("p :- q. q :- p.");
  GroundingOptions opts;
  Result<GroundProgram> gp = FullyInstantiate(f.program, opts);
  ASSERT_TRUE(gp.ok());
  ASSERT_EQ(gp->atom_count(), 2u);
  SolverDiagnostics diag;
  WfsModel m = SolveWfs(gp.value(), &diag);
  EXPECT_TRUE(m.model.IsTotal());
  EXPECT_EQ(m.model.true_set().Count(), 0u);
  EXPECT_EQ(diag.unfounded_floods, 0u);
  EXPECT_EQ(diag.unfounded_falsified, 2u);
}

TEST(AtomDependencyGraphTest, ComponentsAreInDependencyOrder) {
  Rng rng(0xDA67u);
  for (int trial = 0; trial < 50; ++trial) {
    std::string src = workload::RandomPropositional(rng, 7, 12, 3);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    AtomDependencyGraph graph(gp);
    for (RuleId id = 0; id < gp.rule_count(); ++id) {
      const RuleView r = gp.rule(id);
      for (AtomId b : r.pos) {
        EXPECT_LE(graph.ComponentOf(b), graph.ComponentOf(r.head)) << src;
      }
      for (AtomId b : r.neg) {
        EXPECT_LE(graph.ComponentOf(b), graph.ComponentOf(r.head)) << src;
      }
    }
  }
}

TEST(AtomDependencyGraphTest, MembersMatchComponentIds) {
  Fixture f(workload::GameCycleWithTail(5, 3));
  GroundProgram gp = MustGround(f.program);
  AtomDependencyGraph graph(gp);
  size_t seen = 0;
  for (uint32_t c = 0; c < graph.component_count(); ++c) {
    std::span<const AtomId> atoms = graph.Atoms(c);
    seen += atoms.size();
    for (uint32_t i = 0; i < atoms.size(); ++i) {
      EXPECT_EQ(graph.ComponentOf(atoms[i]), c);
      EXPECT_EQ(graph.LocalIndexOf(atoms[i]), i);
    }
  }
  EXPECT_EQ(seen, gp.atom_count());
}

TEST(AtomDependencyGraphTest, StratificationFlagsMatchGroundProgram) {
  // Local stratification and acyclicity by definition: no rule's head
  // shares a mutual-reachability class with a negative (resp. any) body
  // atom, and no class has two atoms.
  Rng rng(0xF1A6u);
  for (int trial = 0; trial < 40; ++trial) {
    std::string src = workload::RandomPropositional(rng, 6, 9, 3);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    AtomDependencyGraph graph(gp);
    const testing::ReferenceCondensation ref = testing::ReferenceCondense(gp);
    const bool stratified = std::none_of(
        ref.internal_neg.begin(), ref.internal_neg.end(),
        [](uint8_t flag) { return flag != 0; });
    const bool acyclic = std::none_of(ref.recursive.begin(),
                                      ref.recursive.end(),
                                      [](uint8_t flag) { return flag != 0; });
    EXPECT_EQ(graph.IsLocallyStratified(), stratified) << src;
    EXPECT_EQ(graph.IsAcyclic(), acyclic) << src;
  }
}


/// The keep-all table (the warm path's, which retains every candidate
/// rule) and the default table compile one component from the same mask
/// and solved tape. With its dead rules (disabled, or suppressed by a
/// false external) left out, the keep-all table must be the default table:
/// the same rules in the same order and the same occurrence rows.
TEST(RuleTableTest, KeepAllLiveRulesEqualTheDefaultCompile) {
  size_t disabled_dead = 0;
  size_t witness_dead = 0;
  size_t compared = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Rng gen(seed);
    Fixture f(seed % 2 == 1 ? workload::RandomGame(gen, 40, 8)
                            : workload::RandomPropositional(gen, 30, 90, 3));
    IncrementalSolver inc(MustGround(f.program));
    Rng rng(seed * 7919);
    for (RuleId r = 0; r < inc.program().rule_count(); ++r) {
      if (rng.Chance(1, 6)) inc.RetractRule(r);
    }
    inc.Model();
    const GroundProgram& gp = inc.program();
    const AtomDependencyGraph& graph = *inc.graph();
    const std::vector<uint8_t>* mask = &inc.disabled_mask();
    for (uint32_t c = 0; c < graph.id_bound(); ++c) {
      if (graph.Atoms(c).empty()) continue;
      const std::string context = StrCat("seed ", seed, " component ", c);
      solver::RuleTable cold(gp, graph, c, inc.tape(), mask);
      solver::RuleTable keep(gp, graph, c, inc.tape(), mask, nullptr,
                             /*keep_all=*/true);
      size_t candidates = 0;
      for (AtomId a : graph.Atoms(c)) candidates += gp.RulesFor(a).size();
      ASSERT_EQ(keep.rule_count(), candidates) << context;

      // Keep-all rule -> its index among the live rules (or kNoRule).
      std::vector<solver::LocalRule> live(keep.rule_count(), solver::kNoRule);
      solver::LocalRule next = 0;
      for (solver::LocalRule r = 0; r < keep.rule_count(); ++r) {
        if (!keep.rule(r).dead) {
          live[r] = next++;
        } else if (RuleEnabledIn(mask, keep.GlobalRule(r))) {
          ++witness_dead;
        } else {
          ++disabled_dead;
        }
      }
      ASSERT_EQ(next, cold.rule_count()) << context;
      for (solver::LocalRule r = 0; r < keep.rule_count(); ++r) {
        if (live[r] == solver::kNoRule) continue;
        const solver::CompiledRule& k = keep.rule(r);
        const solver::CompiledRule& d = cold.rule(live[r]);
        EXPECT_FALSE(d.dead) << context;
        EXPECT_EQ(k.head, d.head) << context << " rule " << r;
        EXPECT_EQ(k.unsat, d.unsat) << context << " rule " << r;
        EXPECT_EQ(k.undef_external, d.undef_external)
            << context << " rule " << r;
        EXPECT_TRUE(std::ranges::equal(keep.PosBody(r), cold.PosBody(live[r])))
            << context << " rule " << r;
        EXPECT_TRUE(std::ranges::equal(keep.NegBody(r), cold.NegBody(live[r])))
            << context << " rule " << r;
      }
      auto live_row = [&](std::span<const solver::LocalRule> row) {
        std::vector<solver::LocalRule> out;
        for (solver::LocalRule r : row) {
          if (live[r] != solver::kNoRule) out.push_back(live[r]);
        }
        return out;
      };
      auto row = [](std::span<const solver::LocalRule> r) {
        return std::vector<solver::LocalRule>(r.begin(), r.end());
      };
      for (solver::LocalAtom a = 0; a < keep.atom_count(); ++a) {
        EXPECT_EQ(live_row(keep.RulesFor(a)), row(cold.RulesFor(a)))
            << context << " atom " << a;
        EXPECT_EQ(live_row(keep.PositiveOccurrences(a)),
                  row(cold.PositiveOccurrences(a)))
            << context << " atom " << a;
        EXPECT_EQ(live_row(keep.NegativeOccurrences(a)),
                  row(cold.NegativeOccurrences(a)))
            << context << " atom " << a;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 100u);
  EXPECT_GT(disabled_dead, 0u);
  EXPECT_GT(witness_dead, 0u);
}

}  // namespace
}  // namespace gsls
