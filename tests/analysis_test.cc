#include "analysis/dependency_graph.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "analysis/dynamic_condensation.h"
#include "analysis/scc.h"
#include "scc_reference.h"
#include "test_support.h"
#include "util/csr.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

FunctorId Pred(Fixture& f, std::string_view name, uint32_t arity) {
  return f.store.symbols().FindFunctor(name, arity);
}

TEST(DependencyGraphTest, EdgesCarrySigns) {
  Fixture f("p :- q, not r.");
  DependencyGraph g(f.program);
  ASSERT_EQ(g.edges().size(), 2u);
  EXPECT_TRUE(g.edges()[0].positive);
  EXPECT_FALSE(g.edges()[1].positive);
  EXPECT_EQ(g.predicates().size(), 3u);
}

TEST(DependencyGraphTest, SccGroupsMutualRecursion) {
  Fixture f(
      "p :- q. q :- p.\n"
      "r :- p.\n");
  DependencyGraph g(f.program);
  auto comps = g.StronglyConnectedComponents();
  auto ids = g.ComponentIds();
  EXPECT_EQ(ids[Pred(f, "p", 0)], ids[Pred(f, "q", 0)]);
  EXPECT_NE(ids[Pred(f, "p", 0)], ids[Pred(f, "r", 0)]);
  // Reverse topological: callees first.
  EXPECT_LT(ids[Pred(f, "p", 0)], ids[Pred(f, "r", 0)]);
}

TEST(DependencyGraphTest, NegativeCycleDetection) {
  Fixture f1("p :- not q. q :- p.");
  EXPECT_TRUE(DependencyGraph(f1.program).HasNegativeCycle());
  Fixture f2("p :- not q. q :- r.");
  EXPECT_FALSE(DependencyGraph(f2.program).HasNegativeCycle());
}

TEST(DependencyGraphTest, AcyclicityChecks) {
  Fixture chain("p :- q. q :- r. r.");
  EXPECT_TRUE(DependencyGraph(chain.program).IsAcyclic());
  Fixture self("p :- p.");
  EXPECT_FALSE(DependencyGraph(self.program).IsAcyclic());
  Fixture rec("t(X, Y) :- e(X, Z), t(Z, Y).");
  EXPECT_FALSE(DependencyGraph(rec.program).IsAcyclic());
}

TEST(DependencyGraphTest, Reachability) {
  Fixture f(
      "p :- q. q :- r. s :- t.\n"
      "r. t.\n");
  DependencyGraph g(f.program);
  auto reach = g.ReachableFrom({Pred(f, "p", 0)});
  EXPECT_TRUE(reach.count(Pred(f, "q", 0)));
  EXPECT_TRUE(reach.count(Pred(f, "r", 0)));
  EXPECT_FALSE(reach.count(Pred(f, "s", 0)));
  EXPECT_FALSE(reach.count(Pred(f, "t", 0)));
}

TEST(StratifyTest, StratifiedProgramGetsLayers) {
  Fixture f(
      "e(a, b).\n"
      "t(X, Y) :- e(X, Y).\n"
      "t(X, Y) :- e(X, Z), t(Z, Y).\n"
      "nt(X, Y) :- v(X), v(Y), not t(X, Y).\n"
      "v(a). v(b).\n");
  Stratification s = Stratify(f.program);
  ASSERT_TRUE(s.stratified);
  EXPECT_EQ(s.strata[Pred(f, "e", 2)], 0);
  EXPECT_EQ(s.strata[Pred(f, "t", 2)], 0);
  EXPECT_EQ(s.strata[Pred(f, "nt", 2)], 1);
  EXPECT_EQ(s.stratum_count, 2);
}

TEST(StratifyTest, RecursionThroughNegationRejected) {
  Fixture f("win(X) :- move(X, Y), not win(Y). move(a, b).");
  Stratification s = Stratify(f.program);
  EXPECT_FALSE(s.stratified);
}

TEST(StratifyTest, MultiLayerStrata) {
  Fixture f(
      "a.\n"
      "b :- not a.\n"
      "c :- not b.\n"
      "d :- not c, b.\n");
  Stratification s = Stratify(f.program);
  ASSERT_TRUE(s.stratified);
  EXPECT_EQ(s.strata[Pred(f, "a", 0)], 0);
  EXPECT_EQ(s.strata[Pred(f, "b", 0)], 1);
  EXPECT_EQ(s.strata[Pred(f, "c", 0)], 2);
  EXPECT_EQ(s.strata[Pred(f, "d", 0)], 3);
  EXPECT_EQ(s.stratum_count, 4);
}

TEST(StratifyTest, PositiveRecursionStaysInOneStratum) {
  Fixture f("t(X,Y) :- e(X,Y). t(X,Y) :- e(X,Z), t(Z,Y). e(a,b).");
  Stratification s = Stratify(f.program);
  ASSERT_TRUE(s.stratified);
  EXPECT_EQ(s.stratum_count, 1);
}

TEST(GroundAnalysisTest, LocalStratificationOnGroundPrograms) {
  // Stratified at the atom level even though predicate-level analysis says
  // no: even/odd alternation on a finite chain.
  Fixture f(
      "even(z).\n"
      "even(s(X)) :- not even(X).\n");
  Stratification s = Stratify(f.program);
  EXPECT_FALSE(s.stratified);  // predicate-level: even depends on not even
  GroundProgram gp = testing::MustGround(f.program, /*term_depth=*/4);
  // atom-level: even(s(x)) < even(x)
  EXPECT_TRUE(AtomDependencyGraph(gp).IsLocallyStratified());
}

TEST(GroundAnalysisTest, NegativeAtomCycleNotLocallyStratified) {
  Fixture f("p :- not q. q :- not p.");
  GroundProgram gp = testing::MustGround(f.program);
  EXPECT_FALSE(AtomDependencyGraph(gp).IsLocallyStratified());
}

TEST(GroundAnalysisTest, AtomAcyclicity) {
  Fixture chain("p :- q. q :- r. r.");
  EXPECT_TRUE(
      AtomDependencyGraph(testing::MustGround(chain.program)).IsAcyclic());
  // The loops below need a seed fact: the relevant grounder drops rules
  // whose positive bodies can never be derived.
  Fixture loop("p :- q. q :- p. p.");
  EXPECT_FALSE(
      AtomDependencyGraph(testing::MustGround(loop.program)).IsAcyclic());
  Fixture self("p :- p. p.");
  EXPECT_FALSE(
      AtomDependencyGraph(testing::MustGround(self.program)).IsAcyclic());
  // Brute-force instantiation keeps underivable rules and sees the cycle.
  Fixture pure_loop("p :- q. q :- p.");
  Result<GroundProgram> full =
      FullyInstantiate(pure_loop.program, GroundingOptions{});
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE(AtomDependencyGraph(*full).IsAcyclic());
}

// --- ForEachScc against mutual reachability (scc_reference.h) ----------

/// One `ForEachScc` run: each node's component, numbered in emission
/// order, and the number of `step()` calls.
struct SccRun {
  std::vector<uint32_t> component;
  std::vector<std::vector<uint32_t>> members;
  uint64_t steps = 0;
};

using EdgeList = std::vector<std::pair<uint32_t, uint32_t>>;

SccRun RunScc(uint32_t n, const EdgeList& edges) {
  Csr<uint32_t> graph;
  graph.Reset(n);
  for (const auto& [u, v] : edges) graph.CountAt(u);
  graph.FinishCounting();
  for (const auto& [u, v] : edges) graph.Fill(u, v);
  graph.FinishFilling();
  SccRun run;
  run.component.assign(n, UINT32_MAX);
  ForEachScc(
      graph,
      [&](std::span<const uint32_t> members) {
        for (uint32_t v : members) {
          EXPECT_EQ(run.component[v], UINT32_MAX) << "node emitted twice";
          run.component[v] = static_cast<uint32_t>(run.members.size());
        }
        run.members.emplace_back(members.begin(), members.end());
      },
      [&] { ++run.steps; });
  return run;
}

/// The partition is mutual reachability, components come out callees
/// first, and `step()` ran once per edge and once per node.
void ExpectSccMatchesReference(uint32_t n, const EdgeList& edges) {
  const SccRun run = RunScc(n, edges);
  std::vector<std::vector<uint32_t>> succ(n);
  for (const auto& [u, v] : edges) succ[u].push_back(v);
  const std::vector<uint32_t> ref = testing::ReferenceComponents(succ);
  for (uint32_t v = 0; v < n; ++v) {
    ASSERT_NE(run.component[v], UINT32_MAX) << "node " << v << " not emitted";
    for (uint32_t u = 0; u < v; ++u) {
      EXPECT_EQ(run.component[u] == run.component[v], ref[u] == ref[v])
          << "nodes " << u << ", " << v;
    }
  }
  for (const auto& [u, v] : edges) {
    EXPECT_LE(run.component[v], run.component[u])
        << "edge " << u << " -> " << v << " points to a later component";
  }
  EXPECT_EQ(run.steps, uint64_t{n} + edges.size());
}

TEST(SccTest, EmptyGraphEmitsNothing) {
  const SccRun run = RunScc(0, {});
  EXPECT_TRUE(run.members.empty());
  EXPECT_EQ(run.steps, 0u);
}

TEST(SccTest, IsolatedNodesSelfLoopsAndDuplicateEdges) {
  // Isolated nodes are singletons in root (ascending id) order.
  SccRun run = RunScc(3, {});
  EXPECT_EQ(run.members, (std::vector<std::vector<uint32_t>>{{0}, {1}, {2}}));
  // A self-loop alone does not merge anything.
  run = RunScc(2, {{1, 1}, {1, 1}, {0, 1}});
  EXPECT_EQ(run.members, (std::vector<std::vector<uint32_t>>{{1}, {0}}));
  // A duplicated cycle edge: one component, members in stack-pop order
  // (the DFS root last).
  run = RunScc(3, {{0, 1}, {1, 2}, {2, 0}, {2, 0}});
  EXPECT_EQ(run.members, (std::vector<std::vector<uint32_t>>{{2, 1, 0}}));
  EXPECT_EQ(run.steps, 3u + 4u);
}

TEST(SccTest, RandomDigraphsMatchMutualReachability) {
  Rng rng(0x5CC5u);
  for (int trial = 0; trial < 300; ++trial) {
    const uint32_t n = static_cast<uint32_t>(rng.UniformInt(0, 24));
    EdgeList edges;
    if (n > 0) {
      const int m = rng.UniformInt(0, 3 * static_cast<int>(n));
      for (int e = 0; e < m; ++e) {
        edges.emplace_back(static_cast<uint32_t>(rng.Uniform(n)),
                           static_cast<uint32_t>(rng.Uniform(n)));
      }
      if (rng.Chance(1, 2)) {  // a self-loop
        const uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
        edges.emplace_back(v, v);
      }
      if (!edges.empty() && rng.Chance(1, 2)) {  // a duplicate edge
        edges.push_back(edges[rng.Uniform(edges.size())]);
      }
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ", n=" << n);
    ExpectSccMatchesReference(n, edges);
  }
}

/// The condensation's partition and both flags equal the reference's,
/// atom by atom, and every enabled rule's body component is labelled at
/// or below its head's.
void ExpectCondensationMatchesReference(const GroundProgram& gp,
                                        const std::vector<uint8_t>* disabled,
                                        const AtomDependencyGraph& g) {
  const testing::ReferenceCondensation ref =
      testing::ReferenceCondense(gp, disabled);
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    const uint32_t c = g.ComponentOf(a);
    for (AtomId b = 0; b < a; ++b) {
      EXPECT_EQ(g.ComponentOf(b) == c, ref.component[b] == ref.component[a])
          << "atoms " << b << ", " << a;
    }
    EXPECT_EQ(g.IsRecursive(c), ref.recursive[a] != 0) << "atom " << a;
    EXPECT_EQ(g.HasInternalNegation(c), ref.internal_neg[a] != 0)
        << "atom " << a;
  }
  for (RuleId id = 0; id < gp.rule_count(); ++id) {
    if (!RuleEnabledIn(disabled, id)) continue;
    const GroundRule& r = gp.rules()[id];
    const uint64_t head = g.Label(g.ComponentOf(r.head));
    for (AtomId b : r.pos) EXPECT_LE(g.Label(g.ComponentOf(b)), head);
    for (AtomId b : r.neg) EXPECT_LE(g.Label(g.ComponentOf(b)), head);
  }
}

TEST(SccTest, CondensationFlagsMatchDefinitionOnRandomPrograms) {
  Rng rng(0xF1A6u);
  for (int trial = 0; trial < 60; ++trial) {
    const std::string src = workload::RandomPropositional(rng, 8, 14, 3);
    Fixture f(src);
    const GroundProgram gp = testing::MustGround(f.program);
    SCOPED_TRACE(src);
    ExpectCondensationMatchesReference(gp, nullptr, AtomDependencyGraph(gp));
  }
}

TEST(SccTest, RepairsMatchDefinitionUnderRuleChurn) {
  // Splits run `ForEachScc` over one component and merges run the
  // Pearce-Kelly repair; both must keep the reference partition and flags
  // of the enabled subprogram after every single-rule toggle.
  Rng rng(0xC4u);
  for (int trial = 0; trial < 20; ++trial) {
    const std::string src = workload::RandomPropositional(rng, 8, 16, 3);
    Fixture f(src);
    const GroundProgram gp = testing::MustGround(f.program);
    if (gp.rule_count() == 0) continue;
    std::vector<uint8_t> disabled(gp.rule_count(), 0);
    DynamicCondensation dc(gp, &disabled);
    SCOPED_TRACE(src);
    for (int step = 0; step < 40; ++step) {
      const RuleId r = static_cast<RuleId>(rng.Uniform(gp.rule_count()));
      disabled[r] ^= 1;
      if (disabled[r] != 0) {
        dc.RemoveRule(gp, &disabled, r);
      } else {
        dc.InsertRule(gp, &disabled, r);
      }
      SCOPED_TRACE(::testing::Message() << "step " << step << ", rule " << r);
      ExpectCondensationMatchesReference(gp, &disabled, dc.graph());
    }
  }
}

}  // namespace
}  // namespace gsls
