// Goal-directed query mode (`IncrementalSolver::QueryAtom`): down-cone
// restricted solving with per-component memoization. Coverage — cone
// answers agree with the full solve on the paper programs and on hundreds
// of randomized programs at 1/2/4 threads; memo invalidation stays exact
// under interleaved fact/rule deltas and queries (stale-memo regression);
// cone walks stay correct across recondensation windows that merge and
// split components; the TabledEngine/GlobalSlsEngine surfaces match their
// full-solve counterparts.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "cone_oracle.h"
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

SolverOptions Leveled(unsigned threads = 1) {
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  return opts;
}

/// Queries every atom (highest components first, so each query meets the
/// largest possible memo-cold cone) and checks value + stages against a
/// fresh full solve of the same program state.
void ExpectQueriesMatchFresh(IncrementalSolver& inc,
                             const std::string& context) {
  WfsModel fresh = inc.SolveFresh();
  const bool levels = inc.options().compute_levels;
  for (AtomId i = inc.program().atom_count(); i-- > 0;) {
    IncrementalSolver::QueryAnswer ans = inc.QueryAtom(i);
    ASSERT_EQ(ans.value, fresh.model.Value(i))
        << context << ": atom " << i;
    if (!levels) continue;
    if (ans.value == TruthValue::kTrue) {
      ASSERT_EQ(ans.true_stage, fresh.true_stage[i])
          << context << ": true stage of atom " << i;
    } else if (ans.value == TruthValue::kFalse) {
      ASSERT_EQ(ans.false_stage, fresh.false_stage[i])
          << context << ": false stage of atom " << i;
    }
  }
}

/// Toggles a random non-unit rule (`rng` picks it), so rule deltas can
/// merge and split components under a populated memo.
void ToggleRandomRule(IncrementalSolver& inc, Rng& rng) {
  std::vector<RuleId> rules;
  for (RuleId r = 0; r < inc.program().rule_count(); ++r) {
    const GroundRule& rule = inc.program().rules()[r];
    if (!rule.pos.empty() || !rule.neg.empty()) rules.push_back(r);
  }
  if (rules.empty()) return;
  const RuleId r = rules[rng.Uniform(rules.size())];
  if (inc.RuleEnabled(r)) {
    inc.RetractRule(r);
  } else {
    inc.AssertRule(inc.program().rules()[r]);
  }
}

/// Every atom of `src` queried goal-directed at 1, 2, and 4 threads: cold,
/// then again after each of four random rule toggles.
void ExpectQueriesMatchFreshUnderRuleToggles(const std::string& src) {
  for (unsigned threads : {1u, 2u, 4u}) {
    Fixture f(src);
    IncrementalSolver inc(MustGround(f.program), Leveled(threads));
    Rng rng(0xC0DE + threads);
    for (int d = 0; d <= 4; ++d) {
      if (d > 0) ToggleRandomRule(inc, rng);
      ExpectQueriesMatchFresh(
          inc, StrCat(threads, " thread(s), ", d, " rule toggles"));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(QueryTest, PaperProgramsAgreeAtAllThreadCounts) {
  for (const char* src :
       {workload::VanGelderProgram(), workload::Example32Program(),
        workload::Example33Program()}) {
    ExpectQueriesMatchFreshUnderRuleToggles(src);
  }
}

TEST(QueryTest, GameFamiliesAgreeAtAllThreadCounts) {
  Rng rng(0xC0DE5u);
  Rng forest_rng(20260808);
  Rng timed_rng(7);
  // Small instances, then the query benchmark's families up to the sizes
  // its point-query rows time.
  const std::string sources[] = {
      workload::GameChain(40),
      workload::GameCycleWithTail(9, 12),
      workload::GameGrid(6, 6),
      workload::GameForest(rng, 6, 8, 35),
      workload::GameChain(192),
      workload::GameGrid(10, 10),
      workload::GameCycleWithTail(33, 32),
      workload::GameForest(forest_rng, 8, 12, 30),
      workload::GameChain(256),
      workload::GameChain(1024),
      workload::GameChain(2048),
      workload::GameForest(timed_rng, 48, 16, 30),
      workload::GameGrid(24, 24),
      workload::GameCycleWithTail(101, 100),
  };
  for (const std::string& src : sources) {
    ExpectQueriesMatchFreshUnderRuleToggles(src);
  }
}

// >= 300 randomized programs, each exercised at 1, 2, and 4 threads:
// propositional programs (positive loops, negative loops, mixed
// recursion) and win/move games. Every atom of every program is queried
// goal-directed against a fresh full solve.
TEST(QueryTest, RandomizedAgreement) {
  int program = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed * 2654435761u + 11);
    std::string prop =
        workload::RandomPropositional(rng, 3 + static_cast<int>(seed % 10),
                                      6 + static_cast<int>(seed % 14), 3);
    std::string game =
        workload::RandomGame(rng, 4 + static_cast<int>(seed % 6), 35);
    for (const std::string& src : {prop, game}) {
      ++program;
      for (unsigned threads : {1u, 2u, 4u}) {
        Fixture f(src);
        IncrementalSolver inc(MustGround(f.program), Leveled(threads));
        ExpectQueriesMatchFresh(
            inc, StrCat("random program ", program, " seed ", seed, ", ",
                        threads, " thread(s)\n", src));
      }
    }
  }
  EXPECT_GE(program, 300);
}

TEST(QueryTest, ConeIsRestrictedToRelevantSubprogram) {
  // GameChain: win(n_i) :- move(n_i, n_{i+1}), not win(n_{i+1}) — the
  // truth of the *last* node depends on nothing else, so its down-cone
  // must stay O(1) while the program holds hundreds of components.
  Fixture f(workload::GameChain(400));
  IncrementalSolver inc(MustGround(f.program), Leveled());
  const Term* last = MustParseTerm(f.store, "win(n400)");
  IncrementalSolver::QueryAnswer ans = inc.QueryAtom(last);
  EXPECT_EQ(ans.value, TruthValue::kFalse);  // no move out of the end
  EXPECT_GT(ans.cone_components, 0u);
  EXPECT_LE(ans.cone_components, 4u);
  ASSERT_NE(inc.graph(), nullptr);
  EXPECT_GT(inc.graph()->component_count(), 400u);
  EXPECT_EQ(inc.stats().queries, 1u);
  EXPECT_EQ(inc.stats().query_fastpaths, 0u);

  // The first node's cone is the whole chain.
  IncrementalSolver::QueryAnswer root =
      inc.QueryAtom(MustParseTerm(f.store, "win(n1)"));
  EXPECT_GT(root.cone_components, 400u);
}

TEST(QueryTest, RepeatQueriesHitTheMemo) {
  Fixture f(workload::GameChain(64));
  IncrementalSolver inc(MustGround(f.program), Leveled());
  const Term* mid = MustParseTerm(f.store, "win(n32)");
  IncrementalSolver::QueryAnswer cold = inc.QueryAtom(mid);
  EXPECT_GT(cold.resolved_components, 0u);

  IncrementalSolver::QueryAnswer warm = inc.QueryAtom(mid);
  EXPECT_EQ(warm.value, cold.value);
  EXPECT_EQ(warm.resolved_components, 0u);  // every cone member memoized
  EXPECT_EQ(warm.memo_hits, warm.cone_components);
  EXPECT_GT(inc.memo().stats().hits, 0u);

  // After a full Model() everything is valid: queries take the global
  // fast path and do not even walk the cone.
  inc.Model();
  IncrementalSolver::QueryAnswer fast = inc.QueryAtom(mid);
  EXPECT_EQ(fast.value, cold.value);
  EXPECT_EQ(fast.cone_components, 0u);
  EXPECT_GT(inc.stats().query_fastpaths, 0u);
}

// The stale-memo regression: a delta inside the cone must be visible to
// the very next query, with no Model() call in between.
TEST(QueryTest, DeltaInvalidatesMemoizedCone) {
  Fixture f(workload::GameChain(16));
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  const Term* first = MustParseTerm(f.store, "win(n1)");
  TruthValue before = inc.QueryAtom(first).value;

  // Cutting the chain's last move flips the parity of every node above:
  // the memoized cone of win(n1) is stale from the bottom up.
  ASSERT_TRUE(inc.Retract(MustParseTerm(f.store, "move(n15, n16)")));
  IncrementalSolver::QueryAnswer after = inc.QueryAtom(first);
  EXPECT_NE(after.value, before);
  WfsModel fresh = inc.SolveFresh();
  EXPECT_EQ(after.value,
            fresh.model.Value(*inc.program().FindAtom(first)));
  EXPECT_EQ(after.true_stage,
            fresh.true_stage[*inc.program().FindAtom(first)]);
  ExpectQueriesMatchFresh(inc, "after retract, all atoms");
}

// A delta outside the query's cone must NOT re-solve it — and composes:
// down-cone(query) ∩ dirty is exactly what re-runs.
TEST(QueryTest, DeltaOutsideConeStaysMemoized) {
  // Two independent chains in one program.
  Fixture f(workload::GameChain(24) + "move(m1, m2). move(m2, m3).\n");
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  // win(m2): m2 -> m3 and m3 has no escape, so m2 is won.
  const Term* m2 = MustParseTerm(f.store, "win(m2)");
  EXPECT_EQ(inc.QueryAtom(m2).value, TruthValue::kTrue);

  // Perturb the n-chain; the m-chain's cone is untouched.
  ASSERT_TRUE(inc.Retract(MustParseTerm(f.store, "move(n23, n24)")));
  IncrementalSolver::QueryAnswer ans = inc.QueryAtom(m2);
  EXPECT_EQ(ans.value, TruthValue::kTrue);
  EXPECT_EQ(ans.resolved_components, 0u);  // dirty ∩ cone = empty
  EXPECT_EQ(ans.memo_hits, ans.cone_components);

  // The n-chain query pays only its own stale suffix.
  ExpectQueriesMatchFresh(inc, "cross-chain isolation");
}

// Queries that change values must leave out-of-cone dependents stale, and
// a later Model() (or wider query) must settle them: the change-pruned
// staleness propagation across passes.
TEST(QueryTest, OutOfConeDependentsSettleLater) {
  Fixture f(workload::GameChain(12));
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  ASSERT_TRUE(inc.Retract(MustParseTerm(f.store, "move(n11, n12)")));
  // Query deep in the chain: re-solves the changed suffix only; the nodes
  // above n6 are now stale but out of this cone.
  inc.QueryAtom(MustParseTerm(f.store, "win(n6)"));
  // The full model must still come out exact.
  WfsModel fresh = inc.SolveFresh();
  ASSERT_EQ(inc.Model().model, fresh.model)
      << DescribeModelDifference(inc.program(), inc.Model().model,
                                 fresh.model);
  for (AtomId a = 0; a < inc.program().atom_count(); ++a) {
    ASSERT_EQ(inc.Model().true_stage[a], fresh.true_stage[a]) << a;
    ASSERT_EQ(inc.Model().false_stage[a], fresh.false_stage[a]) << a;
  }
}

TEST(QueryTest, InvalidateMemoForcesColdCone) {
  Fixture f(workload::GameChain(32));
  IncrementalSolver inc(MustGround(f.program), Leveled());
  inc.Model();
  const Term* mid = MustParseTerm(f.store, "win(n16)");
  EXPECT_EQ(inc.QueryAtom(mid).cone_components, 0u);  // fast path

  inc.InvalidateMemo();
  IncrementalSolver::QueryAnswer cold = inc.QueryAtom(mid);
  EXPECT_GT(cold.resolved_components, 0u);
  EXPECT_EQ(cold.resolved_components, cold.cone_components);

  // Model() after the drop is a full from-scratch solve and is exact.
  WfsModel fresh = inc.SolveFresh();
  EXPECT_EQ(inc.Model().model, fresh.model);
}

TEST(QueryTest, UnregisteredAtomIsFalse) {
  Fixture f("a. b :- not a.");
  IncrementalSolver inc(MustGround(f.program), Leveled());
  IncrementalSolver::QueryAnswer ans =
      inc.QueryAtom(MustParseTerm(f.store, "zzz"));
  EXPECT_EQ(ans.value, TruthValue::kFalse);
  EXPECT_EQ(ans.false_stage, 1u);
  EXPECT_EQ(ans.cone_components, 0u);
}

// Rule deltas that re-condense — merging components (a new cycle-closing
// edge) and splitting one (retracting the rule that held it together) —
// while a populated memo's ids must translate through each window.
TEST(QueryTest, ConeWalkAfterMergeAndSplit) {
  Fixture f("a. b :- a. c :- b, not d. d :- not c. e :- c.");
  IncrementalSolver inc(MustGround(f.program), Leveled());
  // Populate the memo goal-directed (no full solve).
  ExpectQueriesMatchFresh(inc, "before deltas");

  // Merge: b :- e closes a cycle b -> c -> e -> b through negation.
  const Term* b = MustParseTerm(f.store, "b");
  const Term* e = MustParseTerm(f.store, "e");
  std::vector<const Term*> pos = {e};
  std::vector<const Term*> neg;
  bool changed = false;
  RuleId merge_rule = inc.AssertRule(b, pos, neg, &changed);
  ASSERT_TRUE(changed);
  ExpectQueriesMatchFresh(inc, "after merge");

  // Split: retracting it breaks the component apart again.
  ASSERT_TRUE(inc.RetractRule(merge_rule));
  ExpectQueriesMatchFresh(inc, "after split");
}

// Randomized interleavings of fact deltas, rule deltas (merges/splits),
// goal-directed queries, and occasional full solves, checked against a
// fresh solve at every step — at 1, 2, and 4 threads.
TEST(QueryTest, InterleavedDeltasAndQueriesAgree) {
  for (unsigned threads : {1u, 2u, 4u}) {
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      Rng rng(seed * 7919 + threads);
      std::string src = workload::RandomPropositional(
          rng, 8 + static_cast<int>(seed % 5), 16, 3);
      Fixture f(src);
      IncrementalSolver inc(MustGround(f.program), Leveled(threads));
      const auto atom = [&](int i) {
        return MustParseTerm(f.store, StrCat("p", i));
      };
      const int npreds = 8 + static_cast<int>(seed % 5);
      std::vector<RuleId> asserted;
      for (int step = 0; step < 60; ++step) {
        std::string context = StrCat("seed ", seed, " threads ", threads,
                                     " step ", step, "\n", src);
        switch (rng.UniformInt(0, 5)) {
          case 0:
            inc.Assert(atom(rng.UniformInt(0, npreds - 1)));
            break;
          case 1:
            inc.Retract(atom(rng.UniformInt(0, npreds - 1)));
            break;
          case 2: {  // random binary rule: may merge components
            const Term* head = atom(rng.UniformInt(0, npreds - 1));
            std::vector<const Term*> pos;
            std::vector<const Term*> neg;
            (rng.Chance(1, 2) ? pos : neg)
                .push_back(atom(rng.UniformInt(0, npreds - 1)));
            bool changed = false;
            RuleId r = inc.AssertRule(head, pos, neg, &changed);
            if (changed) asserted.push_back(r);
            break;
          }
          case 3:  // retract an asserted rule: may split its component
            if (!asserted.empty()) {
              size_t i = static_cast<size_t>(
                  rng.UniformInt(0, static_cast<int>(asserted.size()) - 1));
              inc.RetractRule(asserted[i]);
              asserted.erase(asserted.begin() + static_cast<long>(i));
            }
            break;
          case 4: {  // goal-directed point query
            const Term* q = atom(rng.UniformInt(0, npreds - 1));
            IncrementalSolver::QueryAnswer ans = inc.QueryAtom(q);
            WfsModel fresh = inc.SolveFresh();
            std::optional<AtomId> id = inc.program().FindAtom(q);
            TruthValue want = id.has_value() ? fresh.model.Value(*id)
                                             : TruthValue::kFalse;
            ASSERT_EQ(ans.value, want) << context;
            if (id.has_value() && ans.value == TruthValue::kTrue) {
              ASSERT_EQ(ans.true_stage, fresh.true_stage[*id]) << context;
            }
            if (id.has_value() && ans.value == TruthValue::kFalse) {
              ASSERT_EQ(ans.false_stage, fresh.false_stage[*id]) << context;
            }
            break;
          }
          case 5: {  // full model between queries must also stay exact
            WfsModel fresh = inc.SolveFresh();
            ASSERT_EQ(inc.Model().model, fresh.model)
                << context << "\n"
                << DescribeModelDifference(inc.program(), inc.Model().model,
                                           fresh.model);
            break;
          }
        }
      }
      ExpectQueriesMatchFresh(inc, StrCat("final state, seed ", seed,
                                          " threads ", threads));
    }
  }
}

// Short random interleavings of fact and rule deltas with point queries
// over small propositional and game programs, at 1, 2, and 4 threads.
TEST(QueryTest, RandomDeltaAndQuerySequencesAgree) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    for (unsigned threads : {1u, 2u, 4u}) {
      Rng rng(seed);
      std::string src = rng.Chance(1, 2)
                            ? workload::RandomPropositional(rng, 10, 16, 3)
                            : workload::RandomGame(rng, 14, 25);
      Fixture f(src);
      IncrementalSolver inc(MustGround(f.program), Leveled(threads));
      const size_t n = inc.program().atom_count();
      for (int step = 0; step < 12 && n > 0; ++step) {
        if (rng.Chance(1, 3)) {
          ToggleRandomRule(inc, rng);
        } else {
          const Term* t =
              inc.program().AtomTerm(static_cast<AtomId>(rng.Uniform(n)));
          if (rng.Chance(1, 2)) {
            inc.Assert(t);
          } else {
            inc.Retract(t);
          }
        }
        WfsModel fresh = inc.SolveFresh();
        for (int q = 0; q < 3; ++q) {
          const AtomId a = static_cast<AtomId>(rng.Uniform(n));
          IncrementalSolver::QueryAnswer ans = inc.QueryAtom(a);
          const std::string context = StrCat("seed ", seed, " threads ",
                                             threads, " step ", step);
          ASSERT_EQ(ans.value, fresh.model.Value(a)) << context;
          if (ans.value == TruthValue::kTrue) {
            ASSERT_EQ(ans.true_stage, fresh.true_stage[a]) << context;
          } else if (ans.value == TruthValue::kFalse) {
            ASSERT_EQ(ans.false_stage, fresh.false_stage[a]) << context;
          }
        }
      }
    }
  }
}

TEST(QueryTest, TabledEngineSessionQuery) {
  Fixture f(workload::GameChain(48));
  TabledOptions opts;
  Result<TabledEngine> engine = TabledEngine::Create(f.program, opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  TabledEngine& eng = engine.value();

  const Term* last = MustParseTerm(f.store, "win(n48)");
  SessionAnswer rel = eng.session().Query(last);
  EXPECT_EQ(rel.status, GoalStatus::kFailed);
  EXPECT_LE(rel.cone_components, 4u);  // goal-directed, not full
  ASSERT_TRUE(rel.level.has_value());

  // Value and level match the full-solve surfaces, here and after a
  // delta that flips the whole chain.
  EXPECT_EQ(rel.value, eng.ValueOf(last));
  EXPECT_EQ(rel.status, eng.StatusOf(last));
  EXPECT_EQ(*rel.level, *eng.LevelOf(last));
  ASSERT_TRUE(eng.session().Retract(MustParseTerm(f.store, "move(n47, n48)")));
  for (const char* q : {"win(n1)", "win(n24)", "win(n47)", "win(n48)"}) {
    const Term* t = MustParseTerm(f.store, q);
    SessionAnswer a = eng.session().Query(t);
    EXPECT_EQ(a.value, eng.ValueOf(t)) << q;
    if (a.level.has_value()) {
      ASSERT_TRUE(eng.LevelOf(t).has_value()) << q;
      EXPECT_EQ(*a.level, *eng.LevelOf(t)) << q;
    }
  }

  // Outside the relevant instantiation: failed at level 1.
  SessionAnswer none =
      eng.session().Query(MustParseTerm(f.store, "win(nowhere)"));
  EXPECT_EQ(none.status, GoalStatus::kFailed);
  EXPECT_EQ(*none.level, Ordinal::Finite(1));
  EXPECT_GT(eng.solver().stats().queries, 0u);
}

TEST(QueryTest, SessionQueryMatchesGlobalSlsEngine) {
  Fixture f(workload::GameChain(32));
  Result<Session> opened = Session::Open(f.program);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Session& relevant = opened.value();
  GlobalSlsEngine full(f.program);
  for (const char* q : {"win(n1)", "win(n16)", "win(n31)", "win(n32)"}) {
    const Term* t = MustParseTerm(f.store, q);
    EXPECT_EQ(relevant.Query(t).status, full.StatusOf(t)) << q;
  }
  // The session answered from the down-cone query mode, never a full
  // solve.
  EXPECT_GT(relevant.solver().stats().queries, 0u);
  EXPECT_EQ(relevant.solver().stats().full_solves, 0u);

  // Counterexample rules disable the engine's oracle: `StatusOf` answers
  // by the plain search.
  EngineOptions copts;
  copts.selection = SelectionMode::kNegativesFirst;
  Fixture g("a. b :- not a.");
  GlobalSlsEngine fallback(g.program, copts);
  EXPECT_EQ(fallback.StatusOf(MustParseTerm(g.store, "a")),
            GoalStatus::kSuccessful);
  EXPECT_EQ(fallback.session(), nullptr);
}

// The cone pass's cost on the query side: after a batch of fact toggles,
// each query re-solves exactly the owed components (see cone_oracle.h)
// inside its down-cone that no earlier query of the batch settled, and
// the following `Model()` exactly the rest — at every thread count.
class QueryConeCostTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(QueryConeCostTest, ResolvesExactlyTheOwedPartOfTheCone) {
  const unsigned threads = GetParam();
  Rng rng(0x5EED5u);
  int multi_stale_queries = 0;
  for (int trial = 0; trial < 8; ++trial) {
    Fixture f(trial % 2 == 0 ? workload::GameForest(rng, 6, 8, 25)
                             : workload::RandomGame(rng, 14, 18));
    IncrementalSolver inc(MustGround(f.program), Leveled(threads));
    inc.EnableResolveLog();
    inc.Model();
    inc.TakeResolveLog();
    const int natoms = static_cast<int>(inc.program().atom_count());
    for (int batch = 0; batch < 6; ++batch) {
      WfsModel before = inc.SolveFresh();
      std::vector<AtomId> dirty = testing::ToggleRandomFacts(inc, rng);
      WfsModel after = inc.SolveFresh();
      const std::set<uint32_t> owed = testing::OwedComponents(
          inc, dirty, testing::MovedAtoms(before, after));
      std::set<uint32_t> stale;  // owed and not yet re-solved
      for (AtomId a : dirty) stale.insert(inc.graph()->ComponentOf(a));
      std::set<uint32_t> settled;
      for (int q = 0; q < 5; ++q) {
        const AtomId atom = static_cast<AtomId>(rng.UniformInt(0, natoms - 1));
        const std::string context =
            StrCat("threads ", threads, "/", trial, "/", batch, "/", q);
        const std::set<uint32_t> cone = testing::DownCone(inc, atom);
        std::set<uint32_t> expected;
        int stale_members = 0;
        for (uint32_t c : cone) {
          if (owed.count(c) != 0 && settled.count(c) == 0) expected.insert(c);
          if (stale.count(c) != 0 || !inc.memo().Valid(c)) ++stale_members;
        }
        if (stale_members > 1) ++multi_stale_queries;
        IncrementalSolver::QueryAnswer ans = inc.QueryAtom(atom);
        ASSERT_EQ(ans.value, after.model.Value(atom)) << context;
        EXPECT_EQ(testing::ResolvedComponents(inc), expected) << context;
        EXPECT_EQ(ans.resolved_components, expected.size()) << context;
        EXPECT_EQ(ans.memo_hits + ans.resolved_components, ans.cone_components)
            << context;
        if (ans.cone_components != 0) {
          EXPECT_EQ(ans.cone_components, cone.size()) << context;
        }
        settled.insert(expected.begin(), expected.end());
      }
      // `Model()` settles exactly what the queries left.
      std::set<uint32_t> rest;
      for (uint32_t c : owed) {
        if (settled.count(c) == 0) rest.insert(c);
      }
      ASSERT_EQ(inc.Model().model, after.model);
      EXPECT_EQ(testing::ResolvedComponents(inc), rest);
    }
  }
  EXPECT_GT(multi_stale_queries, 20);  // the pool executor ran when threaded
}

INSTANTIATE_TEST_SUITE_P(Threads, QueryConeCostTest,
                         ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace gsls
