// The headline validation: global SLS-resolution agrees with the
// well-founded semantics (soundness, Thm. 5.4; completeness, Thm. 6.2;
// ground status correspondence, Thm. 4.7), across randomized program
// families and both engines.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/dependency_graph.h"
#include "core/engine.h"
#include "core/tabled.h"
#include "ground/grounder.h"
#include "solver/solver.h"
#include "test_support.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;

GoalStatus ExpectedStatus(TruthValue v) {
  switch (v) {
    case TruthValue::kTrue: return GoalStatus::kSuccessful;
    case TruthValue::kFalse: return GoalStatus::kFailed;
    case TruthValue::kUndefined: return GoalStatus::kIndeterminate;
  }
  return GoalStatus::kUnknown;
}

/// Checks every registered ground atom of `f.program` against the
/// bottom-up well-founded model (the W_P iteration, which the SCC solver
/// must match), with both the search engine and the tabled engine. When
/// `allow_search_unknown` is set, the (non-effective, Sec. 7) search
/// procedure may report honest budget exhaustion; a *wrong* determination
/// is still an error, and the memoing engine must always be exact. With
/// `bottom_up_oracle` off the search engine cannot answer from the very
/// solver it is checked against.
void CheckAllAtoms(Fixture& f, const std::string& src,
                   bool allow_search_unknown = false,
                   size_t search_budget = 2'000'000,
                   bool bottom_up_oracle = true) {
  Result<GroundProgram> gp = GroundRelevant(f.program, GroundingOptions{});
  ASSERT_TRUE(gp.ok()) << gp.status().ToString() << " in\n" << src;
  WfsModel wfs = ComputeWfs(gp.value());
  ASSERT_EQ(SolveWfs(gp.value()).model, wfs.model) << src;
  EngineOptions opts;
  opts.max_work = search_budget;
  opts.bottom_up_oracle = bottom_up_oracle;
  GlobalSlsEngine search(f.program, opts);
  Result<TabledEngine> tabled = TabledEngine::Create(f.program);
  ASSERT_TRUE(tabled.ok()) << tabled.status().ToString() << " in\n" << src;
  for (AtomId a = 0; a < gp->atom_count(); ++a) {
    const Term* atom = gp->AtomTerm(a);
    GoalStatus expected = ExpectedStatus(wfs.model.Value(a));
    GoalStatus got = search.StatusOf(atom);
    if (!(allow_search_unknown && got == GoalStatus::kUnknown)) {
      EXPECT_EQ(got, expected)
          << "search engine disagrees on " << f.store.ToString(atom)
          << " in\n" << src;
    }
    EXPECT_EQ(tabled->StatusOf(atom), expected)
        << "tabled engine disagrees on " << f.store.ToString(atom)
        << " in\n" << src;
  }
}

TEST(AgreementTest, RandomPropositionalPrograms) {
  Rng rng(0xFEEDu);
  for (int trial = 0; trial < 150; ++trial) {
    std::string src = workload::RandomPropositional(
        rng, /*num_preds=*/6, /*num_rules=*/10, /*max_body=*/3);
    Fixture f(src);
    CheckAllAtoms(f, src);
  }
}

TEST(AgreementTest, DenserPropositionalPrograms) {
  Rng rng(0xBEEFu);
  for (int trial = 0; trial < 60; ++trial) {
    std::string src = workload::RandomPropositional(rng, 8, 20, 4);
    Fixture f(src);
    // Dense tangled SCCs are the worst case for the ideal (non-effective)
    // search procedure: honest kUnknown is acceptable there, wrong answers
    // are not, and the memoing engine must stay exact.
    CheckAllAtoms(f, src, /*allow_search_unknown=*/true,
                  /*search_budget=*/50'000);
  }
}

TEST(AgreementTest, RandomGameGraphs) {
  Rng rng(0xABCDu);
  for (int trial = 0; trial < 40; ++trial) {
    std::string src = workload::RandomGame(rng, /*n=*/6, /*edge_pct=*/25);
    Fixture f(src);
    CheckAllAtoms(f, src);
  }
}

TEST(AgreementTest, SparseAndDenseGameGraphs) {
  Rng rng(0x1111u);
  for (int edge_pct : {10, 50, 80}) {
    for (int trial = 0; trial < 10; ++trial) {
      std::string src = workload::RandomGame(rng, 5, edge_pct);
      Fixture f(src);
      CheckAllAtoms(f, src);
    }
  }
}

// Thm. 4.7 with the search engine searching: three random families, the
// oracle off, so every determined status comes from the tree itself.
TEST(AgreementTest, EnginesAgreeWithoutBottomUpOracle) {
  Rng rng(20260610);
  struct Family {
    int trials;
    std::string (*make)(Rng&);
  } families[] = {
      {40, [](Rng& r) { return workload::RandomGame(r, 6, 25); }},
      {25, [](Rng& r) { return workload::RandomGame(r, 8, 40); }},
      {60, [](Rng& r) { return workload::RandomPropositional(r, 6, 10, 3); }},
  };
  for (const Family& family : families) {
    for (int trial = 0; trial < family.trials; ++trial) {
      std::string src = family.make(rng);
      Fixture f(src);
      CheckAllAtoms(f, src, /*allow_search_unknown=*/true,
                    /*search_budget=*/300'000, /*bottom_up_oracle=*/false);
    }
  }
}

TEST(AgreementTest, SearchAnswersAreSound) {
  // Thm. 5.4: every answer's ground instances are well-founded true.
  Rng rng(0x5EEDu);
  for (int trial = 0; trial < 25; ++trial) {
    std::string src = workload::RandomGame(rng, 5, 30);
    Fixture f(src);
    GlobalSlsEngine engine(f.program);
    Result<TabledEngine> oracle = TabledEngine::Create(f.program);
    ASSERT_TRUE(oracle.ok());
    Goal query = MustParseQuery(f.store, "win(X)");
    QueryResult r = engine.Solve(query);
    for (const Answer& ans : r.answers) {
      const Term* grounded = ans.theta.Apply(f.store, query[0].atom);
      ASSERT_TRUE(grounded->ground()) << src;
      EXPECT_EQ(oracle->ValueOf(grounded), TruthValue::kTrue)
          << "unsound answer " << f.store.ToString(grounded) << " in\n"
          << src;
    }
  }
}

TEST(AgreementTest, SearchAnswersAreComplete) {
  // Thm. 6.2: every well-founded-true ground instance of a nonfloundering
  // query is covered by some computed answer.
  Rng rng(0xC0DEu);
  for (int trial = 0; trial < 25; ++trial) {
    std::string src = workload::RandomGame(rng, 5, 30);
    Fixture f(src);
    GlobalSlsEngine engine(f.program);
    Result<TabledEngine> oracle = TabledEngine::Create(f.program);
    ASSERT_TRUE(oracle.ok());
    Goal query = MustParseQuery(f.store, "win(X)");
    QueryResult r = engine.Solve(query);
    if (r.floundered_somewhere) continue;
    std::unordered_set<const Term*> produced;
    for (const Answer& ans : r.answers) {
      produced.insert(ans.theta.Apply(f.store, query[0].atom));
    }
    const GroundProgram& gp = oracle->ground();
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      const Term* atom = gp.AtomTerm(a);
      FunctorId win = f.store.symbols().FindFunctor("win", 1);
      if (atom->functor() != win) continue;
      if (oracle->ValueOf(atom) != TruthValue::kTrue) continue;
      EXPECT_TRUE(produced.count(atom) > 0)
          << "missing answer " << f.store.ToString(atom) << " in\n" << src;
    }
  }
}

TEST(AgreementTest, TabledAnswersMatchSearchAnswers) {
  Rng rng(0xD00Du);
  for (int trial = 0; trial < 25; ++trial) {
    std::string src = workload::RandomGame(rng, 5, 35);
    Fixture f(src);
    GlobalSlsEngine search(f.program);
    Result<TabledEngine> tabled = TabledEngine::Create(f.program);
    ASSERT_TRUE(tabled.ok());
    Goal q1 = MustParseQuery(f.store, "win(X)");
    QueryResult rs = search.Solve(q1);
    Goal q2 = MustParseQuery(f.store, "win(X)");
    QueryResult rt = tabled->Solve(q2);
    auto ground_set = [&](const QueryResult& r, const Goal& q) {
      std::set<std::string> out;
      for (const Answer& a : r.answers) {
        out.insert(f.store.ToString(a.theta.Apply(f.store, q[0].atom)));
      }
      return out;
    };
    EXPECT_EQ(ground_set(rs, q1), ground_set(rt, q2)) << src;
  }
}

TEST(AgreementTest, LevelsMatchStagesOnDeterminedAtoms) {
  // Corollary 4.6: the level of a determined ground goal equals the stage
  // of the corresponding literal in the V_P iteration.
  Rng rng(0xFACEu);
  std::vector<std::string> sources;
  for (int trial = 0; trial < 40; ++trial) {
    sources.push_back(workload::RandomGame(rng, 5, 30));
  }
  for (int k : {4, 8, 16, 24}) sources.push_back(workload::GameChain(k));
  Rng more(0xCAFE);
  for (int trial = 0; trial < 30; ++trial) {
    sources.push_back(workload::RandomGame(more, 5, 30));
  }
  size_t exact_levels = 0;
  for (const std::string& src : sources) {
    Fixture f(src);
    GroundProgram gp = testing::MustGround(f.program);
    WfsStages stages = ComputeWfsStages(gp);
    GlobalSlsEngine engine(f.program);
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      const Term* atom = gp.AtomTerm(a);
      QueryResult r = engine.SolveAtom(atom);
      if (r.status == GoalStatus::kSuccessful && r.level_exact) {
        ++exact_levels;
        EXPECT_EQ(r.answers[0].level,
                  Ordinal::Finite(stages.true_stage[a]))
            << "success level != stage for " << f.store.ToString(atom)
            << " in\n" << src;
      } else if (r.status == GoalStatus::kFailed && r.level_exact) {
        ++exact_levels;
        EXPECT_EQ(r.level, Ordinal::Finite(stages.false_stage[a]))
            << "failure level != stage for " << f.store.ToString(atom)
            << " in\n" << src;
      }
    }
  }
  EXPECT_GT(exact_levels, 0u);
}

TEST(AgreementTest, StratifiedProgramsAreTotalAndDetermined) {
  Rng rng(0xAAAAu);
  int seen = 0;
  for (int trial = 0; trial < 400 && seen < 20; ++trial) {
    std::string src = workload::RandomPropositional(rng, 6, 8, 2);
    Fixture f(src);
    if (!Stratify(f.program).stratified) continue;
    ++seen;
    GroundProgram gp = testing::MustGround(f.program);
    GlobalSlsEngine engine(f.program);
    for (AtomId a = 0; a < gp.atom_count(); ++a) {
      GoalStatus s = engine.StatusOf(gp.AtomTerm(a));
      EXPECT_TRUE(s == GoalStatus::kSuccessful || s == GoalStatus::kFailed)
          << src;
    }
  }
  EXPECT_GE(seen, 10);
}

}  // namespace
}  // namespace gsls
