// Thread-count invariance of the SCC-stratified solver: the parallel
// work-stealing schedule (solver/parallel.h) must produce the identical
// well-founded model at every `num_threads`, on the paper programs, the
// game/workload families, and hundreds of randomized programs — and the
// incremental up-cone re-solve must stay exact under threaded churn.

#include "solver/parallel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "core/engine.h"
#include "core/tabled.h"
#include "solver/incremental.h"
#include "solver/solver.h"
#include "test_support.h"
#include "util/thread_pool.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

namespace gsls {
namespace {

using testing::Fixture;
using testing::MustGround;

constexpr unsigned kThreadCounts[] = {1, 2, 8};

/// The model must be identical at every thread count and must match the
/// independent alternating-fixpoint reference.
void ExpectThreadInvariant(const GroundProgram& gp, const std::string& src) {
  WfsModel sequential = SolveWfs(gp);
  WfsModel reference = ComputeWfsAlternating(gp);
  ASSERT_EQ(sequential.model, reference.model)
      << "sequential SolveWfs vs alternating fixpoint on:\n"
      << src << "diff:\n"
      << DescribeModelDifference(gp, sequential.model, reference.model);
  for (unsigned threads : kThreadCounts) {
    SolverOptions opts;
    opts.num_threads = threads;
    SolverDiagnostics diag;
    WfsModel parallel = SolveWfs(gp, opts, &diag);
    ASSERT_EQ(parallel.model, sequential.model)
        << "num_threads=" << threads << " vs sequential on:\n"
        << src << "diff:\n"
        << DescribeModelDifference(gp, parallel.model, sequential.model);
  }
}

TEST(ParallelTest, PaperProgramsAreThreadInvariant) {
  for (const char* src :
       {workload::Example32Program(), workload::Example33Program()}) {
    Fixture f(src);
    GroundProgram gp = MustGround(f.program, /*term_depth=*/2);
    ExpectThreadInvariant(gp, src);
  }
  Fixture van_gelder(workload::VanGelderProgram());
  GroundProgram gp = MustGround(van_gelder.program, /*term_depth=*/4);
  ExpectThreadInvariant(gp, "van gelder");
}

TEST(ParallelTest, WorkloadFamiliesAreThreadInvariant) {
  Rng rng(0xF02E57u);
  Rng timed(20260728);  // the families the parallel benchmarks time
  const std::string families[] = {
      workload::GameChain(256),
      workload::GameGrid(12, 12),
      workload::GameCycleWithTail(41, 30),
      workload::RandomGame(rng, 80, 15),
      workload::GameForest(rng, 16, 12, 25),
      workload::ReachabilityWithNegation(rng, 18, 20),
      workload::GameForest(timed, 64, 24, 20),
      workload::GameForest(timed, 256, 12, 30),
      workload::GameGrid(48, 48),
      workload::GameChain(4096),
      workload::RandomGame(timed, 128, 25),
  };
  for (const std::string& src : families) {
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    ExpectThreadInvariant(gp, src);
  }
}

// The per-component work is schedule-independent, so the merged
// per-worker diagnostics must equal the sequential accumulation exactly —
// this is what "no racy increments" buys: the counters stay meaningful.
TEST(ParallelTest, MergedDiagnosticsMatchSequential) {
  Rng rng(0xD1A6u);
  Fixture f(workload::GameForest(rng, 12, 10, 30));
  GroundProgram gp = MustGround(f.program);
  SolverDiagnostics sequential;
  SolveWfs(gp, &sequential);
  for (unsigned threads : {2u, 8u}) {
    SolverOptions opts;
    opts.num_threads = threads;
    SolverDiagnostics merged;
    SolveWfs(gp, opts, &merged);
    EXPECT_EQ(merged.component_count, sequential.component_count);
    EXPECT_EQ(merged.max_component_size, sequential.max_component_size);
    EXPECT_EQ(merged.recursive_components, sequential.recursive_components);
    EXPECT_EQ(merged.negation_components, sequential.negation_components);
    EXPECT_EQ(merged.rules_visited, sequential.rules_visited);
    EXPECT_EQ(merged.unfounded_floods, sequential.unfounded_floods);
    EXPECT_EQ(merged.unfounded_falsified, sequential.unfounded_falsified);
    EXPECT_EQ(merged.alternating_rounds, sequential.alternating_rounds);
  }
}

TEST(ParallelTest, RandomizedProgramsAreThreadInvariant) {
  Rng rng(0xC0DEC0DEu);
  for (int trial = 0; trial < 340; ++trial) {
    int num_preds = rng.UniformInt(4, 28);
    int num_rules = rng.UniformInt(4, 90);
    int max_body = rng.UniformInt(1, 4);
    std::string src =
        workload::RandomPropositional(rng, num_preds, num_rules, max_body);
    Fixture f(src);
    GroundProgram gp = MustGround(f.program);
    WfsModel sequential = SolveWfs(gp);
    for (unsigned threads : {2u, 8u}) {
      SolverOptions opts;
      opts.num_threads = threads;
      WfsModel parallel = SolveWfs(gp, opts);
      ASSERT_EQ(parallel.model, sequential.model)
          << "trial " << trial << " num_threads=" << threads << " on:\n"
          << src << "diff:\n"
          << DescribeModelDifference(gp, parallel.model, sequential.model);
    }
  }
}

/// Toggle-based churn (the incremental_test harness shape): after every
/// delta the threaded incremental model must equal a fresh masked solve
/// AND the model a sequential incremental solver reaches via the same
/// delta stream.
void ExpectChurnAgreement(const std::string& src, unsigned threads,
                          uint64_t seed, int deltas) {
  Fixture f(src);
  IncrementalSolver threaded(MustGround(f.program), SolverOptions{threads});
  IncrementalSolver sequential(MustGround(f.program), SolverOptions{1});
  threaded.Model();
  sequential.Model();

  std::vector<AtomId> facts;
  for (AtomId a = 0; a < threaded.program().atom_count(); ++a) {
    if (threaded.program().FindUnitRule(a).has_value()) facts.push_back(a);
  }
  if (facts.empty()) GTEST_SKIP() << "no fact atoms to toggle";

  Rng rng(seed);
  for (int d = 0; d < deltas; ++d) {
    // Mixed batch sizes: single-fact deltas take the sequential heap
    // even when threaded, multi-fact batches take the parallel cone —
    // both paths must stay exact.
    int batch = rng.UniformInt(1, 5);
    for (int b = 0; b < batch; ++b) {
      AtomId a = facts[rng.Uniform(facts.size())];
      if (threaded.HasFact(a)) {
        threaded.RetractAtom(a);
        sequential.RetractAtom(a);
      } else {
        threaded.AssertAtom(a);
        sequential.AssertAtom(a);
      }
    }
    const WfsModel& got = threaded.Model();
    WfsModel fresh = threaded.SolveFresh();
    ASSERT_EQ(got.model, fresh.model)
        << "threads=" << threads << " delta " << d
        << ": threaded incremental vs fresh diff:\n"
        << DescribeModelDifference(threaded.program(), got.model,
                                   fresh.model);
    ASSERT_EQ(got.model, sequential.Model().model)
        << "threads=" << threads << " delta " << d
        << ": threaded vs sequential incremental diff:\n"
        << DescribeModelDifference(threaded.program(), got.model,
                                   sequential.Model().model);
  }
}

TEST(ParallelTest, IncrementalChurnUnderThreads) {
  Rng rng(0xBEEFu);
  ExpectChurnAgreement(workload::GameChain(96), 2, 11, 40);
  ExpectChurnAgreement(workload::GameChain(96), 8, 12, 40);
  ExpectChurnAgreement(workload::GameGrid(8, 8), 8, 13, 40);
  ExpectChurnAgreement(workload::GameForest(rng, 8, 8, 30), 8, 14, 40);
  ExpectChurnAgreement(workload::GameCycleWithTail(21, 20), 8, 15, 40);
  ExpectChurnAgreement(workload::RandomGame(rng, 40, 15), 8, 16, 40);
  // The benchmark churn families: 120 batched deltas each.
  Rng timed(20260728);
  ExpectChurnAgreement(workload::GameForest(timed, 32, 12, 30), 8, 0xFACADE,
                       120);
  ExpectChurnAgreement(workload::GameGrid(24, 24), 8, 0xFACADE, 120);
}

TEST(ParallelTest, IncrementalRandomizedChurnUnderThreads) {
  Rng rng(0x5EED5u);
  for (int trial = 0; trial < 25; ++trial) {
    std::string src = workload::RandomPropositional(
        rng, rng.UniformInt(6, 20), rng.UniformInt(8, 60), 3);
    ExpectChurnAgreement(src, 8, 0x900D + trial, 12);
  }
}

// Asserting a brand-new atom forces the lazy condensation (and scheduling
// DAG) rebuild on the threaded path too.
TEST(ParallelTest, NewAtomRebuildUnderThreads) {
  Fixture f("p :- not q. q :- not p. r :- e, p.");
  IncrementalSolver inc(MustGround(f.program), SolverOptions{8});
  inc.Model();
  ASSERT_TRUE(inc.Assert(MustParseTerm(f.store, "e")));
  ASSERT_TRUE(inc.Assert(MustParseTerm(f.store, "brand_new")));
  EXPECT_EQ(inc.ValueOf(MustParseTerm(f.store, "brand_new")),
            TruthValue::kTrue);
  WfsModel fresh = inc.SolveFresh();
  EXPECT_EQ(inc.Model().model, fresh.model)
      << DescribeModelDifference(inc.program(), inc.Model().model,
                                 fresh.model);
  EXPECT_GE(inc.stats().graph_rebuilds, 1u);
}

TEST(ParallelTest, EngineOracleAndTabledHonorThreadOption) {
  Rng rng(0xAB1Eu);
  std::string src = workload::GameForest(rng, 6, 8, 30);
  Fixture f(src);

  EngineOptions eopts;
  eopts.solver.num_threads = 8;
  GlobalSlsEngine threaded_engine(f.program, eopts);
  GlobalSlsEngine plain_engine(f.program);
  const Term* goal = MustParseTerm(f.store, "win(b0_n0)");
  EXPECT_EQ(threaded_engine.StatusOf(goal), plain_engine.StatusOf(goal));

  TabledOptions topts;
  topts.solver.compute_levels = false;
  topts.solver.num_threads = 8;
  Result<TabledEngine> threaded_tabled = TabledEngine::Create(f.program, topts);
  ASSERT_TRUE(threaded_tabled.ok());
  TabledOptions seq_topts;
  seq_topts.solver.compute_levels = false;
  Result<TabledEngine> seq_tabled = TabledEngine::Create(f.program, seq_topts);
  ASSERT_TRUE(seq_tabled.ok());
  for (AtomId a = 0; a < threaded_tabled.value().ground().atom_count(); ++a) {
    const Term* atom = threaded_tabled.value().ground().AtomTerm(a);
    EXPECT_EQ(threaded_tabled.value().ValueOf(atom),
              seq_tabled.value().ValueOf(atom));
  }
}

// The pool itself: every released task runs exactly once, including tasks
// released transitively from inside the body, across Run calls.
TEST(ParallelTest, WorkStealingPoolRunsEveryTaskOnce) {
  WorkStealingPool pool(4);
  constexpr uint32_t kChains = 16;
  constexpr uint32_t kDepth = 50;
  std::vector<std::atomic<uint32_t>> hits(kChains * kDepth);
  for (auto& h : hits) h.store(0);
  std::vector<uint32_t> seeds;
  for (uint32_t c = 0; c < kChains; ++c) seeds.push_back(c * kDepth);
  for (int round = 0; round < 3; ++round) {
    pool.Run(seeds, [&](unsigned worker, uint32_t task) {
      hits[task].fetch_add(1);
      if ((task % kDepth) + 1 < kDepth) pool.Push(worker, task + 1);
    });
    for (uint32_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), static_cast<uint32_t>(round + 1))
          << "task " << i << " after round " << round;
    }
  }
}

}  // namespace
}  // namespace gsls
