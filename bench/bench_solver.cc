// The solver-layer benchmark rows. CI writes them into eleven BENCH_*.json
// files with one `--benchmark_filter` each, and bench_compare.py compares
// every row by name against the previous main run:
//
//   BENCH_solver.json      ^BM_(SccSolver|Condense)_
//   BENCH_incremental.json ^BM_(Incremental|Fresh)Delta_
//   BENCH_parallel.json    ^BM_(ParallelSolve_|SequentialDenseRandom)
//   BENCH_levels.json      ^BM_(SolveWfs_|VpStageIteration_)
//   BENCH_rules.json       ^BM_(Fresh)?RuleDelta
//   BENCH_telemetry.json   ^BM_DeltaChurn_
//   BENCH_query.json       ^BM_(Query|FullResolve_)
//   BENCH_cancel.json      ^BM_FreshSolve
//   BENCH_dense.json       ^BM_DenseScc_
//   BENCH_serving.json     ^BM_Serving
//   BENCH_front.json       ^BM_(ParseProgram|GroundRelevant)_
//
// The global fixpoints (W_P, V_P, alternating) run the same families as
// the SCC solver rows for comparison; no JSON file holds them. The
// BM_Condense_ rows time the analysis layer alone: a fresh
// `AtomDependencyGraph` (one `ForEachScc` pass) over the ground program.
// The front-half rows time a cold open's first two layers on a fresh
// store: `ParseProgram` (bytes/s is its MB/s) and `GroundRelevant` of the
// parsed program (items/s counts emitted rules).

#include <chrono>
#include <string>
#include <vector>

#include "analysis/atom_dependency_graph.h"
#include "bench_support.h"
#include "obs/metrics.h"
#include "util/cancel.h"
#include "wfs/wfs.h"

using namespace gsls;
using namespace gsls::bench;

namespace {

// --- SCC solver vs the global fixpoints, and the condensation alone ----

enum class Fixpoint { kScc, kWp, kVpStages, kAlternating, kCondense };

void RunSolver(benchmark::State& state, Fixpoint which,
               const std::string& src) {
  TermStore store;
  GroundProgram gp = GroundOf(src, store);
  for (auto _ : state) {
    switch (which) {
      case Fixpoint::kScc:
        benchmark::DoNotOptimize(SolveWfs(gp).iterations);
        break;
      case Fixpoint::kWp:
        benchmark::DoNotOptimize(ComputeWfs(gp).iterations);
        break;
      case Fixpoint::kVpStages:
        benchmark::DoNotOptimize(ComputeWfsStages(gp).iterations);
        break;
      case Fixpoint::kAlternating:
        benchmark::DoNotOptimize(ComputeWfsAlternating(gp).iterations);
        break;
      case Fixpoint::kCondense:
        benchmark::DoNotOptimize(AtomDependencyGraph(gp).component_count());
        break;
    }
  }
  SolverDiagnostics diag;
  SolveWfs(gp, &diag);
  state.counters["atoms"] = static_cast<double>(gp.atom_count());
  state.counters["sccs"] = static_cast<double>(diag.component_count);
  state.counters["atoms/s"] = benchmark::Counter(
      static_cast<double>(gp.atom_count()) * state.iterations(),
      benchmark::Counter::kIsRate);
}

std::string Chain(const benchmark::State& state) {
  return workload::GameChain(static_cast<int>(state.range(0)));
}
std::string Grid(const benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  return workload::GameGrid(n, n);
}
std::string CycleTail(const benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  return workload::GameCycleWithTail(n | 1, n);
}
std::string RandomGame(const benchmark::State& state) {
  Rng rng(5);
  return workload::RandomGame(rng, static_cast<int>(state.range(0)), 10);
}
std::string Propositional(const benchmark::State& state) {
  Rng rng(11);
  const int n = static_cast<int>(state.range(0));
  return workload::RandomPropositional(rng, n, 4 * n, 3);
}

/// The SCC solver and the global fixpoints on the same families, one
/// registered row per entry (`main` registers them).
struct SolverRow {
  const char* name;
  Fixpoint which;
  std::string (*family)(const benchmark::State&);
  std::vector<int64_t> args;
};

const SolverRow kSolverRows[] = {
    {"BM_SccSolver_Chain", Fixpoint::kScc, Chain, {256, 1024, 4096}},
    {"BM_WpIteration_Chain", Fixpoint::kWp, Chain, {256, 1024, 4096}},
    {"BM_VpStages_Chain", Fixpoint::kVpStages, Chain, {64, 256, 1024}},
    {"BM_Alternating_Chain", Fixpoint::kAlternating, Chain, {256, 1024, 4096}},
    {"BM_SccSolver_Grid", Fixpoint::kScc, Grid, {8, 16, 24}},
    {"BM_WpIteration_Grid", Fixpoint::kWp, Grid, {8, 16, 24}},
    {"BM_Alternating_Grid", Fixpoint::kAlternating, Grid, {8, 16, 24}},
    {"BM_SccSolver_CycleTail", Fixpoint::kScc, CycleTail, {17, 65, 257}},
    {"BM_Alternating_CycleTail", Fixpoint::kAlternating, CycleTail,
     {17, 65, 257}},
    {"BM_SccSolver_RandomGame", Fixpoint::kScc, RandomGame, {16, 32, 64}},
    {"BM_WpIteration_RandomGame", Fixpoint::kWp, RandomGame, {16, 32, 64}},
    {"BM_Alternating_RandomGame", Fixpoint::kAlternating, RandomGame,
     {16, 32, 64}},
    {"BM_SccSolver_Propositional", Fixpoint::kScc, Propositional,
     {64, 256, 1024}},
    {"BM_Alternating_Propositional", Fixpoint::kAlternating, Propositional,
     {64, 256, 1024}},
    {"BM_Condense_Chain", Fixpoint::kCondense, Chain, {1024, 4096}},
    {"BM_Condense_RandomGame", Fixpoint::kCondense, RandomGame, {64, 128}},
};

// --- the front half: text -> Program -> relevant grounding -------------

std::string ReachNeg(const benchmark::State& state) {
  Rng rng(13);
  return workload::ReachabilityWithNegation(
      rng, static_cast<int>(state.range(0)), 10);
}

void RunParse(benchmark::State& state,
              std::string (*family)(const benchmark::State&)) {
  const std::string src = family(state);
  for (auto _ : state) {
    TermStore store;
    benchmark::DoNotOptimize(ParseProgram(store, src).ok());
  }
  state.SetBytesProcessed(static_cast<int64_t>(src.size()) *
                          state.iterations());
}

void RunGround(benchmark::State& state,
               std::string (*family)(const benchmark::State&)) {
  const std::string src = family(state);
  GroundingOptions gopts;
  gopts.max_rules = 5'000'000;
  size_t rules = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TermStore store;
    Program program = MustParseProgram(store, src);
    state.ResumeTiming();
    rules = GroundRelevant(program, gopts)->rule_count();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rules"] = static_cast<double>(rules);
  state.SetItemsProcessed(static_cast<int64_t>(rules) * state.iterations());
}

void BM_ParseProgram_Chain(benchmark::State& state) { RunParse(state, Chain); }
BENCHMARK(BM_ParseProgram_Chain)->Arg(1024)->Arg(8192);

void BM_ParseProgram_ReachNeg(benchmark::State& state) {
  RunParse(state, ReachNeg);
}
BENCHMARK(BM_ParseProgram_ReachNeg)->Arg(32)->Arg(128);

void BM_GroundRelevant_Chain(benchmark::State& state) {
  RunGround(state, Chain);
}
BENCHMARK(BM_GroundRelevant_Chain)->Arg(1024)->Arg(8192);

void BM_GroundRelevant_ReachNeg(benchmark::State& state) {
  RunGround(state, ReachNeg);
}
BENCHMARK(BM_GroundRelevant_ReachNeg)->Arg(16)->Arg(32);

// --- incremental fact deltas ------------------------------------------

/// Toggles random fact atoms of `src` and reads the model after each:
/// the incremental re-solve, or (`fresh`) a from-scratch masked solve.
void RunFactChurn(benchmark::State& state, const std::string& src,
                  uint64_t seed, bool fresh, SolverOptions opts = {}) {
  TermStore store;
  IncrementalSolver inc(GroundOf(src, store), opts);
  if (!fresh) inc.Model();
  std::vector<AtomId> facts = FactAtoms(inc.program());
  Rng rng(seed);
  for (auto _ : state) {
    ToggleFact(inc, facts[rng.Uniform(facts.size())]);
    benchmark::DoNotOptimize(fresh ? inc.SolveFresh().model.atom_count()
                                   : inc.Model().model.atom_count());
  }
  state.counters["atoms"] = static_cast<double>(inc.program().atom_count());
}

void BM_IncrementalDelta_Chain(benchmark::State& state) {
  RunFactChurn(state, Chain(state), 17, false);
}
BENCHMARK(BM_IncrementalDelta_Chain)->Arg(256)->Arg(1024)->Arg(2048);

void BM_FreshDelta_Chain(benchmark::State& state) {
  RunFactChurn(state, Chain(state), 17, true);
}
BENCHMARK(BM_FreshDelta_Chain)->Arg(256)->Arg(1024)->Arg(2048);

void BM_IncrementalDelta_Grid(benchmark::State& state) {
  RunFactChurn(state, Grid(state), 23, false);
}
BENCHMARK(BM_IncrementalDelta_Grid)->Arg(8)->Arg(16)->Arg(24);

void BM_IncrementalDelta_RandomGame(benchmark::State& state) {
  RunFactChurn(state, RandomGame(state), 29, false);
}
BENCHMARK(BM_IncrementalDelta_RandomGame)->Arg(16)->Arg(32)->Arg(64);

// --- parallel schedule ------------------------------------------------

void RunSolve(benchmark::State& state, const std::string& src,
              unsigned threads) {
  TermStore store;
  GroundProgram gp = GroundOf(src, store);
  SolverOptions opts;
  opts.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveWfs(gp, opts).model.atom_count());
  }
  state.counters["atoms"] = static_cast<double>(gp.atom_count());
}

void BM_ParallelSolve_Forest(benchmark::State& state) {
  Rng rng(41);
  RunSolve(state, workload::GameForest(rng, 64, 24, 20),
           static_cast<unsigned>(state.range(0)));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelSolve_Forest)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ParallelSolve_Grid(benchmark::State& state) {
  RunSolve(state, workload::GameGrid(48, 48),
           static_cast<unsigned>(state.range(0)));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ParallelSolve_Grid)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The CSR-layout sequential hot path on the dense random game, where one
// big recursive SCC dominates.
void BM_SequentialDenseRandom(benchmark::State& state) {
  Rng rng(43);
  RunSolve(state,
           workload::RandomGame(rng, static_cast<int>(state.range(0)), 25), 1);
}
BENCHMARK(BM_SequentialDenseRandom)->Arg(64)->Arg(128)->Arg(256);

// --- stage levels -----------------------------------------------------

void RunLeveled(benchmark::State& state, const std::string& src,
                bool levels) {
  TermStore store;
  GroundProgram gp = GroundOf(src, store);
  const SolverOptions opts = levels ? Leveled() : SolverOptions{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveWfs(gp, opts).model.atom_count());
  }
  state.counters["atoms"] = static_cast<double>(gp.atom_count());
}

void BM_SolveWfs_NoLevels_Chain(benchmark::State& state) {
  RunLeveled(state, Chain(state), false);
}
BENCHMARK(BM_SolveWfs_NoLevels_Chain)->Arg(256)->Arg(1024)->Arg(4096);

void BM_SolveWfs_Levels_Chain(benchmark::State& state) {
  RunLeveled(state, Chain(state), true);
}
BENCHMARK(BM_SolveWfs_Levels_Chain)->Arg(256)->Arg(1024)->Arg(4096);

void BM_VpStageIteration_Chain(benchmark::State& state) {
  TermStore store;
  GroundProgram gp = GroundOf(Chain(state), store);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeWfsStages(gp).iterations);
  }
  state.counters["atoms"] = static_cast<double>(gp.atom_count());
}
BENCHMARK(BM_VpStageIteration_Chain)->Arg(256)->Arg(1024);

void BM_SolveWfs_Levels_RandomGame(benchmark::State& state) {
  RunLeveled(state, RandomGame(state), true);
}
BENCHMARK(BM_SolveWfs_Levels_RandomGame)->Arg(32)->Arg(64)->Arg(128);

void BM_SolveWfs_NoLevels_RandomGame(benchmark::State& state) {
  RunLeveled(state, RandomGame(state), false);
}
BENCHMARK(BM_SolveWfs_NoLevels_RandomGame)->Arg(32)->Arg(64)->Arg(128);

// --- rule deltas ------------------------------------------------------

/// Toggles random non-unit rules of `src` (leveled) and reads the model
/// after each: incremental, or (`fresh`) a from-scratch masked solve.
void RunRuleChurn(benchmark::State& state, const std::string& src,
                  uint64_t seed, bool fresh) {
  TermStore store;
  IncrementalSolver inc(GroundOf(src, store), Leveled());
  if (!fresh) inc.Model();
  std::vector<RuleId> rules = RulesOf(inc.program(), /*unit=*/false);
  Rng rng(seed);
  for (auto _ : state) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    benchmark::DoNotOptimize(fresh ? inc.SolveFresh().model.atom_count()
                                   : inc.Model().model.atom_count());
  }
  state.counters["atoms"] = static_cast<double>(inc.program().atom_count());
  if (const DynamicCondensation::Stats* cs = inc.condensation_stats()) {
    state.counters["windows"] = static_cast<double>(cs->windows);
  }
}

void BM_RuleDelta_Chain(benchmark::State& state) {
  RunRuleChurn(state, Chain(state), 17, false);
}
BENCHMARK(BM_RuleDelta_Chain)->Arg(256)->Arg(1024)->Arg(2048);

void BM_FreshRuleDelta_Chain(benchmark::State& state) {
  RunRuleChurn(state, Chain(state), 17, true);
}
BENCHMARK(BM_FreshRuleDelta_Chain)->Arg(256)->Arg(1024)->Arg(2048);

// The structural worst case: toggling cycle rules merges and splits the
// cycle component itself, so every delta pays a recondensation window.
void BM_RuleDelta_CycleMergeSplit(benchmark::State& state) {
  RunRuleChurn(state,
               workload::GameCycleWithTail(static_cast<int>(state.range(0)),
                                           16),
               23, false);
}
BENCHMARK(BM_RuleDelta_CycleMergeSplit)->Arg(33)->Arg(101)->Arg(301);

void BM_RuleDelta_RandomGame(benchmark::State& state) {
  RunRuleChurn(state, RandomGame(state), 29, false);
}
BENCHMARK(BM_RuleDelta_RandomGame)->Arg(16)->Arg(32)->Arg(64);

void BM_RuleDeltaScaling(benchmark::State& state) {
  ScalingProbe probe(static_cast<int>(state.range(0)),
                     static_cast<unsigned>(state.range(1)));
  for (auto _ : state) probe.Pair();
}
BENCHMARK(BM_RuleDeltaScaling)
    ->ArgNames({"K", "threads"})
    ->Args({1000, 1})
    ->Args({1000, 2})
    ->Args({16000, 1})
    ->Args({16000, 2});

// --- telemetry --------------------------------------------------------

void BM_DeltaChurn_Bare(benchmark::State& state) {
  RunFactChurn(state, workload::GameGrid(16, 16), 31, false);
}
BENCHMARK(BM_DeltaChurn_Bare);

void BM_DeltaChurn_Registry(benchmark::State& state) {
  obs::Telemetry telemetry;
  SolverOptions sopts;
  sopts.telemetry = &telemetry;
  RunFactChurn(state, workload::GameGrid(16, 16), 31, false, sopts);
}
BENCHMARK(BM_DeltaChurn_Registry);

// --- goal-directed queries --------------------------------------------

/// A leveled chain(N) solver and its point-query atom, 32 nodes from the
/// end: a recursive cone of ~65 atoms.
struct ChainQuery {
  explicit ChainQuery(const benchmark::State& state)
      : n(static_cast<int>(state.range(0))),
        inc(GroundOf(workload::GameChain(n), store), Leveled()) {
    inc.Model();
    q = *inc.program().FindAtom(
        MustParseTerm(store, StrCat("win(n", n - 32, ")")));
  }
  TermStore store;
  int n;
  IncrementalSolver inc;
  AtomId q = 0;
};

void BM_QueryCold_Chain(benchmark::State& state) {
  ChainQuery cq(state);
  for (auto _ : state) {
    cq.inc.InvalidateMemo();
    benchmark::DoNotOptimize(cq.inc.QueryAtom(cq.q).value);
  }
  state.counters["atoms"] = static_cast<double>(cq.inc.program().atom_count());
}
BENCHMARK(BM_QueryCold_Chain)->Arg(256)->Arg(1024)->Arg(2048);

void BM_QueryMemoHit_Chain(benchmark::State& state) {
  ChainQuery cq(state);
  cq.inc.InvalidateMemo();
  benchmark::DoNotOptimize(cq.inc.QueryAtom(cq.q).value);  // warm the cone
  for (auto _ : state) {
    benchmark::DoNotOptimize(cq.inc.QueryAtom(cq.q).memo_hits);
  }
}
BENCHMARK(BM_QueryMemoHit_Chain)->Arg(256)->Arg(1024)->Arg(2048);

void BM_FullResolve_Chain(benchmark::State& state) {
  ChainQuery cq(state);
  for (auto _ : state) {
    cq.inc.InvalidateMemo();
    benchmark::DoNotOptimize(cq.inc.Model().model.atom_count());
  }
  state.counters["atoms"] = static_cast<double>(cq.inc.program().atom_count());
}
BENCHMARK(BM_FullResolve_Chain)->Arg(256)->Arg(1024)->Arg(2048);

// Delta + query composition: toggle the last move fact, then re-query the
// end of the chain; the dirty set intersected with the down-cone is a
// couple of components, so the re-query stays O(changed cone).
void BM_QueryAfterFactDelta_Chain(benchmark::State& state) {
  ChainQuery cq(state);
  const Term* last_move =
      MustParseTerm(cq.store, StrCat("move(n", cq.n - 1, ", n", cq.n, ")"));
  bool present = true;
  for (auto _ : state) {
    if (present) {
      cq.inc.Retract(last_move);
    } else {
      cq.inc.Assert(last_move);
    }
    present = !present;
    benchmark::DoNotOptimize(cq.inc.QueryAtom(cq.q).value);
  }
}
BENCHMARK(BM_QueryAfterFactDelta_Chain)->Arg(256)->Arg(1024)->Arg(2048);

void BM_QueryCold_Forest(benchmark::State& state) {
  Rng gen(11);
  TermStore store;
  IncrementalSolver inc(
      GroundOf(workload::GameForest(gen, static_cast<int>(state.range(0)),
                                    24, 30),
               store),
      Leveled());
  inc.Model();
  Rng rng(13);
  AtomId q = PickSmallConeAtom(inc, rng);
  for (auto _ : state) {
    inc.InvalidateMemo();
    benchmark::DoNotOptimize(inc.QueryAtom(q).value);
  }
  state.counters["atoms"] = static_cast<double>(inc.program().atom_count());
}
BENCHMARK(BM_QueryCold_Forest)->Arg(4)->Arg(16);

// --- cancellation checkpoints: inactive vs armed ----------------------

void BM_FreshSolveNoToken(benchmark::State& state) {
  TermStore store;
  GroundProgram gp = DeepChainProgram(store);
  SolverOptions opts;
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveWfs(gp, opts).model.atom_count());
  }
}
BENCHMARK(BM_FreshSolveNoToken)->Unit(benchmark::kMillisecond);

void BM_FreshSolveArmedToken(benchmark::State& state) {
  TermStore store;
  GroundProgram gp = DeepChainProgram(store);
  CancelToken token;
  SolverOptions opts;
  opts.cancel = &token;
  opts.deadline_ns = DeadlineAfterNs(3'600'000'000'000ull);  // far future
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveWfs(gp, opts).model.atom_count());
  }
}
BENCHMARK(BM_FreshSolveArmedToken)->Unit(benchmark::kMillisecond);

// --- dense SCC warm interior ------------------------------------------

/// Move-fact (unit rule) toggles inside the dense game's giant SCC.
void RunDenseChurn(benchmark::State& state, SolverOptions opts) {
  IncrementalSolver inc(DenseProgram(), opts);
  inc.Model();
  std::vector<RuleId> units = RulesOf(inc.program(), /*unit=*/true);
  Rng rng(17);
  for (auto _ : state) {
    ToggleRule(inc, units[rng.Uniform(units.size())]);
    benchmark::DoNotOptimize(inc.Model().model.atom_count());
  }
  state.counters["atoms"] = static_cast<double>(inc.program().atom_count());
  state.counters["warm_hits"] =
      static_cast<double>(inc.diagnostics().warm_hits);
}

void BM_DenseScc_WarmDelta(benchmark::State& state) {
  RunDenseChurn(state, Leveled(static_cast<unsigned>(state.range(0))));
}
BENCHMARK(BM_DenseScc_WarmDelta)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// Ablation: warm starting disabled, the cold per-component path.
void BM_DenseScc_ColdDelta(benchmark::State& state) {
  SolverOptions opts = Leveled(1);
  opts.warm_min_atoms = 0;
  RunDenseChurn(state, opts);
}
BENCHMARK(BM_DenseScc_ColdDelta)->Unit(benchmark::kMicrosecond);

// --- serving ----------------------------------------------------------
// Threaded wall-clock rows declare `noise_tolerance`, which
// bench_compare.py uses in place of the global tolerance.

/// One snapshot point read against a quiescent server: the pin/unpin
/// protocol plus two tape loads.
void BM_ServingPointRead(benchmark::State& state) {
  TermStore store;
  std::vector<const Term*> probes = ChainProbes(store);
  serve::ServingSolver server(ChainSolver(store, 1));
  serve::EpochStore::ReaderHandle h = server.RegisterReader();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        server.Read(h, probes[rng.Uniform(probes.size())]).value);
  }
  state.counters["noise_tolerance"] = 0.25;
}
BENCHMARK(BM_ServingPointRead);

/// Delta-to-visibility latency: one toggle submitted and flushed through
/// the writer (apply + cone re-solve + snapshot publish).
void BM_ServingAssertFlush(benchmark::State& state) {
  TermStore store;
  serve::ServingSolver server(ChainSolver(store, 1));
  const Term* edge = MustParseTerm(
      store, StrCat("move(n", kServeNodes / 2, ", n", kServeNodes / 2 + 1,
                    ")"));
  bool present = true;
  for (auto _ : state) {
    if (present) {
      server.Retract(edge);
    } else {
      server.Assert(edge);
    }
    present = !present;
    server.Flush();
  }
  state.counters["noise_tolerance"] = 0.40;
}
BENCHMARK(BM_ServingAssertFlush);

/// Mixed fleet throughput at N readers: one timed wall-clock window per
/// iteration, reads/sec as the reported counter.
void BM_ServingMixedFleet(benchmark::State& state) {
  double reads_per_sec = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    reads_per_sec = ServingReadsPerSec(static_cast<int>(state.range(0)), 60);
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  state.counters["reads_per_sec"] = reads_per_sec;
  state.counters["noise_tolerance"] = 0.45;
}
BENCHMARK(BM_ServingMixedFleet)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  for (const SolverRow& row : kSolverRows) {
    benchmark::internal::Benchmark* b = benchmark::RegisterBenchmark(
        row.name, [&row](benchmark::State& state) {
          RunSolver(state, row.which, row.family(state));
        });
    for (int64_t arg : row.args) b->Arg(arg);
  }
  return RunBenchmarks(argc, argv);
}
