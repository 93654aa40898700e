// Benchmark rows for the paper's procedures: SLP-trees (Figures 1-3), the
// global tree (Figure 4), the computation-rule and negation-rule examples
// (Examples 3.2 and 3.3), the augmented universal query (Example 6.1),
// the Sec. 7 effectiveness comparison, the two top-down engines of
// Thm. 4.7, and the term substrate underneath them. The paper's claims
// about these procedures are pinned by tests (tree_test, engine_test,
// paper_examples_test, agreement_test); these rows only time them.

#include <string>
#include <vector>

#include "bench_support.h"
#include "core/engine.h"
#include "core/global_tree.h"
#include "core/slp_tree.h"
#include "core/tabled.h"
#include "lang/transforms.h"
#include "sldnf/sldnf.h"
#include "term/substitution.h"

using namespace gsls;
using namespace gsls::bench;

namespace {

// --- Figures 1-4: SLP-trees and the global tree for the Van Gelder
// program, at integer s^n(0) given by the row argument.

Goal VanGelderGoal(TermStore& store, const char* pred, int64_t n) {
  return MustParseQuery(
      store, StrCat(pred, "(", workload::IntTerm(static_cast<int>(n)), ")"));
}

void BuildSlpTree(benchmark::State& state, const char* pred,
                  SlpTreeOptions opts = {}) {
  TermStore store;
  Program program = MustParseProgram(store, workload::VanGelderProgram());
  Goal goal = VanGelderGoal(store, pred, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlpTree::Build(program, goal, opts).node_count());
  }
}

void BM_BuildSlpTreeW(benchmark::State& state) { BuildSlpTree(state, "w"); }
BENCHMARK(BM_BuildSlpTreeW)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_BuildSlpTreeU(benchmark::State& state) { BuildSlpTree(state, "u"); }
BENCHMARK(BM_BuildSlpTreeU)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// T_{u(0)} is infinite (Figure 3); the row argument is the depth budget.
void BM_BuildSlpTreeU0Truncated(benchmark::State& state) {
  TermStore store;
  Program program = MustParseProgram(store, workload::VanGelderProgram());
  Goal goal = MustParseQuery(store, "u(0)");
  SlpTreeOptions opts;
  opts.max_depth = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlpTree::Build(program, goal, opts).node_count());
  }
}
BENCHMARK(BM_BuildSlpTreeU0Truncated)->Arg(8)->Arg(32)->Arg(128);

void BM_GlobalTreeWn(benchmark::State& state) {
  TermStore store;
  Program program = MustParseProgram(store, workload::VanGelderProgram());
  Goal goal = VanGelderGoal(store, "w", state.range(0));
  GlobalTreeOptions opts;
  opts.max_negation_depth = 2 * static_cast<size_t>(state.range(0)) + 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        GlobalTree::Build(program, goal, opts).node_count());
  }
  state.counters["nodes"] = static_cast<double>(
      GlobalTree::Build(program, goal, opts).node_count());
}
BENCHMARK(BM_GlobalTreeWn)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(12);

// --- Examples 3.2, 3.3 and 6.1: parse + engine + query, per iteration.

/// Parses `src`, optionally augments it (Sec. 6), and solves `query` with
/// `opts` on every iteration.
void SolveEachTime(benchmark::State& state, const std::string& src,
                   const char* query, EngineOptions opts = {},
                   bool augment = false) {
  for (auto _ : state) {
    TermStore store;
    Program program = MustParseProgram(store, src);
    if (augment) program = AugmentProgram(program);
    GlobalSlsEngine engine(program, opts);
    benchmark::DoNotOptimize(
        engine.Solve(MustParseQuery(store, query)).answers.size());
  }
}

// Argument 1: the preferential (positivistic) rule; 0: negatives first.
void BM_Example32(benchmark::State& state) {
  EngineOptions opts;
  opts.selection = state.range(0) == 1 ? SelectionMode::kPositivistic
                                       : SelectionMode::kNegativesFirst;
  SolveEachTime(state, workload::Example32Program(), "s", opts);
}
BENCHMARK(BM_Example32)->Arg(1)->Arg(0);

// Argument 1: negatively parallel expansion; 0: sequential.
void BM_Example33(benchmark::State& state) {
  EngineOptions opts;
  opts.negatively_parallel = state.range(0) == 1;
  opts.max_negation_depth = 24;
  SolveEachTime(state, workload::Example33Program(), "q", opts);
}
BENCHMARK(BM_Example33)->Arg(1)->Arg(0);

void BM_AugmentedQuery(benchmark::State& state) {
  SolveEachTime(state, "p(a). p(b). p(c).", "p(X)", {}, /*augment=*/true);
}
BENCHMARK(BM_AugmentedQuery);

// --- Sec. 7 and Thm. 4.7: the search engine, the memoing (tabled)
// engine and SLDNF on game programs.

enum class Engine { kSearch, kTabled, kSldnf };

/// Parses the program and answers `query` with `engine` per iteration.
void RunEngine(benchmark::State& state, Engine engine, const std::string& src,
               const char* query, const EngineOptions& opts = {}) {
  for (auto _ : state) {
    TermStore store;
    Program program = MustParseProgram(store, src);
    if (engine == Engine::kTabled) {
      Result<TabledEngine> tabled = TabledEngine::Create(program);
      benchmark::DoNotOptimize(
          tabled->Solve(MustParseQuery(store, query)).status);
    } else if (engine == Engine::kSldnf) {
      SldnfEngine sldnf(program);
      benchmark::DoNotOptimize(
          sldnf.SolveAtom(MustParseTerm(store, query)).status);
    } else {
      GlobalSlsEngine search(program, opts);
      benchmark::DoNotOptimize(
          search.Solve(MustParseQuery(store, query)).status);
    }
  }
}

std::string ChainOf(const benchmark::State& state) {
  return workload::GameChain(static_cast<int>(state.range(0)));
}
std::string GameOf(const benchmark::State& state) {
  Rng rng(7);
  return workload::RandomGame(rng, static_cast<int>(state.range(0)), 25);
}

void BM_TabledChain(benchmark::State& state) {
  RunEngine(state, Engine::kTabled, ChainOf(state), "win(n1)");
}
BENCHMARK(BM_TabledChain)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SearchChain(benchmark::State& state) {
  EngineOptions opts;
  opts.max_negation_depth = static_cast<size_t>(state.range(0)) + 8;
  RunEngine(state, Engine::kSearch, ChainOf(state), "win(n1)", opts);
}
BENCHMARK(BM_SearchChain)->Arg(16)->Arg(64)->Arg(256);

// SLDNF on the loop-free chain: the baseline cost of plain SLDNF.
void BM_SldnfChainDivergenceCost(benchmark::State& state) {
  RunEngine(state, Engine::kSldnf, ChainOf(state), "win(n1)");
}
BENCHMARK(BM_SldnfChainDivergenceCost)->Arg(16)->Arg(64)->Arg(256);

void BM_SearchEngineGame(benchmark::State& state) {
  RunEngine(state, Engine::kSearch, GameOf(state), "win(X)");
}
BENCHMARK(BM_SearchEngineGame)->Arg(4)->Arg(6)->Arg(8);

void BM_TabledEngineGame(benchmark::State& state) {
  RunEngine(state, Engine::kTabled, GameOf(state), "win(X)");
}
BENCHMARK(BM_TabledEngineGame)->Arg(4)->Arg(6)->Arg(8)->Arg(16)->Arg(32);

// --- the term substrate: hash-consed interning, unification,
// substitution application.

void BM_TermInterning(benchmark::State& state) {
  TermStore store;
  Rng rng(1);
  for (auto _ : state) {
    const Term* a = store.MakeConstant(StrCat("c", rng.Uniform(64)));
    benchmark::DoNotOptimize(store.MakeApp("f", {a, a}));
  }
}
BENCHMARK(BM_TermInterning);

void BM_DeepTermConstruction(benchmark::State& state) {
  for (auto _ : state) {
    TermStore store;
    const Term* t = store.MakeConstant("z");
    for (int i = 0; i < state.range(0); ++i) t = store.MakeApp("s", {t});
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_DeepTermConstruction)->Arg(64)->Arg(512);

void TimeUnify(benchmark::State& state, const std::string& lhs,
               const std::string& rhs) {
  TermStore store;
  const Term* t1 = MustParseTerm(store, lhs);
  const Term* t2 = MustParseTerm(store, rhs);
  for (auto _ : state) {
    Substitution s;
    benchmark::DoNotOptimize(Unify(t1, t2, &s));
  }
}

void BM_Unification(benchmark::State& state) {
  TimeUnify(state, "f(g(X, h(Y)), Z)", "f(g(a, h(b)), k(c, d))");
}
BENCHMARK(BM_Unification);

// p(X0, ..., Xn) against p(a, X0, ..., Xn-1): a binding chain.
void BM_UnificationSharedVars(benchmark::State& state) {
  std::string lhs = "p(X0";
  std::string rhs = "p(a";
  for (int i = 1; i < state.range(0); ++i) {
    lhs += StrCat(", X", i);
    rhs += StrCat(", X", i - 1);
  }
  TimeUnify(state, lhs + ")", rhs + ")");
}
BENCHMARK(BM_UnificationSharedVars)->Arg(4)->Arg(16);

void BM_SubstitutionApply(benchmark::State& state) {
  TermStore store;
  const Term* pattern = MustParseTerm(store, "f(g(X, h(Y)), p(X, Y, Z))");
  std::vector<VarId> vars;
  CollectVars(pattern, &vars);
  Substitution s;
  s.Bind(vars[0], MustParseTerm(store, "k(a, b)"));
  s.Bind(vars[1], MustParseTerm(store, "c"));
  s.Bind(vars[2], MustParseTerm(store, "h(h(h(d)))"));
  for (auto _ : state) benchmark::DoNotOptimize(s.Apply(store, pattern));
}
BENCHMARK(BM_SubstitutionApply);

}  // namespace

int main(int argc, char** argv) { return RunBenchmarks(argc, argv); }
