// Rule-level incremental deltas vs. fresh solve: AssertRule/RetractRule
// churn over the chain / grid / cycle / random-game families, with every
// verification delta's model *and stage levels* checked against a
// from-scratch masked solve — sequentially and threaded — plus 300+
// randomized rule-churn sequences over small programs (where merges and
// splits of components are frequent) and the paper's example programs.
// The headline is chain(2048): a rule toggle whose edges respect the
// dependency order repairs the condensation in O(rule) and re-solves only
// the change-pruned up-cone, so the per-delta cost must sit far below a
// fresh `SolveWfs` (target >= 10x; measured ~100x+). A scaling row then
// times a cycle-closing rule pair on a forest of 1000 vs 16000 small
// chains: the pair's median and mean cost must stay within 2x, because a
// repair touches its affected region only. Any disagreement or a scaling ratio above 2x
// makes the process exit nonzero — this table is a hard CI gate.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "ground/grounder.h"
#include "lang/parser.h"
#include "obs/trace.h"
#include "solver/incremental.h"
#include "solver/solver.h"
#include "util/rng.h"
#include "util/strings.h"
#include "wfs/wfs.h"
#include "workload/generators.h"

using namespace gsls;

namespace {

GroundProgram GroundOf(const std::string& src, TermStore& store) {
  Program program = MustParseProgram(store, src);
  GroundingOptions gopts;
  gopts.max_rules = 5'000'000;
  Result<GroundProgram> gp = GroundRelevant(program, gopts);
  if (!gp.ok()) {
    std::fprintf(stderr, "grounding failed: %s\n",
                 gp.status().ToString().c_str());
    abort();
  }
  return std::move(gp.value());
}

/// Non-unit rules of the base program — the pool a rule-churn stream
/// toggles (game rules in the win/move families).
std::vector<RuleId> NonUnitRules(const GroundProgram& gp) {
  std::vector<RuleId> out;
  for (RuleId r = 0; r < gp.rule_count(); ++r) {
    const GroundRule& rule = gp.rules()[r];
    if (!rule.pos.empty() || !rule.neg.empty()) out.push_back(r);
  }
  return out;
}

void ToggleRule(IncrementalSolver& inc, RuleId r) {
  if (inc.RuleEnabled(r)) {
    inc.RetractRule(r);
  } else {
    inc.AssertRule(inc.program().rules()[r]);
  }
}

/// One agreement check: model and (when computed) stage levels against the
/// fresh masked solve. Prints and returns false on the first mismatch.
bool CheckAgainstFresh(IncrementalSolver& inc, const char* name,
                       const std::string& context) {
  const WfsModel& got = inc.Model();
  WfsModel want = inc.SolveFresh();
  if (!(got.model == want.model)) {
    std::printf("DISAGREEMENT on %s (%s):\n%s", name, context.c_str(),
                DescribeModelDifference(inc.program(), got.model, want.model)
                    .c_str());
    return false;
  }
  if (inc.options().compute_levels) {
    for (AtomId a = 0; a < inc.program().atom_count(); ++a) {
      if (got.true_stage[a] != want.true_stage[a] ||
          got.false_stage[a] != want.false_stage[a]) {
        std::printf(
            "LEVEL DISAGREEMENT on %s (%s) atom %u: got (%u,%u) want "
            "(%u,%u)\n",
            name, context.c_str(), a, got.true_stage[a], got.false_stage[a],
            want.true_stage[a], want.false_stage[a]);
        return false;
      }
    }
  }
  return true;
}

/// Agreement sweep over one workload family at one thread count: toggles
/// random non-unit rules, checking values + levels after every delta.
bool VerifyFamily(const char* name, const std::string& src, unsigned threads,
                  int deltas) {
  TermStore store;
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  IncrementalSolver inc(GroundOf(src, store), opts);
  inc.Model();
  std::vector<RuleId> rules = NonUnitRules(inc.program());
  if (rules.empty()) return true;
  Rng rng(0xDE17A5 + threads);
  for (int d = 0; d < deltas; ++d) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    if (!CheckAgainstFresh(inc, name, StrCat("threads=", threads, " delta ",
                                             d))) {
      return false;
    }
  }
  return true;
}

/// One randomized churn sequence over a small random program: toggles
/// base rules and asserts synthetic rules over the atom pool (frequent
/// component merges and splits), every delta checked.
bool VerifyRandomSequence(uint64_t seed, unsigned threads) {
  Rng rng(seed);
  TermStore store;
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  IncrementalSolver inc(
      GroundOf(workload::RandomPropositional(rng, 10, 16, 3), store), opts);
  inc.Model();
  const size_t n = inc.program().atom_count();
  if (n == 0) return true;
  for (int d = 0; d < 8; ++d) {
    if (rng.Chance(1, 2) && inc.program().rule_count() > 0) {
      ToggleRule(inc, static_cast<RuleId>(
                          rng.Uniform(inc.program().rule_count())));
    } else {
      GroundRule r;
      r.head = static_cast<AtomId>(rng.Uniform(n));
      int body = rng.UniformInt(1, 3);
      for (int b = 0; b < body; ++b) {
        AtomId atom = static_cast<AtomId>(rng.Uniform(n));
        if (rng.Chance(2, 5)) {
          r.neg.push_back(atom);
        } else {
          r.pos.push_back(atom);
        }
      }
      inc.AssertRule(std::move(r));
    }
    if (!CheckAgainstFresh(inc, "random-churn",
                           StrCat("seed ", seed, " threads ", threads,
                                  " delta ", d))) {
      return false;
    }
  }
  return true;
}

/// Timing row: per-rule-delta incremental vs per-delta fresh solve.
bool TimeFamily(const char* name, const std::string& src) {
  TermStore store;
  SolverOptions opts;
  opts.compute_levels = true;
  IncrementalSolver inc(GroundOf(src, store), opts);
  inc.Model();
  std::vector<RuleId> rules = NonUnitRules(inc.program());
  if (rules.empty()) {
    std::printf("%-22s no non-unit rules; skipped\n", name);
    return true;
  }

  Rng rng(0x5EED);
  // Short agreement sweep first (the heavy ones ran in VerifyFamily).
  bool agree = true;
  for (int d = 0; d < 10; ++d) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    if (!CheckAgainstFresh(inc, name, StrCat("timed sweep delta ", d))) {
      agree = false;
      break;
    }
  }

  const int kTimedDeltas = 400;
  auto start = std::chrono::steady_clock::now();
  for (int d = 0; d < kTimedDeltas; ++d) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    benchmark::DoNotOptimize(inc.Model().model.atom_count());
  }
  std::chrono::duration<double> inc_s =
      std::chrono::steady_clock::now() - start;

  const int kFreshDeltas = 30;
  start = std::chrono::steady_clock::now();
  for (int d = 0; d < kFreshDeltas; ++d) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    benchmark::DoNotOptimize(inc.SolveFresh().model.atom_count());
  }
  std::chrono::duration<double> fresh_s =
      std::chrono::steady_clock::now() - start;

  double inc_us = inc_s.count() * 1e6 / kTimedDeltas;
  double fresh_us = fresh_s.count() * 1e6 / kFreshDeltas;
  const DynamicCondensation::Stats* cs = inc.condensation_stats();
  std::printf("%-22s %8zu %8zu %10.2f %10.2f %8.1fx %5lu %5lu %5lu  %s\n",
              name, inc.program().atom_count(), rules.size(), inc_us,
              fresh_us, fresh_us / (inc_us > 0 ? inc_us : 1e-9),
              static_cast<unsigned long>(cs == nullptr ? 0 : cs->windows),
              static_cast<unsigned long>(cs == nullptr ? 0 : cs->merges),
              static_cast<unsigned long>(cs == nullptr ? 0 : cs->splits),
              agree ? "yes" : "NO");
  return agree;
}

/// K independent 4-node game chains n<k>_0 -> n<k>_1 -> n<k>_2 -> n<k>_3.
std::string ChainForest(int chains) {
  std::string src = "win(X) :- move(X, Y), not win(Y).\n";
  for (int k = 0; k < chains; ++k) {
    for (int i = 0; i < 3; ++i) {
      src += StrCat("move(n", k, "_", i, ", n", k, "_", i + 1, ").\n");
    }
  }
  return src;
}

/// The rule-delta scaling probe: asserts and retracts one cycle-closing
/// ground rule `win(n0_3) :- not win(n0_0).` in chain 0 of a chain
/// forest, with a point query on win(n0_0) after each step. The affected
/// region is chain 0's 4 win atoms at every K, so a pair's cost must not
/// grow with the program.
struct ScalingProbe {
  ScalingProbe(int chains, unsigned threads)
      : inc(GroundOf(ChainForest(chains), store), Options(threads)) {
    closing.head = Atom("win(n0_3)");
    closing.neg = {Atom("win(n0_0)")};
    inc.Model();
  }
  static SolverOptions Options(unsigned threads) {
    SolverOptions opts;
    opts.num_threads = threads;
    opts.compute_levels = true;
    return opts;
  }
  AtomId Atom(std::string_view src) {
    return *inc.program().FindAtom(MustParseTerm(store, src));
  }
  /// assert + query + retract + query.
  void Pair() {
    RuleId r = inc.AssertRule(closing);
    benchmark::DoNotOptimize(inc.QueryAtom(closing.neg[0]).value);
    inc.RetractRule(r);
    benchmark::DoNotOptimize(inc.QueryAtom(closing.neg[0]).value);
  }

  TermStore store;
  IncrementalSolver inc;
  GroundRule closing;
};

/// Wall time of one probe pair, in microseconds, over 1500 timed pairs,
/// plus the label-block relabels those pairs ran.
struct PairTimes {
  double median = 0;
  double mean = 0;
  double p99 = 0;
  uint64_t relabels = 0;
};

PairTimes TimePairs(int chains, unsigned threads) {
  ScalingProbe probe(chains, threads);
  for (int i = 0; i < 200; ++i) probe.Pair();
  const uint64_t relabels = probe.inc.condensation_stats()->relabels;
  std::vector<double> us(1500);
  double total = 0;
  for (double& t : us) {
    auto start = std::chrono::steady_clock::now();
    probe.Pair();
    t = std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - start)
            .count();
    total += t;
  }
  PairTimes out;
  out.mean = total / static_cast<double>(us.size());
  std::sort(us.begin(), us.end());
  out.median = us[us.size() / 2];
  out.p99 = us[us.size() * 99 / 100];
  out.relabels = probe.inc.condensation_stats()->relabels - relabels;
  return out;
}

/// Hard gate: a rule pair at K=16000 chains costs at most 2x the pair at
/// K=1000, at 1 and 2 threads, both in the median and in the mean — the
/// mean is the amortized cost, so a rare whole-program step (one in every
/// few pairs) would fail it even when the median cannot see it. A rule
/// delta costs its affected region, not the program.
bool VerifyScaling() {
  std::printf("=== rule-delta scaling gate (assert+query+retract+query) ===\n");
  std::printf("%-8s %6s %10s %10s %10s %9s  %-14s %s\n", "threads", "K",
              "median(us)", "mean(us)", "p99(us)", "relabels", "ratio med/mean",
              "gate<=2x");
  bool ok = true;
  for (unsigned threads : {1u, 2u}) {
    const PairTimes small = TimePairs(1000, threads);
    const PairTimes large = TimePairs(16000, threads);
    auto ratio = [](double num, double den) {
      return num / (den > 0 ? den : 1e-9);
    };
    const double median_ratio = ratio(large.median, small.median);
    const double mean_ratio = ratio(large.mean, small.mean);
    const bool pass = median_ratio <= 2.0 && mean_ratio <= 2.0;
    ok = ok && pass;
    for (const auto& [k, t] : {std::pair{1000, small}, {16000, large}}) {
      std::printf("%-8u %6d %10.2f %10.2f %10.2f %9lu", threads, k, t.median,
                  t.mean, t.p99, static_cast<unsigned long>(t.relabels));
      if (k == 16000) {
        std::printf("  %5.2fx/%5.2fx  %s", median_ratio, mean_ratio,
                    pass ? "ok" : "FAIL");
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
  return ok;
}

bool PrintVerification() {
  std::printf(
      "=== rule-delta agreement gate (values + levels, 1 and 2 threads) "
      "===\n");
  bool ok = true;
  struct Family {
    const char* name;
    std::string src;
  } families[] = {
      {"paper:van_gelder", workload::VanGelderProgram()},
      {"paper:ex3.2", workload::Example32Program()},
      {"paper:ex3.3", workload::Example33Program()},
      {"chain(256)", workload::GameChain(256)},
      {"grid(12x12)", workload::GameGrid(12, 12)},
      {"cycle(33)+tail(32)", workload::GameCycleWithTail(33, 32)},
  };
  Rng rng(20260729);
  std::string random_game = workload::RandomGame(rng, 48, 10);
  for (const Family& fam : families) {
    ok = ok && VerifyFamily(fam.name, fam.src, 1, 40);
    ok = ok && VerifyFamily(fam.name, fam.src, 2, 40);
  }
  ok = ok && VerifyFamily("random(48,10%)", random_game, 1, 40);
  ok = ok && VerifyFamily("random(48,10%)", random_game, 2, 40);
  std::printf("  paper + workload families: %s\n", ok ? "agree" : "FAIL");

  // 300+ randomized churn sequences, split across thread counts.
  int sequences = 0;
  for (uint64_t seed = 1; ok && seed <= 160; ++seed) {
    ok = ok && VerifyRandomSequence(seed, 1);
    ++sequences;
  }
  for (uint64_t seed = 1000; ok && seed <= 1160; ++seed) {
    ok = ok && VerifyRandomSequence(seed, 2);
    ++sequences;
  }
  std::printf("  randomized rule-churn sequences: %d (%s)\n\n", sequences,
              ok ? "agree" : "FAIL");

  std::printf("=== rule-delta re-solve vs fresh SolveWfs (per delta) ===\n");
  std::printf("%-22s %8s %8s %10s %10s %8s %5s %5s %5s  %s\n", "workload",
              "atoms", "rules", "inc(us)", "fresh(us)", "speedup", "win",
              "mrg", "spl", "agree");
  ok = ok && TimeFamily("chain(256)", workload::GameChain(256));
  ok = ok && TimeFamily("chain(1024)", workload::GameChain(1024));
  ok = ok && TimeFamily("chain(2048)", workload::GameChain(2048));
  ok = ok && TimeFamily("grid(24x24)", workload::GameGrid(24, 24));
  ok = ok && TimeFamily("cycle(101)+tail(100)",
                        workload::GameCycleWithTail(101, 100));
  Rng rng2(7);
  ok = ok && TimeFamily("random(64,10%)", workload::RandomGame(rng2, 64, 10));
  std::printf(
      "\nExpected shape: agree everywhere; speedup grows with program size\n"
      "(>= 10x at chain(2048)) — order-respecting rule toggles repair the\n"
      "condensation in O(rule) (win=windows stays low on stratified\n"
      "families) while the fresh solve pays Tarjan + a full sweep. The\n"
      "cycle family shows real merges/splits per toggle.\n\n");
  return VerifyScaling() && ok;
}

void BM_RuleDelta_Chain(benchmark::State& state) {
  TermStore store;
  SolverOptions opts;
  opts.compute_levels = true;
  IncrementalSolver inc(
      GroundOf(workload::GameChain(static_cast<int>(state.range(0))), store),
      opts);
  inc.Model();
  std::vector<RuleId> rules = NonUnitRules(inc.program());
  Rng rng(17);
  for (auto _ : state) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    benchmark::DoNotOptimize(inc.Model().model.atom_count());
  }
  state.counters["atoms"] = static_cast<double>(inc.program().atom_count());
}
BENCHMARK(BM_RuleDelta_Chain)->Arg(256)->Arg(1024)->Arg(2048);

void BM_FreshRuleDelta_Chain(benchmark::State& state) {
  TermStore store;
  SolverOptions opts;
  opts.compute_levels = true;
  IncrementalSolver inc(
      GroundOf(workload::GameChain(static_cast<int>(state.range(0))), store),
      opts);
  std::vector<RuleId> rules = NonUnitRules(inc.program());
  Rng rng(17);
  for (auto _ : state) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    benchmark::DoNotOptimize(inc.SolveFresh().model.atom_count());
  }
  state.counters["atoms"] = static_cast<double>(inc.program().atom_count());
}
BENCHMARK(BM_FreshRuleDelta_Chain)->Arg(256)->Arg(1024)->Arg(2048);

// The structural worst case: toggling cycle rules merges and splits the
// cycle component itself, so every delta pays a recondensation window.
void BM_RuleDelta_CycleMergeSplit(benchmark::State& state) {
  TermStore store;
  SolverOptions opts;
  opts.compute_levels = true;
  IncrementalSolver inc(
      GroundOf(workload::GameCycleWithTail(
                   static_cast<int>(state.range(0)), 16),
               store),
      opts);
  inc.Model();
  std::vector<RuleId> rules = NonUnitRules(inc.program());
  Rng rng(23);
  for (auto _ : state) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    benchmark::DoNotOptimize(inc.Model().model.atom_count());
  }
  const DynamicCondensation::Stats* cs = inc.condensation_stats();
  if (cs != nullptr) {
    state.counters["windows"] = static_cast<double>(cs->windows);
  }
}
BENCHMARK(BM_RuleDelta_CycleMergeSplit)->Arg(33)->Arg(101)->Arg(301);

void BM_RuleDelta_RandomGame(benchmark::State& state) {
  Rng gen(5);
  TermStore store;
  SolverOptions opts;
  opts.compute_levels = true;
  IncrementalSolver inc(GroundOf(
      workload::RandomGame(gen, static_cast<int>(state.range(0)), 10),
      store), opts);
  inc.Model();
  std::vector<RuleId> rules = NonUnitRules(inc.program());
  Rng rng(29);
  for (auto _ : state) {
    ToggleRule(inc, rules[rng.Uniform(rules.size())]);
    benchmark::DoNotOptimize(inc.Model().model.atom_count());
  }
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

}  // namespace

GSLS_BENCH_MAIN_GATED(PrintVerification(), "rule-delta/fresh model or level disagreement")
