#ifndef GSLS_BENCH_BENCH_SUPPORT_H_
#define GSLS_BENCH_BENCH_SUPPORT_H_

// Workloads and delta helpers shared by the bench binaries. `bench_gates`
// (the wall-clock ratio gates) and `bench_solver` (the BENCH_*.json rows)
// time the same programs, so both build them here.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "ground/grounder.h"
#include "lang/parser.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "solver/incremental.h"
#include "solver/solver.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/generators.h"

namespace gsls::bench {

/// Relevant grounding of `src`; aborts on failure (a bench without its
/// program measures nothing).
inline GroundProgram GroundOf(const std::string& src, TermStore& store) {
  Program program = MustParseProgram(store, src);
  GroundingOptions gopts;
  gopts.max_rules = 5'000'000;
  Result<GroundProgram> gp = GroundRelevant(program, gopts);
  if (!gp.ok()) {
    std::fprintf(stderr, "grounding failed: %s\n",
                 gp.status().ToString().c_str());
    std::abort();
  }
  return std::move(gp.value());
}

inline SolverOptions Leveled(unsigned threads = 1) {
  SolverOptions opts;
  opts.num_threads = threads;
  opts.compute_levels = true;
  return opts;
}

/// Atoms that carry a unit rule: the fact base a fact-delta stream toggles.
inline std::vector<AtomId> FactAtoms(const GroundProgram& gp) {
  std::vector<AtomId> out;
  for (AtomId a = 0; a < gp.atom_count(); ++a) {
    if (gp.FindUnitRule(a).has_value()) out.push_back(a);
  }
  return out;
}

/// Unit (`unit == true`) or non-unit rules of the base program: the pools
/// a rule-delta stream toggles.
inline std::vector<RuleId> RulesOf(const GroundProgram& gp, bool unit) {
  std::vector<RuleId> out;
  for (RuleId r = 0; r < gp.rule_count(); ++r) {
    const RuleView rule = gp.rule(r);
    if ((rule.pos.empty() && rule.neg.empty()) == unit) out.push_back(r);
  }
  return out;
}

inline void ToggleFact(IncrementalSolver& inc, AtomId a) {
  if (inc.HasFact(a)) {
    inc.RetractAtom(a);
  } else {
    inc.AssertAtom(a);
  }
}

inline void ToggleRule(IncrementalSolver& inc, RuleId r) {
  if (inc.RuleEnabled(r)) {
    inc.RetractRule(r);
  } else {
    inc.AssertRule(inc.program().rule(r));
  }
}

/// Query-cone workloads without a canonical deep atom: the smallest
/// nontrivial down-cone among 24 sampled heads of non-unit rules,
/// preferring a cone of at least 8 atoms (a real recursive fragment, not
/// a bare fact).
inline AtomId PickSmallConeAtom(IncrementalSolver& inc, Rng& rng) {
  std::vector<AtomId> heads;
  for (RuleId r : RulesOf(inc.program(), /*unit=*/false)) {
    heads.push_back(inc.program().rule(r).head);
  }
  if (heads.empty()) heads.push_back(0);
  AtomId best = heads[0], best_deep = heads[0];
  uint64_t best_cone = ~0ull, best_deep_cone = ~0ull;
  for (int i = 0; i < 24; ++i) {
    AtomId a = heads[rng.Uniform(heads.size())];
    inc.InvalidateMemo();
    IncrementalSolver::QueryAnswer ans = inc.QueryAtom(a);
    if (ans.cone_atoms > 0 && ans.cone_atoms < best_cone) {
      best_cone = ans.cone_atoms;
      best = a;
    }
    if (ans.cone_atoms >= 8 && ans.cone_atoms < best_deep_cone) {
      best_deep_cone = ans.cone_atoms;
      best_deep = a;
    }
  }
  return best_deep_cone != ~0ull ? best_deep : best;
}

/// The rule-delta scaling probe: K independent 4-node game chains, and one
/// cycle-closing ground rule `win(n0_3) :- not win(n0_0).` asserted and
/// retracted in chain 0 with a point query on win(n0_0) after each step.
/// The affected region is chain 0's 4 win atoms at every K.
struct ScalingProbe {
  static std::string ChainForest(int chains) {
    std::string src = "win(X) :- move(X, Y), not win(Y).\n";
    for (int k = 0; k < chains; ++k) {
      for (int i = 0; i < 3; ++i) {
        src += StrCat("move(n", k, "_", i, ", n", k, "_", i + 1, ").\n");
      }
    }
    return src;
  }
  ScalingProbe(int chains, unsigned threads)
      : chains(chains),
        inc(GroundOf(ChainForest(chains), store), Leveled(threads)) {
    closing.head = Atom("win(n0_3)");
    closing.neg = {Atom("win(n0_0)")};
    inc.Model();
  }
  AtomId Atom(std::string_view src) {
    return *inc.program().FindAtom(MustParseTerm(store, src));
  }
  /// A closing rule never asserted before: pair `p` of the first-time
  /// variant gets `win(nk_h) :- not win(nk_0).` on chain k = p mod K with
  /// head h = 3 - p / K, so heads and chains differ between pairs.
  GroundRule NewClosing(int p) {
    const int k = p % chains;
    assert(p / chains < 3);
    return {Atom(StrCat("win(n", k, "_", 3 - p / chains, ")")),
            {},
            {Atom(StrCat("win(n", k, "_0)"))}};
  }
  /// assert + query + retract + query.
  void Pair(const GroundRule& rule) {
    RuleId r = inc.AssertRule(rule);
    benchmark::DoNotOptimize(inc.QueryAtom(rule.neg[0]).value);
    inc.RetractRule(r);
    benchmark::DoNotOptimize(inc.QueryAtom(rule.neg[0]).value);
  }
  void Pair() { Pair(closing); }

  const int chains;
  TermStore store;
  IncrementalSolver inc;
  GroundRule closing;
};

/// Win game with substantial cancellable work: a 1.5M-chain
/// `win_i :- not win_{i+1}` welded into a single SCC by a dead back-edge
/// rule whose body holds an atom with no rules. Built directly as a
/// GroundProgram, so the chain can be long enough for wall-clock deadline
/// gates to clear scheduler jitter.
inline GroundProgram DeepChainProgram(TermStore& store) {
  constexpr int kChain = 1'500'000;
  GroundProgram gp(&store);
  std::vector<AtomId> win(kChain + 1);
  for (int i = 0; i <= kChain; ++i) {
    win[i] = gp.InternAtom(store.MakeConstant(StrCat("win_n", i)));
  }
  const AtomId unreachable = gp.InternAtom(store.MakeConstant("unreachable"));
  for (int i = 0; i < kChain; ++i) gp.AddRule({win[i], {}, {win[i + 1]}});
  gp.AddRule({win[kChain], {win[0], unreachable}, {}});
  return gp;
}

/// The dense random game(2000, 1%): one giant negation-recursive SCC. It
/// is grounded once per process (the ~80k-rule instantiation dominates
/// setup) and copied per solver with identical atom and rule ids.
inline GroundProgram DenseProgram() {
  static TermStore* store = new TermStore();
  static GroundProgram* shared = [] {
    Rng rng(0xD5CC);
    return new GroundProgram(
        GroundOf(workload::RandomGame(rng, 2000, 1), *store));
  }();
  return *shared;
}

// --- serving: a win/move chain long enough that a toggled edge dirties a
// real cone, which the mutex baseline's readers pay under the lock and
// snapshot readers never do.

constexpr int kServeNodes = 1024;

inline std::unique_ptr<IncrementalSolver> ChainSolver(TermStore& store,
                                                      unsigned threads) {
  return std::make_unique<IncrementalSolver>(
      GroundOf(workload::GameChain(kServeNodes), store), Leveled(threads));
}

/// Every win atom plus every seed edge, pre-interned so the TermStore is
/// never written while threads read through it.
inline std::vector<const Term*> ChainProbes(TermStore& store) {
  std::vector<const Term*> probes;
  for (int i = 0; i < kServeNodes; ++i) {
    probes.push_back(MustParseTerm(store, StrCat("win(n", i, ")")));
    if (i + 1 < kServeNodes) {
      probes.push_back(
          MustParseTerm(store, StrCat("move(n", i, ", n", i + 1, ")")));
    }
  }
  return probes;
}

/// Seed-edge toggles (their win instances are grounded, so every toggle
/// churns the model and no delta re-grounds).
inline std::vector<std::pair<const Term*, bool>> ToggleScript(
    TermStore& store, Rng& rng, int count) {
  std::vector<std::pair<const Term*, bool>> script;
  script.reserve(count);
  for (int k = 0; k < count; ++k) {
    int i = rng.UniformInt(0, kServeNodes - 2);
    script.emplace_back(
        MustParseTerm(store, StrCat("move(n", i, ", n", i + 1, ")")),
        rng.Chance(1, 2));
  }
  return script;
}

/// `readers` threads each build a reader with `make_reader()` (on their
/// own thread, so it may register there) and call it with their Rng in a
/// loop, while the calling thread streams a pre-generated toggle script
/// through `write` for `run_ms`, checking the clock once per block of 256
/// deltas. Returns reads per second.
template <typename MakeReader, typename Write>
double MixedReadsPerSec(TermStore& store, int readers, int run_ms,
                        MakeReader make_reader, Write write) {
  std::atomic<bool> stop{false};
  std::vector<uint64_t> counts(readers, 0);
  std::vector<std::thread> fleet;
  fleet.reserve(readers);
  for (int r = 0; r < readers; ++r) {
    fleet.emplace_back([&, r] {
      Rng rng(100 + r);
      uint64_t n = 0;
      auto reader = make_reader();
      while (!stop.load(std::memory_order_relaxed)) {
        reader(rng);
        ++n;
      }
      counts[r] = n;
    });
  }
  Rng wrng(7);
  std::vector<std::pair<const Term*, bool>> script =
      ToggleScript(store, wrng, 4096);
  uint64_t deltas = 0;
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::milliseconds(run_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    for (int k = 0; k < 256; ++k, ++deltas) {
      write(script[deltas % script.size()]);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : fleet) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  uint64_t reads = 0;
  for (uint64_t c : counts) reads += c;
  return static_cast<double>(reads) / secs;
}

/// Snapshot serving: readers pin and read point answers while the writer
/// folds the delta stream through the batching writer.
inline double ServingReadsPerSec(int readers, int run_ms) {
  TermStore store;
  std::vector<const Term*> probes = ChainProbes(store);
  serve::ServingSolver server(ChainSolver(store, 1));
  return MixedReadsPerSec(
      store, readers, run_ms,
      [&] {
        return [&, h = server.RegisterReader()](Rng& rng) {
          benchmark::DoNotOptimize(
              server.Read(h, probes[rng.Uniform(probes.size())]).value);
        };
      },
      [&](const std::pair<const Term*, bool>& delta) {
        if (delta.second) {
          server.Assert(delta.first);
        } else {
          server.Retract(delta.first);
        }
      });
}

/// Hands the remaining flags to Google Benchmark, after stripping
/// `--trace=FILE` (which records a Chrome trace of the run).
inline int RunBenchmarks(int argc, char** argv) {
  obs::TraceFlagGuard trace(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

}  // namespace gsls::bench

#endif  // GSLS_BENCH_BENCH_SUPPORT_H_
