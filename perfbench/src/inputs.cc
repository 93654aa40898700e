#include "inputs.h"

#include <cctype>
#include <unordered_map>
#include <unordered_set>

#include "util/strings.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using gsls::Rng;
using gsls::StrCat;

/// `count` sizes spread evenly over [lo, hi], the same for every seed:
/// seeds vary a program's structure, never the size mix, so the heaviest
/// programs (which set the tail percentiles) weigh the same in every run.
std::vector<int> SpreadSizes(int lo, int hi, int count) {
  std::vector<int> out;
  const double span = static_cast<double>(hi - lo + 1);
  for (int i = 0; i < count; ++i) {
    out.push_back(lo + static_cast<int>(span * (i + 0.5) / count));
  }
  return out;
}

/// Drops the leading `win(X) :- ...` rule line every game generator emits,
/// so concatenated regions share one copy.
std::string WithoutRuleLine(const std::string& text) {
  const size_t nl = text.find('\n');
  return nl == std::string::npos ? std::string() : text.substr(nl + 1);
}

/// Renames the positions of a random game apart from the chain's
/// (`nI` -> `dI`) on its move lines only.
std::string RenameDense(const std::string& text) {
  std::string out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    std::string line = text.substr(pos, nl - pos);
    if (line.rfind("move(n", 0) == 0) {
      line[5] = 'd';
      const size_t comma = line.find(", n");
      if (comma != std::string::npos) line[comma + 2] = 'd';
    }
    out += line;
    out += '\n';
    pos = nl + 1;
  }
  return out;
}

std::vector<std::string> SourcesOf(const std::vector<Edge>& edges) {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (const Edge& e : edges) {
    if (seen.insert(e.src).second) out.push_back(e.src);
  }
  return out;
}

/// Cycle-closing clause candidates: a seeded walk of 2-8 moves from `lo`
/// reaches `hi`, so `win(lo)` depends on `win(hi)` and the clause
/// `win(hi) :- not win(lo)` closes a negative cycle. Walks stay short so
/// every merged component stays below the warm-interior threshold.
std::vector<Edge> CycleRules(Rng& rng, const std::vector<Edge>& edges,
                             int count) {
  std::unordered_map<std::string, std::vector<std::string>> adj;
  for (const Edge& e : edges) adj[e.src].push_back(e.dst);
  const std::vector<std::string> sources = SourcesOf(edges);
  std::vector<Edge> out;
  while (static_cast<int>(out.size()) < count) {
    const std::string lo = sources[rng.Uniform(sources.size())];
    const int steps = rng.UniformInt(2, 8);
    std::string at = lo;
    int taken = 0;
    for (; taken < steps; ++taken) {
      auto it = adj.find(at);
      if (it == adj.end()) break;
      const std::string& next = it->second[rng.Uniform(it->second.size())];
      if (adj.find(next) == adj.end()) break;  // hi must be registered
      at = next;
    }
    if (taken >= 2 && at != lo) out.push_back(Edge{at, lo});
  }
  return out;
}

}  // namespace

std::string MoveFact(const Edge& e) {
  return StrCat("move(", e.src, ", ", e.dst, ")");
}

std::string WinAtom(const std::string& position) {
  return StrCat("win(", position, ")");
}

std::string CycleClause(const Edge& rule) {
  return StrCat("win(", rule.src, ") :- not win(", rule.dst, ").");
}

std::vector<Edge> MoveEdges(const std::string& text) {
  std::vector<Edge> out;
  size_t pos = 0;
  while ((pos = text.find("move(", pos)) != std::string::npos) {
    const size_t comma = text.find(", ", pos);
    const size_t close = text.find(')', pos);
    const bool fact = close != std::string::npos && close + 1 < text.size() &&
                      text[close + 1] == '.';
    if (fact && comma != std::string::npos && comma < close &&
        std::isupper(static_cast<unsigned char>(text[pos + 5])) == 0) {
      out.push_back(Edge{text.substr(pos + 5, comma - pos - 5),
                         text.substr(comma + 2, close - comma - 2)});
    }
    pos += 5;
  }
  return out;
}

std::vector<ColdProgram> ColdOpenPrograms(uint64_t seed) {
  constexpr int kPerFamily = 8;
  constexpr int kQueries = 8;
  Rng rng(seed ^ 0xc01d0be17ULL);
  std::vector<ColdProgram> out;

  auto add = [&](std::string family, std::string text,
                 const std::vector<std::string>& atoms) {
    ColdProgram p{std::move(family), std::move(text), {}};
    for (int q = 0; q < kQueries; ++q) {
      p.queries.push_back(atoms[rng.Uniform(atoms.size())]);
    }
    out.push_back(std::move(p));
  };
  auto game_atoms = [](const std::string& text) {
    std::vector<std::string> atoms;
    for (const Edge& e : MoveEdges(text)) {
      atoms.push_back(WinAtom(e.src));
      atoms.push_back(WinAtom(e.dst));  // may be unregistered: false
      atoms.push_back(MoveFact(e));
    }
    return atoms;
  };

  for (int n : SpreadSizes(16, 32, kPerFamily)) {
    // Mean out-degree ~3 at every size: well above the connectivity
    // threshold, so the reach closure (and the grounding cost) depends on
    // the size, not on whether a seed happened to connect the graph.
    std::string text =
        gsls::workload::ReachabilityWithNegation(rng, n, (300 + n / 2) / n);
    std::vector<std::string> atoms;
    for (int q = 0; q < kQueries; ++q) {
      const int i = rng.UniformInt(0, n - 1);
      const int j = rng.UniformInt(0, n - 1);
      atoms.push_back(StrCat("reach(v", i, ", v", j, ")"));
      atoms.push_back(StrCat("unreachable(v", i, ", v", j, ")"));
      atoms.push_back(StrCat("node(v", i, ")"));
    }
    add("reach-neg", std::move(text), atoms);
  }
  for (int n : SpreadSizes(128, 256, kPerFamily)) {
    std::string text = gsls::workload::RandomGame(rng, n, 2);
    const std::vector<std::string> atoms = game_atoms(text);
    add("random-game", std::move(text), atoms);
  }
  for (int w : SpreadSizes(16, 40, kPerFamily)) {
    std::string text = gsls::workload::GameGrid(w, w);
    const std::vector<std::string> atoms = game_atoms(text);
    add("grid", std::move(text), atoms);
  }
  for (int blocks : SpreadSizes(16, 48, kPerFamily)) {
    std::string text = gsls::workload::GameForest(rng, blocks, 20, 10);
    const std::vector<std::string> atoms = game_atoms(text);
    add("forest", std::move(text), atoms);
  }
  for (int preds : SpreadSizes(200, 400, kPerFamily)) {
    std::string text =
        gsls::workload::RandomPropositional(rng, preds, 3 * preds, 3);
    std::vector<std::string> atoms;
    for (int q = 0; q < kQueries; ++q) {
      atoms.push_back(StrCat("p", rng.UniformInt(0, preds - 1)));
    }
    add("propositional", std::move(text), atoms);
  }
  return out;
}

GameProgram WideProgram(uint64_t seed) {
  Rng rng(seed ^ 0x3e1de5eedULL);
  GameProgram p;
  p.text = gsls::workload::GameChain(5000) +
           WithoutRuleLine(gsls::workload::GameGrid(40, 40)) +
           WithoutRuleLine(gsls::workload::GameForest(rng, 200, 24, 8));
  p.wide_edges = MoveEdges(p.text);
  p.cycle_rules = CycleRules(rng, p.wide_edges, 4096);
  return p;
}

GameProgram WideAndDenseProgram(uint64_t seed) {
  GameProgram p = WideProgram(seed);
  Rng rng(seed ^ 0xde45eb10cULL);
  const std::string dense =
      RenameDense(WithoutRuleLine(gsls::workload::RandomGame(rng, 1000, 1)));
  p.text += dense;
  p.dense_edges = MoveEdges(dense);
  return p;
}

DeltaKind DeltaStream::KindAt(uint64_t k) {
  switch (k % kPeriod) {
    case 1:
    case 4:
    case 7:
    case 12:
    case 15:
    case 17:
      return DeltaKind::kQuery;
    case 9:
      return DeltaKind::kRuleAssert;
    case 10:
      return DeltaKind::kRuleRetract;
    default:
      return DeltaKind::kFactToggle;
  }
}

DeltaStep DeltaStream::Next() {
  DeltaStep step{KindAt(k_++), 0};
  switch (step.kind) {
    case DeltaKind::kFactToggle:
      step.target = rng_.Uniform(edges_);
      break;
    case DeltaKind::kRuleAssert:
      open_rule_ = rng_.Uniform(rules_);
      step.target = open_rule_;
      break;
    case DeltaKind::kRuleRetract:
      step.target = open_rule_;
      break;
    case DeltaKind::kQuery:
      step.target = rng_.Uniform(atoms_);
      break;
  }
  return step;
}

}  // namespace perfbench
