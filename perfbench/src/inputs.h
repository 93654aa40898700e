#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Seeded inputs for the three workloads. Everything here is a pure
// function of the seed: program text from the library's workload
// generators, and operation streams as text (facts, ground clauses, query
// atoms). The system under test only ever sees that text, parsed into
// terms and clauses before an operation's clock starts.

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace perfbench {

/// One program of the cold_open list plus the atoms its op point-queries.
struct ColdProgram {
  std::string family;  ///< reach-neg, random-game, grid, forest, propositional
  std::string text;
  std::vector<std::string> queries;
};

/// The fixed, seeded list of distinct programs cold_open cycles through.
/// Sizes are spread evenly over each family's range, so two seeds share
/// the size mix and differ in structure.
std::vector<ColdProgram> ColdOpenPrograms(uint64_t seed);

/// A `move(src, dst)` edge of a generated win/move program.
struct Edge {
  std::string src;
  std::string dst;
};

/// A win/move program and the facts and rules its delta streams touch.
struct GameProgram {
  std::string text;
  std::vector<Edge> wide_edges;   ///< chain + grid + forest
  std::vector<Edge> dense_edges;  ///< the dense block (serve_mixed only)
  /// Cycle-closing clause candidates `win(hi) :- not win(lo)`, where `lo`
  /// already depends on `hi` through the wide region's moves.
  std::vector<Edge> cycle_rules;
};

/// delta_stream's program: chain(5000) + grid(40x40) + forest(200x24, 8%),
/// about 28k atoms in many components below the warm-interior threshold.
GameProgram WideProgram(uint64_t seed);

/// serve_mixed's program: the wide region plus one dense negation-recursive
/// block, random game(1000, 1%), renamed apart.
GameProgram WideAndDenseProgram(uint64_t seed);

std::string MoveFact(const Edge& e);
std::string WinAtom(const std::string& position);
std::string CycleClause(const Edge& rule);

/// Every `move(a, b)` fact line of a win/move program's text.
std::vector<Edge> MoveEdges(const std::string& text);

/// delta_stream's operation kinds, in a fixed repeating pattern (so the
/// mix is exact in every run) with seeded targets.
enum class DeltaKind : uint8_t {
  kFactToggle,   ///< assert/retract a move fact, query its source's win
  kRuleAssert,   ///< assert a cycle-closing clause, query its head
  kRuleRetract,  ///< retract that clause, query its head
  kQuery,        ///< point query of a uniformly random atom
};

struct DeltaStep {
  DeltaKind kind;
  /// kFactToggle: index into `wide_edges`; kRule*: index into
  /// `cycle_rules`; kQuery: index into the caller's atom list.
  uint64_t target;
};

/// The unbounded seeded op stream of delta_stream: step k depends only on
/// the seed and k.
class DeltaStream {
 public:
  static constexpr int kPeriod = 20;

  DeltaStream(uint64_t seed, uint64_t edges, uint64_t rules, uint64_t atoms)
      : rng_(seed ^ 0xde17a5eedULL), edges_(edges), rules_(rules),
        atoms_(atoms) {}

  DeltaStep Next();
  static DeltaKind KindAt(uint64_t k);

 private:
  gsls::Rng rng_;
  uint64_t edges_;
  uint64_t rules_;
  uint64_t atoms_;
  uint64_t k_ = 0;
  uint64_t open_rule_ = 0;  ///< the rule the pending retract closes
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
