#ifndef PERFBENCH_GAME_SETUP_H_
#define PERFBENCH_GAME_SETUP_H_

// Set-up shared by delta_stream and serve_mixed: open a session on a
// generated win/move program and settle its first model, making the calls
// of `Session::Open` one layer at a time. A layered set-up also keeps each
// layer's time, plus side measurements of the condensation and of leveled
// vs unleveled solving.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "lang/parser.h"
#include "report.h"
#include "serve/session.h"

namespace perfbench {

/// Side measurements of one ground program, outside any operation: the
/// condensation the first `Model()` builds internally (a separate
/// `AtomDependencyGraph` build), and a leveled vs an unleveled one-shot
/// solve.
struct SideCosts {
  uint64_t rules = 0;
  uint64_t atoms = 0;
  uint64_t condense_ns = 0;
  uint64_t components = 0;
  uint64_t max_component = 0;
  uint64_t leveled_ns = 0;
  uint64_t unleveled_ns = 0;
};
SideCosts MeasureSide(const gsls::GroundProgram& gp);

struct SetupLayers {
  uint64_t parse_ns = 0;
  uint64_t bytes = 0;
  uint64_t ground_ns = 0;
  uint64_t first_model_ns = 0;
  SideCosts side;
};

struct OpenedGame {
  /// Declared first so it outlives the session's terms.
  std::unique_ptr<gsls::TermStore> store;
  std::unique_ptr<gsls::Session> session;
  bool ok = false;
};

/// Opens `text` and settles the first model (direct mode: `Model()`;
/// serving mode: epoch 1, published by the constructor). With `layers`
/// non-null each layer's time and the side measurements go into it.
OpenedGame OpenGame(const std::string& text, const gsls::SessionOptions& opts,
                    SetupLayers* layers);

/// Runs `kSetupRepeats` timed set-ups, each generating the inputs with
/// `make(seed)` and opening them (the median is `setup_s`), then, for a
/// layered run, one more layered set-up; returns the last one opened.
OpenedGame SetUp(GameProgram (*make)(uint64_t), uint64_t seed,
                 const gsls::SessionOptions& opts, bool layered,
                 GameProgram* program, std::vector<double>* setup_s,
                 SetupLayers* layers);

/// The per-layer metrics a set-up measures.
void ReportSetupLayers(const SetupLayers& l, Report* report);

/// The solver's work counters over a measured phase, as per-delta ratios:
/// `before`/`after` are read at its ends, `deltas` is the number applied.
struct SolverCounters {
  gsls::IncrementalStats stats;
  gsls::SolverDiagnostics diag;
};
void ReportSolverCounters(const SolverCounters& before,
                          const SolverCounters& after, uint64_t deltas,
                          Report* report);

/// Pre-parsed terms, so operations hand the session terms, never text.
std::vector<const gsls::Term*> ParseTerms(gsls::TermStore& store,
                                          const std::vector<std::string>& src,
                                          bool* ok);

}  // namespace perfbench

#endif  // PERFBENCH_GAME_SETUP_H_
