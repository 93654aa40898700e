#ifndef GSLS_GROUND_GROUNDER_H_
#define GSLS_GROUND_GROUNDER_H_

#include "ground/ground_program.h"
#include "ground/herbrand.h"
#include "lang/program.h"
#include "util/cancel.h"
#include "util/status.h"

namespace gsls {

/// Options for `GroundRelevant` / `FullyInstantiate`.
struct GroundingOptions {
  UniverseOptions universe;
  size_t max_rules = 2'000'000;  ///< Hard cap on emitted ground rules.
  size_t max_atoms = 1'000'000;  ///< Hard cap on registered ground atoms.
  /// Rule instances whose atoms have argument terms deeper than this are
  /// dropped (0 = use `universe.max_term_depth`). Function symbols in rule
  /// heads would otherwise let the derivation escape every universe bound;
  /// for function-free programs the cap is irrelevant. Truncation is *not*
  /// sound by itself: a dropped instance can make its head (and everything
  /// depending on it) wrong on the bounded fragment. Every dropped head is
  /// therefore recorded (`GroundProgram::truncated`); a head within the
  /// cap is still derived, so the instances depending on it are grounded
  /// too, and `Session::Query` answers `kUnknown` for the recorded heads
  /// and their up-cone (`ground/truncation.h`).
  uint32_t max_atom_arg_depth = 0;
};

/// Work counters of one `GroundRelevant` run (the `ground.*` telemetry).
struct GroundingStats {
  uint64_t join_candidates = 0;  ///< derived atoms probed by the joins
  uint64_t emitted = 0;          ///< rule instances handed to `AddRule`
  uint64_t truncated = 0;        ///< instances dropped at the depth cap
};

/// Produces the *relevant* finite fragment of the Herbrand instantiation:
/// only rule instances whose positive body atoms are all derivable when
/// every negative literal is assumed true (a standard over-approximation:
/// the emitted fragment provably contains every rule instance that can
/// matter to the well-founded model, because atoms outside the
/// over-approximation are false in it). Variables not bound by positive
/// body matching (in heads or negative literals of non-range-restricted
/// clauses) are enumerated over the bounded universe.
///
/// For function-free programs with `max_term_depth == 1` this is exact:
/// the well-founded model of the result, extended with falsehood for all
/// unregistered atoms, is the well-founded model of `program`.
///
/// Evaluation is an indexed semi-naive fixpoint: each derived atom fires
/// only the clauses with a positive body literal on its predicate, joins
/// the remaining positive literals through argument indexes, and each
/// rule instance is produced once (docs/architecture.md, `ground/`).
Result<GroundProgram> GroundRelevant(const Program& program,
                                     const GroundingOptions& opts);

/// `GroundRelevant` under a cancellation context: `cancel` (null = never
/// stops) is polled once up front and then every `kCancelStride` join
/// candidates; a run it stops returns `kCancelled` / `kDeadlineExceeded`
/// and no program. `stats` (nullable) receives the run's work counters.
Result<GroundProgram> GroundRelevant(const Program& program,
                                     const GroundingOptions& opts,
                                     CancelCtx* cancel, GroundingStats* stats);

/// The brute-force Herbrand instantiation (Def. 1.5) over the bounded
/// universe: every clause instantiated in every possible way. Exponential;
/// intended for cross-validating `GroundRelevant` on small programs.
Result<GroundProgram> FullyInstantiate(const Program& program,
                                       const GroundingOptions& opts);

/// Restricts `gp` to the rules relevant to `roots`: the least set of atoms
/// containing every registered atom that unifies with a root atom and
/// closed under "body atoms of rules for relevant atoms". Atom ids are
/// re-assigned in the result.
GroundProgram RestrictToRelevant(const GroundProgram& gp,
                                 const std::vector<const Term*>& roots);

}  // namespace gsls

#endif  // GSLS_GROUND_GROUNDER_H_
