#ifndef GSLS_SERVE_DELTA_H_
#define GSLS_SERVE_DELTA_H_

#include <cstdint>

#include "lang/clause.h"
#include "solver/incremental.h"

namespace gsls::serve {

/// The consolidated delta vocabulary. Everything the system can change
/// between queries is one of these four shapes — a ground fact or a
/// ground clause, asserted or retracted. The facade (`gsls::Session`),
/// the serving writer, and the engines all speak this.
struct DeltaOp {
  enum class Kind : uint8_t {
    kAssertFact,
    kRetractFact,
    kAssertRule,
    kRetractRule,
  };

  Kind kind = Kind::kAssertFact;
  const Term* fact = nullptr;  ///< fact kinds (hash-consed ground atom)
  Clause rule;                 ///< rule kinds (ground clause)
  uint64_t seq = 0;            ///< assigned at enqueue; 1-based
};

/// Splits a ground clause's body by literal sign and asserts it (unit
/// clauses take the fact path). Returns the rule id; `*changed` (when
/// non-null) reports whether the program moved. The one definition of
/// the clause → solver conversion shared by every entry point.
RuleId AssertClause(IncrementalSolver& inc, const Clause& rule,
                    bool* changed = nullptr);

/// Content-addressed retraction of the rule identical to `rule`. Atoms
/// the program never registered mean no such rule exists — nothing to
/// retract. Returns true iff the program changed.
bool RetractClause(IncrementalSolver& inc, const Clause& rule);

/// Applies one queued delta; returns whether the program changed.
bool ApplyDelta(IncrementalSolver& inc, const DeltaOp& op);

}  // namespace gsls::serve

#endif  // GSLS_SERVE_DELTA_H_
